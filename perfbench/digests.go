package main

// recordedDigests are the SHA-256 digests of each workload's output at
// defaultSeed: for paper-all and store-warm the exhibits `ncdrf all`
// (store-warm: `ncdrf all -loops 30`) prints before its stage-counter
// trailer, including the count of simulator-verified cells; for
// curve-spill the NDJSON row stream of `ncdrf curve -loops 64 -ndjson`.
var recordedDigests = map[string]string{
	"paper-all":   "05338bb54b70f5cddd8508c4c5e3b58c400d383d440f8e8aec0ebd298a664382",
	"curve-spill": "80da201c666792d6ee7929c3baccd45cdd2a1a44db13f0718b53d41f9c91577a",
	"store-warm":  "75d458ba18708d0499f2396c4504cf44e0166fbb89bb9a9e129acd508a899ed3",
}
