// Command perfbench is the repository benchmark of ncdrf. It drives three
// workloads in-process through the public functions of the ncdrf
// packages, checks every pass's output against a recorded digest, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 6, "failed": 0, "metrics": {"wall_s": {"value": 1.2, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation; with -trace 1 a separate traced run of the same
// inputs reports the per-layer breakdown. -report K runs the workload K
// times, each in a fresh process with its own seed, and prints the
// spread of every end-to-end metric. -calibrate S is the child process
// of a calibration slot (calibrate.go). See README.md for the workloads,
// the metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// defaultSeed is the workload seed the digests in digests.go were
// recorded at: the synthetic corpus generator's own default, so the
// default-seed inputs are exactly what `ncdrf all` and `ncdrf curve`
// run on.
const defaultSeed = 1995

// maxWorkers caps the sweep worker pool: the benchmark is tuned for a
// 2-CPU host and a pool wider than the host's CPUs only adds noise.
const maxWorkers = 2

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", defaultSeed, "workload seed: the synthetic corpus and the curve-spill sample")
	seconds := flag.Int("seconds", 20, "how long the timed passes of one run last")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	report := flag.Int("report", 0, "steadiness report: run the workload this many times, seeds seed, seed+1, ..., each in a fresh process")
	calibrate := flag.Float64("calibrate", 0, "run the calibration kernel for this many seconds and print its median times (the child process of a calibration slot)")
	flag.Parse()

	workers := min(runtime.NumCPU(), maxWorkers)
	if *calibrate > 0 {
		if err := calibrationChild(workers, *calibrate); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: calibration: %v\n", err)
			os.Exit(1)
		}
		return
	}

	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *report > 0 {
		if err := steadiness(*workload, *seed, *seconds, *report); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	env := map[string]any{
		"workload":   *workload,
		"seed":       *seed,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    workers,
		"cpus":       runtime.NumCPU(),
		"go":         runtime.Version(),
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("# env %s\n", envLine)

	cfg := runConfig{seed: *seed, seconds: *seconds, workers: workers, traced: *trace == 1}
	res, err := run(context.Background(), *workload, w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of standard
// output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult writes a human-readable metric table, then the JSON
// result as the last line.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("# %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
