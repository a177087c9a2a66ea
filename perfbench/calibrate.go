package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"sync"
	"time"
)

// The host's speed drifts: on a shared 2-CPU machine, neighbours slowed
// every pass of whole runs by 15–60% for minutes at a time, with no
// steal time to show for it. Each run therefore times a fixed
// calibration kernel between its passes, in a child process of its
// own: the kernel shares no heap, no collector and no resident set with
// the measured passes, so a change to the program cannot move it and
// it cannot move peak_rss_mb. It does the kinds of work the passes do:
// pointer chasing through scattered nodes and through more memory than
// the caches hold (the passes' collector marks heaps of 0.2–1.3 GB),
// map lookups, sorting, hashing and number formatting. Every reported
// time is scaled by calibrationRef / (kernel time around it), which
// reads as seconds on a host where the kernel takes calibrationRef.

// calibrationRef and calibrationCPURef are the kernel's typical wall
// and CPU time, one copy per worker on two workers, on the 2-CPU, 8 GB
// host the benchmark was tuned on (go1.24.0). Wall times are scaled by
// the kernel's wall time and CPU times by its CPU time: a neighbour
// sharing a core slows both, but one that takes a CPU away only
// stretches wall time.
const (
	calibrationRef    = 0.130
	calibrationCPURef = 0.250
)

// calSample is one timing of the kernel.
type calSample struct {
	Wall float64 `json:"wall"`
	CPU  float64 `json:"cpu"`
}

var calSink int

type calNode struct {
	next *calNode
	vals []int
	m    map[int]int
}

// calibrationSlot runs the kernel in a child process (see
// calibrationChild) for at least budget seconds and returns the median
// times of its runs.
func calibrationSlot(budget float64) (calSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return calSample{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-calibrate", strconv.FormatFloat(budget, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return calSample{}, fmt.Errorf("calibration child: %w", err)
	}
	var x calSample
	if err := json.Unmarshal(out, &x); err != nil || x.Wall <= 0 || x.CPU <= 0 {
		return calSample{}, fmt.Errorf("calibration child printed %q", out)
	}
	return x, nil
}

// calibrationChild is the -calibrate mode: it builds the kernel's data
// and runs the kernel once, untimed, so that the timed runs touch no new
// memory, then runs it until budget seconds have gone by (at least
// once) and prints the median times as JSON. One kernel run varies by
// up to a tenth on its own, too much to scale a long pass by.
func calibrationChild(workers int, budget float64) error {
	data := make([]calData, workers)
	for w := range data {
		data[w] = newCalData(int64(w + 1))
	}
	calibrate(data)
	var walls, cpus []float64
	total := 0.0
	for len(walls) == 0 || total < budget {
		x := calibrate(data)
		walls = append(walls, x.Wall)
		cpus = append(cpus, x.CPU)
		total += x.Wall
	}
	line, err := json.Marshal(calSample{median(walls), median(cpus)})
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", line)
	return err
}

// calibrate runs the kernel over each worker's data, in parallel as the
// passes run, and returns its wall and CPU time in seconds. A single
// copy would miss a neighbour slowing only one of the CPUs a pass uses.
func calibrate(data []calData) calSample {
	c0 := cpuSeconds()
	t0 := time.Now()
	var wg sync.WaitGroup
	sums := make([]int, len(data))
	for w, d := range data {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[w] = kernel(d)
		}()
	}
	wg.Wait()
	x := calSample{time.Since(t0).Seconds(), cpuSeconds() - c0}
	for _, s := range sums {
		calSink += s
	}
	return x
}

// calNodes is the length of one worker's list: with its slices and
// maps about 8 MB. calRing is the length of its ring, 32 MB, more than
// the CPU caches hold, and calSteps the steps the kernel takes around
// it.
const (
	calNodes = 25000
	calRing  = 8 << 20
	calSteps = 1 << 19
)

// calData is one worker's kernel data.
type calData struct {
	head *calNode
	ring []uint32 // one cycle through every slot: ring[i] is the slot after i
}

// newCalData builds one worker's data: the list scattered through the
// heap in allocation order, as a pass's stage data is, and a ring whose
// every step lands on an uncached line, as the collector's marking of a
// large heap does.
func newCalData(seed int64) calData {
	r := rand.New(rand.NewSource(seed))
	var head *calNode
	for i := 0; i < calNodes; i++ {
		n := &calNode{next: head, vals: make([]int, 8), m: make(map[int]int, 8)}
		for j := range n.vals {
			n.vals[j] = r.Intn(1000)
			n.m[n.vals[j]] = j
		}
		head = n
	}
	// A full-period linear congruential step modulo the power-of-two
	// ring size (odd increment, multiplier 1 mod 4) visits every slot
	// once per cycle, in an order no prefetcher follows.
	ring := make([]uint32, calRing)
	for i := range ring {
		ring[i] = uint32((1664525*i + 1013904223) % calRing)
	}
	return calData{head, ring}
}

// kernel is the calibration work, a fixed amount of each kind: pointer
// chasing through the list and around the ring, sorting, map lookups,
// number formatting and hashing. It allocates nothing, so neither the
// collector nor fresh pages add to its time.
func kernel(d calData) int {
	s := 0
	buf := make([]byte, 0, 32)
	for round := 0; round < 6; round++ {
		for n := d.head; n != nil; n = n.next {
			slices.Reverse(n.vals)
			slices.Sort(n.vals)
			s += n.vals[0] + n.m[n.vals[3]]
			buf = strconv.AppendInt(buf[:0], int64(s), 10)
		}
	}
	at := uint32(0)
	for range calSteps {
		at = d.ring[at]
	}
	block := make([]byte, 1<<20)
	for i := 0; i < 20; i++ {
		sum := sha256.Sum256(block)
		block[i] = sum[0]
	}
	return s + int(at) + len(buf) + int(block[0])
}
