package main

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"

	"ncdrf/internal/store"
)

// runConfig is one run's command line.
type runConfig struct {
	seed    int64
	seconds int
	workers int
	traced  bool
}

const (
	// minSamples is the fewest timed samples a run measures, whatever
	// -seconds says: a curve-spill pass varies by about a tenth from
	// the next, and lasts about 7 s.
	minSamples = 5
	// minSampleSeconds is the least a sample lasts: a sample is as many
	// passes as it takes, so that short passes are not timed one by one
	// between calibration slots that would outlast them.
	minSampleSeconds = 1.0
	// minSetups and setupBudget bound the repeated set-ups whose median
	// is setup_s: at least minSetups, and more until setupBudget has
	// gone by. A set-up of a few milliseconds is thus repeated hundreds
	// of times, a populate of a second five times.
	minSetups   = 5
	setupBudget = 3 * time.Second
	// setupSlotSeconds is the calibration slot on each side of the
	// set-ups.
	setupSlotSeconds = 0.5
)

// scratchRoot holds everything a run writes, inside the working
// directory (the checkout); each run removes its own subdirectory.
const scratchRoot = ".bench_build"

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// run sets the workload up, warms it up and measures it.
func run(ctx context.Context, name string, w workload, cfg runConfig) (*result, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return nil, err
	}
	var in *inputs
	defer func() {
		os.RemoveAll(scratch)
		if in != nil && in.storeDir != "" {
			// Deleting the stores frees thousands of files; flushing
			// that before exit keeps it out of whatever runs next.
			syncFS()
		}
	}()

	// Set-up is repeated and its median reported: a single set-up of a
	// few tens of milliseconds moves with whatever the heap and the host
	// did just before it. Each repeat starts from a collected heap.
	// The set-ups are scaled by the calibration slots just before and
	// just after them, as the samples are (below).
	setupCal0, err := calibrationSlot(setupSlotSeconds)
	if err != nil {
		return nil, err
	}
	var setups, setupUser []float64
	setupStart := time.Now()
	for len(setups) < minSetups || time.Since(setupStart) < setupBudget {
		runtime.GC()
		u0, _ := rusageSeconds()
		t0 := time.Now()
		if in, err = w.setup(ctx, cfg.seed, cfg.workers, scratch); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		u1, _ := rusageSeconds()
		setupUser = append(setupUser, u1-u0)
	}
	setupCal1, err := calibrationSlot(setupSlotSeconds)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# set-ups: %d, wall median %.4f s (min %.4f, max %.4f), user CPU median %.4f s; kernel %.4f s before, %.4f s after\n",
		len(setups), median(setups), slices.Min(setups), slices.Max(setups), median(setupUser), setupCal0.Wall, setupCal1.Wall)
	if in.storeDir != "" {
		// Flush the populated store so its write-back does not land in
		// the timed passes.
		syncFS()
	}
	want := in.want
	if cfg.seed == defaultSeed {
		rec := recordedDigests[name]
		if want != "" && want != rec {
			return nil, fmt.Errorf("set-up output digest %s, recorded %s", want, rec)
		}
		want = rec
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	// check compares one pass's output with the expected digest; the
	// first pass of a non-default seed defines it.
	check := func(out []byte) {
		res.Attempted++
		d := digest(out)
		if want == "" {
			want = d
		}
		if d != want {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: output digest %s, want %s\n", name, d, want)
		}
	}

	// The warm-up pass keeps first-touch costs (page faults, heap
	// growth, cold code) out of the timed passes.
	t0 := time.Now()
	warm, err := w.pass(ctx, in, cfg.workers)
	warmWall := time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	if err := checkStore(warm.st); err != nil {
		return nil, err
	}
	check(warm.output)
	cells, okCells := warm.cells, warm.okCells
	if warm.cells == 0 {
		cells, okCells, err = perfCells(ctx, warm.eng, in.corpus)
		if err != nil {
			return nil, err
		}
	}
	warm = nil

	if cfg.traced {
		if err := tracedRun(ctx, w, in, cfg, res, check); err != nil {
			return nil, err
		}
		return res, nil
	}

	// Each sample is scaled by the mean of the kernel slots just before
	// and just after it, so a slowdown of a few seconds is corrected in
	// the samples it hit. A sample's figures are per pass.
	batch := max(1, int(math.Ceil(minSampleSeconds/warmWall)))
	slotBudget := float64(batch) * warmWall / 10
	var walls, cpus, allocs []float64
	var cals []calSample
	start := time.Now()
	for len(walls) < minSamples || time.Since(start) < time.Duration(cfg.seconds)*time.Second {
		cal, err := calibrationSlot(slotBudget)
		if err != nil {
			return nil, err
		}
		cals = append(cals, cal)
		var wall, cpu, alloc float64
		for range batch {
			runtime.GC()
			c0, a0 := cpuSeconds(), heapAllocBytes()
			t0 := time.Now()
			out, err := w.pass(ctx, in, cfg.workers)
			wall += time.Since(t0).Seconds()
			c1, a1 := cpuSeconds(), heapAllocBytes()
			if err != nil {
				return nil, fmt.Errorf("timed pass: %w", err)
			}
			if err := checkStore(out.st); err != nil {
				return nil, err
			}
			check(out.output)
			cpu += c1 - c0
			alloc += float64(a1-a0) / (1 << 20)
		}
		walls = append(walls, wall/float64(batch))
		cpus = append(cpus, cpu/float64(batch))
		allocs = append(allocs, alloc/float64(batch))
	}
	cal, err := calibrationSlot(slotBudget)
	if err != nil {
		return nil, err
	}
	cals = append(cals, cal)
	scaledWalls := make([]float64, len(walls))
	scaledCPUs := make([]float64, len(walls))
	calWalls := make([]float64, len(cals))
	calCPUs := make([]float64, len(cals))
	for i, c := range cals {
		calWalls[i], calCPUs[i] = c.Wall, c.CPU
	}
	for i := range walls {
		scaledWalls[i] = walls[i] * calibrationRef / ((cals[i].Wall + cals[i+1].Wall) / 2)
		scaledCPUs[i] = cpus[i] * calibrationCPURef / ((cals[i].CPU + cals[i+1].CPU) / 2)
	}
	fmt.Printf("# calibration: kernel median %.4f s wall %.4f s CPU over %d slots; %d samples of %d passes; raw wall_s %.4f cpu_s %.4f\n",
		median(calWalls), median(calCPUs), len(cals), len(walls), batch, median(walls), median(cpus))
	wall := median(scaledWalls)
	res.Metrics["wall_s"] = metric{wall, "s"}
	res.Metrics["cells_per_s"] = metric{float64(cells) / wall, "1/s"}
	res.Metrics["cpu_s"] = metric{median(scaledCPUs), "s"}
	res.Metrics["alloc_mb"] = metric{median(allocs), "MB"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	setup := median(setups) * calibrationRef / ((setupCal0.Wall + setupCal1.Wall) / 2)
	if in.storeDir != "" {
		// A set-up that populates a store is timed by its user CPU.
		// The populate's system time is the file system's, which moved
		// between about 0.02 and 0.7 ms per created file on the host the
		// benchmark was tuned on, over minutes and between directories.
		// Over ten runs the populate's wall time ranged 0.21–1.34 s and
		// its user CPU time 0.25–0.36 s.
		setup = median(setupUser) * calibrationCPURef / ((setupCal0.CPU + setupCal1.CPU) / 2)
	}
	res.Metrics["setup_s"] = metric{setup, "s"}
	res.Metrics["ok_cell_frac"] = metric{float64(okCells) / float64(cells), "ratio"}
	return res, nil
}

// syncFS flushes dirty file data to disk (sync(2); the standard
// library has no syncfs) so that write-back of earlier store work does
// not land in a later timed region.
func syncFS() { syscall.Sync() }

// checkStore fails a store-warm pass whose store faulted or was written:
// a warm run reads every artifact and writes none.
func checkStore(st *store.Store) error {
	if st == nil {
		return nil
	}
	if s := st.Stats(); s.Faults > 0 || s.Writes > 0 {
		return fmt.Errorf("warm store pass: %d faults, %d writes", s.Faults, s.Writes)
	}
	return nil
}

// tracedRun measures an untraced reference pass, then alternates traced
// and untraced passes of the same inputs until -seconds is spent. It
// reports the layers of the median traced pass and the tracing overhead
// as the difference of the two medians.
func tracedRun(ctx context.Context, w workload, in *inputs, cfg runConfig, res *result, check func([]byte)) error {
	add := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	runtime.GC()
	rt0 := readRuntime()
	heap := startHeapSampler()
	t0 := time.Now()
	ref, err := w.pass(ctx, in, cfg.workers)
	untracedWall := time.Since(t0).Seconds()
	heapPeak := heap.stop()
	rt1 := readRuntime()
	if err != nil {
		return fmt.Errorf("reference pass: %w", err)
	}
	if err := checkStore(ref.st); err != nil {
		return err
	}
	check(ref.output)

	// The program's own counters come from the reference pass, which
	// runs the real engine; it is dropped before the traced passes.
	stages := ref.eng.StageStats()
	sched := stages.Schedule
	add("sweep.schedule.requests", float64(sched.Requests()), "count")
	add("sweep.schedule.computed", float64(sched.Misses), "count")
	add("sweep.schedule.hit_frac", ratio(float64(sched.Hits+sched.DiskHits), float64(sched.Requests())), "ratio")
	add("sweep.base.computed", float64(stages.Base.Misses), "count")
	add("sweep.eval.requests", float64(stages.Eval.Requests()), "count")
	add("sweep.eval.computed", float64(stages.Eval.Misses), "count")
	add("sweep.entries", float64(ref.eng.Cache().Len()), "count")
	var storeStats store.Stats
	if ref.st != nil {
		storeStats = ref.st.Stats()
	}
	add("store.hits", float64(storeStats.Hits), "count")
	add("store.faults", float64(storeStats.Faults), "count")
	add("store.setup_writes", float64(in.storeWrites), "count")
	add("runtime.gc.cycles", float64(rt1.gcCycles-rt0.gcCycles), "count")
	add("runtime.gc.cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, (rt1.totalCPU-rt1.idleCPU)-(rt0.totalCPU-rt0.idleCPU)), "ratio")
	add("runtime.heap.peak_mb", float64(heapPeak)/(1<<20), "MB")
	reorder := ref.reorderPeak
	ref = nil
	untraced := []float64{untracedWall}

	// Only each pass's summary is kept: a tracer holds its pass's whole
	// stage cache.
	type tracedPass struct {
		layers      map[string]metric
		reorderPeak int
		wall        float64
	}
	var passes []tracedPass
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < time.Duration(cfg.seconds)*time.Second {
		if len(passes) > 0 {
			runtime.GC()
			t0 := time.Now()
			out, err := w.pass(ctx, in, cfg.workers)
			wall := time.Since(t0).Seconds()
			if err != nil {
				return fmt.Errorf("untraced pass: %w", err)
			}
			if err := checkStore(out.st); err != nil {
				return err
			}
			check(out.output)
			untraced = append(untraced, wall)
		}
		var st *store.Store
		if in.storeDir != "" {
			if st, err = store.Open(in.storeDir); err != nil {
				return err
			}
		}
		t := newTracer(cfg.workers, st)
		runtime.GC()
		t0 := time.Now()
		out, err := w.traced(ctx, in, t)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		if err := checkStore(st); err != nil {
			return err
		}
		check(out)
		passes = append(passes, tracedPass{layerMetrics(t), t.reorderPeak, wall})
	}
	slices.SortFunc(passes, func(a, b tracedPass) int { return cmp.Compare(a.wall, b.wall) })
	mid := passes[len(passes)/2]
	for n, m := range mid.layers {
		res.Metrics[n] = m
	}
	if reorder == 0 {
		reorder = mid.reorderPeak // paper-all's sweeps run inside the runners
	}
	add("sweep.reorder.peak_rows", float64(reorder), "rows")
	add("trace.wall_s", mid.wall, "s")
	add("trace.untraced_wall_s", median(untraced), "s")
	add("trace.overhead_s", mid.wall-median(untraced), "s")
	if cov := res.Metrics["trace.coverage"].Value; cov < minCoverage {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: layer self times cover %.1f%% of traced worker time, want >= %.0f%%\n", 100*cov, 100*minCoverage)
	}
	return nil
}

// minCoverage is the share of the traced run's summed worker time the
// layer self times must account for.
const minCoverage = 0.90

// layerMetrics summarizes a traced pass's spans and counters.
func layerMetrics(t *tracer) map[string]metric {
	out := map[string]metric{}
	var total recorder
	var cellTimes []float64
	for _, r := range t.all {
		for l := range total.busy {
			total.busy[l] += r.busy[l]
			total.calls[l] += r.calls[l]
		}
		total.root += r.root
		total.rounds += r.rounds
		total.usefulRounds += r.usefulRounds
		total.iiBumps += r.iiBumps
		total.nonconv += r.nonconv
		total.storeBytes += r.storeBytes
		for _, d := range r.cellTimes {
			cellTimes = append(cellTimes, d.Seconds()*1000)
		}
	}
	add := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	busy := func(l layer) float64 { return total.busy[l].Seconds() }
	calls := func(l layer) float64 { return float64(total.calls[l]) }

	add("sweep.schedule.hit_s", busy(layerSchedHit), "s")
	add("sweep.schedule.miss_s", busy(layerSchedMiss), "s")
	add("spill.cells", float64(len(cellTimes)), "count")
	add("spill.rounds", float64(total.rounds), "count")
	add("spill.ii_bumps", float64(total.iiBumps), "count")
	add("spill.nonconv_cells", float64(total.nonconv), "count")
	add("spill.useful_round_frac", ratio(float64(total.usefulRounds), float64(total.rounds)), "ratio")
	add("spill.self_s", busy(layerSpill), "s")
	slices.Sort(cellTimes)
	add("spill.cell_p50_ms", percentile(cellTimes, 0.50), "ms")
	add("spill.cell_p99_ms", percentile(cellTimes, 0.99), "ms")
	for _, c := range []struct {
		name string
		l    layer
	}{
		{"core.classify", layerClassify},
		{"core.swap", layerSwap},
		{"core.fits_dual", layerFitsDual},
		{"core.requirement", layerRequirement},
		{"regalloc.fits_in", layerFitsIn},
		{"pipeline.base", layerBase},
		{"pipeline.encode_row", layerEncodeRow},
		{"pipeline.decode", layerDecode},
		{"store.get", layerStoreGet},
	} {
		add(c.name+".calls", calls(c.l), "count")
		add(c.name+".busy_s", busy(c.l), "s")
	}
	add("store.get.mb", float64(total.storeBytes)/(1<<20), "MB")
	add("vm.verify.cells", calls(layerVerify), "count")
	add("vm.verify.busy_s", busy(layerVerify), "s")
	for _, name := range []string{"table1", "fig6", "fig7", "fig8and9", "cluster_scaling", "verify_sample", "render"} {
		add("experiment."+name+"_s", t.exhibits[name].Seconds(), "s")
	}

	// Worker time is every root span, less the main goroutine's waits on
	// the pool; everything but the replica's glue is attributed.
	worker := total.root - total.busy[layerWait]
	var covered time.Duration
	for l := range numLayers {
		if l != layerGlue && l != layerWait {
			covered += total.busy[l]
		}
	}
	add("trace.worker_s", worker.Seconds(), "s")
	add("trace.coverage", ratio(covered.Seconds(), worker.Seconds()), "ratio")
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile of a sorted sample, nearest rank; 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted)) + 0.5)
	return sorted[min(max(i-1, 0), len(sorted)-1)]
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	u, s := rusageSeconds()
	return u + s
}

// rusageSeconds is the process's user and system CPU time.
func rusageSeconds() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeStats is the runtime/metrics state the traced run reports
// deltas of.
type runtimeStats struct {
	gcCycles                 uint64
	gcCPU, totalCPU, idleCPU float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{
		gcCycles: s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		idleCPU:  s[3].Value.Float64(),
	}
}

// heapSampler tracks the peak of live heap objects while it runs.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.wg.Wait()
	return h.peak
}
