package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync/atomic"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/experiment"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/regfile"
	"ncdrf/internal/report"
	"ncdrf/internal/store"
	"ncdrf/internal/sweep"
)

// workload is one benchmark input set and the code that runs it.
type workload struct {
	// setup builds the inputs from the seed. It is what setup_s times.
	setup func(ctx context.Context, seed int64, workers int, scratch string) (*inputs, error)
	// pass runs the workload once, untraced, on a fresh engine.
	pass func(ctx context.Context, in *inputs, workers int) (*passOut, error)
	// traced runs the workload once through the instrumented replica
	// and returns its output, which must equal the untraced output.
	traced func(ctx context.Context, in *inputs, t *tracer) ([]byte, error)
}

var workloads = map[string]workload{
	"paper-all":   {setup: setupPaperAll, pass: passPaperAll, traced: tracedPaperAll},
	"curve-spill": {setup: setupCurveSpill, pass: passCurveSpill, traced: tracedCurveSpill},
	"store-warm":  {setup: setupStoreWarm, pass: passStoreWarm, traced: tracedPaperAll},
}

// inputs are the generated inputs of one run. The program only ever
// sees the graphs in corpus.
type inputs struct {
	corpus []*ddg.Graph
	// grid and units are the curve-spill plan.
	grid  sweep.Grid
	units []sweep.Unit
	// storeDir is the store-warm artifact store, populated by setup,
	// and storeWrites the artifact files the populate wrote.
	storeDir    string
	storeWrites int64
	// want is the output digest set-up observed (store-warm: the cold
	// populate's exhibits), or "".
	want string
}

// passOut is what one untraced pass leaves for the checks and the
// metrics, read after its timer stopped.
type passOut struct {
	output []byte
	eng    *sweep.Engine
	st     *store.Store
	// cells and okCells count result rows and rows without an error.
	cells, okCells int
	// reorderPeak is the most rows completed but not yet emitted.
	reorderPeak int
}

// curveLoops is curve-spill's synthetic sample size: large enough that
// the seed moves a pass's time by about 5% (32 loops: 11%), at about
// eight seconds and 1.4 GB of peak RSS on a 2-CPU host.
const curveLoops = 64

// curveRegs is `ncdrf curve`'s default register axis, 8:128:8.
var curveRegs = func() []int {
	var r []int
	for x := 8; x <= 128; x += 8 {
		r = append(r, x)
	}
	return r
}()

// sampleCorpus returns the curated kernels plus n synthetic loops drawn
// from the generator at seed, stratified by body size: the i-th loop has
// as many operations as the i-th loop of the default-seed corpus. Loop
// size sets most of a loop's scheduling and spilling cost, so every seed
// carries the same size mix while the dependence structure of every
// loop is new. At the default seed the sample is exactly the CLI's
// `-loops n` corpus (the pool's first n loops match in order).
func sampleCorpus(seed int64, n int) []*ddg.Graph {
	p := loopgen.Defaults()
	p.Loops = n
	target := loopgen.Generate(p)
	p.Seed = seed
	// The pool is sized so that a retry is rare: a fixed size keeps
	// set-up time the same for every seed.
	for pool := 4*n + 2048; ; pool *= 2 {
		p.Loops = pool
		if picked, ok := stratify(loopgen.Generate(p), target); ok {
			return append(loops.Kernels(), picked...)
		}
	}
}

// stratify picks, for each target loop in order, the first unused pool
// loop with the same number of operations.
func stratify(pool, target []*ddg.Graph) ([]*ddg.Graph, bool) {
	bySize := map[int][]*ddg.Graph{}
	for _, g := range pool {
		bySize[g.NumNodes()] = append(bySize[g.NumNodes()], g)
	}
	out := make([]*ddg.Graph, 0, len(target))
	for _, t := range target {
		q := bySize[t.NumNodes()]
		if len(q) == 0 {
			return nil, false
		}
		out = append(out, q[0])
		bySize[t.NumNodes()] = q[1:]
	}
	return out, true
}

// setupPaperAll builds the default `ncdrf all` corpus and, for any
// other seed than the default, shuffles its loop order with the seed.
// The loops themselves stay the default ones: on about one generator
// seed in ten (3 of seeds 300-330), one synthetic loop's 32-register
// Figure 8 cell does not converge in 400 spill rounds, and `ncdrf all`
// then stops with that error by design (the figure has no failure
// column), leaving nothing to measure. curve-spill measures that
// non-convergence instead.
func setupPaperAll(_ context.Context, seed int64, _ int, _ string) (*inputs, error) {
	return &inputs{corpus: shuffled(experiment.DefaultCorpus(), seed)}, nil
}

// shuffled returns corpus in the loop order seed gives it; the default
// seed keeps the CLI's order.
func shuffled(corpus []*ddg.Graph, seed int64) []*ddg.Graph {
	if seed != defaultSeed {
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(corpus), func(i, j int) { corpus[i], corpus[j] = corpus[j], corpus[i] })
	}
	return corpus
}

// exhibits are the results `ncdrf all` renders, in its order.
type exhibits struct {
	stats    *experiment.CorpusStats
	table1   *experiment.Table1Result
	cdfs     []*experiment.CDFResult // Fig6 L3, Fig6 L6, Fig7 L3, Fig7 L6
	perf     *experiment.PerfResult
	clusters *experiment.ClusterScalingResult
	verified int
}

// verifyIters and verifyStride are `ncdrf all`'s simulator sample:
// every 25th loop, ten iterations, unlimited registers.
const (
	verifyIters  = 10
	verifyStride = 25
)

// runExhibits is the `ncdrf all` exhibit sequence through the public
// experiment runners.
func runExhibits(ctx context.Context, eng *sweep.Engine, corpus []*ddg.Graph) (*exhibits, error) {
	ex := &exhibits{stats: experiment.Stats(corpus)}
	var err error
	if ex.table1, err = experiment.Table1(ctx, eng, corpus); err != nil {
		return nil, err
	}
	for _, fig := range []func(context.Context, *sweep.Engine, []*ddg.Graph, int) (*experiment.CDFResult, error){experiment.Fig6, experiment.Fig7} {
		for _, lat := range []int{3, 6} {
			r, err := fig(ctx, eng, corpus, lat)
			if err != nil {
				return nil, err
			}
			ex.cdfs = append(ex.cdfs, r)
		}
	}
	if ex.perf, err = experiment.Fig8and9(ctx, eng, corpus, nil); err != nil {
		return nil, err
	}
	if ex.clusters, err = experiment.ClusterScaling(ctx, eng, corpus, 6, nil); err != nil {
		return nil, err
	}
	ex.verified, err = experiment.VerifySample(ctx, eng, corpus, machine.Eval(6), 0, verifyIters, verifyStride)
	return ex, err
}

// render writes the exhibits exactly as `ncdrf all` prints them, up to
// its stage-counter trailer (which differs between a cold and a warm
// store run by design).
func (ex *exhibits) render(buf *bytes.Buffer, corpusLen int) error {
	fmt.Fprintf(buf, "corpus: %d loops\n\n", corpusLen)
	steps := []func(io.Writer) error{ex.stats.Render, ex.table1.Render}
	for _, c := range ex.cdfs {
		steps = append(steps, c.Render)
	}
	steps = append(steps, ex.perf.RenderFig8, ex.perf.RenderFig9, ex.clusters.Render, renderRegfile)
	for _, step := range steps {
		if err := step(buf); err != nil {
			return err
		}
		fmt.Fprintln(buf)
	}
	fmt.Fprintf(buf, "functional verification: %d loop/model combinations executed on the simulated\n", ex.verified)
	fmt.Fprintf(buf, "rotating register files, all bit-identical to the sequential reference\n")
	return nil
}

// renderRegfile is `ncdrf regfile` at its defaults, the table `ncdrf
// all` prints between the cluster study and the simulator line.
func renderRegfile(w io.Writer) error {
	const regs, bits, units = 64, 64, 6
	orgs := []regfile.Organization{
		regfile.Unified(regs, bits, units),
		regfile.ConsistentDual(regs, bits, units),
		regfile.NonConsistentDual(regs, bits, units),
		regfile.Unified(2*regs, bits, units),
	}
	orgs[3].Name = "unified-doubled"
	tb := &report.Table{
		Title:   "Register-file implementation models (section 3.2, normalized units)",
		Headers: []string{"organization", "capacity", "area", "access time"},
	}
	for _, o := range orgs {
		tb.Add(o.Name, fmt.Sprintf("%d", o.Capacity),
			fmt.Sprintf("%.0f", o.TotalArea()), report.F2(o.AccessTime()))
	}
	return tb.Render(w)
}

func passPaperAll(ctx context.Context, in *inputs, workers int) (*passOut, error) {
	return paperPass(ctx, in, sweep.New(workers), nil)
}

// paperPass runs and renders the exhibit sequence on eng.
func paperPass(ctx context.Context, in *inputs, eng *sweep.Engine, st *store.Store) (*passOut, error) {
	ex, err := runExhibits(ctx, eng, in.corpus)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ex.render(&buf, len(in.corpus)); err != nil {
		return nil, err
	}
	return &passOut{output: buf.Bytes(), eng: eng, st: st}, nil
}

// perfCells counts the Figure 8/9 cells of a finished paper-all pass
// and those that fitted, from the engine's memoized curves.
func perfCells(ctx context.Context, eng *sweep.Engine, corpus []*ddg.Graph) (cells, ok int, err error) {
	for _, cfg := range experiment.PerfConfigs {
		m := machine.Eval(cfg.Latency)
		curve, err := experiment.PerfCurve(ctx, eng, corpus, m, []int{cfg.Regs})
		if err != nil {
			return 0, 0, err
		}
		for _, model := range core.Models {
			pt, found := curve.Point(m.Name(), model.String(), cfg.Regs)
			if !found {
				return 0, 0, fmt.Errorf("curve has no cell %s/%v/%d", m.Name(), model, cfg.Regs)
			}
			cells += pt.Loops
			ok += pt.Loops - pt.Failed
		}
	}
	return cells, ok, nil
}

func setupCurveSpill(_ context.Context, seed int64, _ int, _ string) (*inputs, error) {
	grid := sweep.Grid{
		Corpus:   sampleCorpus(seed, curveLoops),
		Machines: []*machine.Config{machine.Eval(3), machine.Eval(6)},
		Models:   core.Models[:],
		Regs:     curveRegs,
	}
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	return &inputs{corpus: grid.Corpus, grid: grid, units: grid.Plan()}, nil
}

// passCurveSpill is `ncdrf curve -ndjson` over the sample: the
// base-major executor streams every row in plan order.
func passCurveSpill(ctx context.Context, in *inputs, workers int) (*passOut, error) {
	eng := sweep.New(workers)
	out := &passOut{eng: eng}
	var buf bytes.Buffer
	var done, emitted, peak atomic.Int64
	var encErr error
	err := eng.SweepUnitsObserved(ctx, in.grid, in.units, func(r sweep.Result) {
		emitted.Add(1)
		out.cells++
		if r.Error == "" {
			out.okCells++
		}
		if encErr == nil {
			encErr = pipeline.EncodeRow(&buf, r)
		}
	}, func() {
		raise(&peak, done.Add(1)-emitted.Load())
	})
	if err == nil {
		err = encErr
	}
	if err != nil {
		return nil, err
	}
	out.output = buf.Bytes()
	out.reorderPeak = int(peak.Load())
	return out, nil
}

// raise lifts *a to at least v.
func raise(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// storeLoops is store-warm's synthetic corpus size: the kernels plus
// the first storeLoops loops of the default corpus, `ncdrf all -loops
// 30`. The populate writes one file per artifact, about 1 900 here
// against 22 000 for the full corpus, and on a disk-backed checkout the
// file system's cost per file, not the computation, sets its time: the
// full corpus's populate took 3–12 s and never held a bound.
const storeLoops = 30

// setupStoreWarm builds the store-warm corpus, in the loop order the
// seed gives it, and populates a fresh artifact store with one cold
// `ncdrf all -cache-dir` run.
func setupStoreWarm(ctx context.Context, seed int64, workers int, scratch string) (*inputs, error) {
	p := loopgen.Defaults()
	p.Loops = storeLoops
	in := &inputs{corpus: shuffled(experiment.Corpus(p), seed)}
	dir, err := os.MkdirTemp(scratch, "store-")
	if err != nil {
		return nil, err
	}
	in.storeDir = dir
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	eng := sweep.New(workers)
	eng.SetStore(st)
	out, err := paperPass(ctx, in, eng, st)
	if err != nil {
		return nil, err
	}
	s := st.Stats()
	if s.Faults > 0 || s.Writes == 0 {
		return nil, fmt.Errorf("populating the store: %d writes, %d faults", s.Writes, s.Faults)
	}
	in.storeWrites = int64(s.Writes)
	in.want = digest(out.output)
	return in, nil
}

// passStoreWarm is paper-all by a fresh engine over the populated store.
func passStoreWarm(ctx context.Context, in *inputs, workers int) (*passOut, error) {
	st, err := store.Open(in.storeDir)
	if err != nil {
		return nil, err
	}
	eng := sweep.New(workers)
	eng.SetStore(st)
	return paperPass(ctx, in, eng, st)
}
