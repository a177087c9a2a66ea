package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/experiment"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/regalloc"
	"ncdrf/internal/sched"
	"ncdrf/internal/spill"
	"ncdrf/internal/store"
	"ncdrf/internal/sweep"
	"ncdrf/internal/vm"
)

// The traced run replays a workload through a replica of the engine's
// executor built from the same public calls the engine makes —
// sweep.Cache.Base, spill.RunSeeded with its Scheduler and FitFunc
// seams, core.Requirement, store.Get, pipeline.Decode*/EncodeRow,
// vm.VerifyModelWith — and times each call from outside the program.
// The experiment runners still aggregate and render: the replica seeds
// their engine memos, so they compute nothing themselves (checked).

// layer is one span kind of the traced run.
type layer int

const (
	layerBase        layer = iota // sweep.Cache.Base: pipeline.NewBaseWith through the stage cache
	layerSchedHit                 // spill-walk schedule request served from memory
	layerSchedMiss                // spill-walk schedule request computed
	layerSpill                    // spill.RunSeeded outside its seams
	layerClassify                 // core.Classify
	layerSwap                     // core.Swap
	layerFitsDual                 // core.FitsDual
	layerFitsIn                   // regalloc.FitsIn
	layerRequirement              // core.Requirement
	layerEncodeRow                // pipeline.EncodeRow
	layerStoreGet                 // eval store key + store.Get
	layerDecode                   // pipeline.DecodeModelResult
	layerVerify                   // vm.VerifyModelWith outside its Compile
	layerExperiment               // runner aggregation and rendering
	layerGlue                     // replica code between layer calls: unattributed
	layerWait                     // main goroutine blocked on the pool: not worker time
	numLayers
)

// frame is one open span.
type frame struct {
	start time.Time
	child time.Duration
}

// recorder holds one goroutine's spans and counters; each worker of the
// pool owns one at a time and the main goroutine has its own, so spans
// nest without locks.
type recorder struct {
	busy  [numLayers]time.Duration // self time per layer
	calls [numLayers]int64
	stack []frame
	// root is the summed duration of root spans: this goroutine's
	// worker time, waits included.
	root time.Duration

	// Spill-walk counters: the cell in progress, then totals.
	probes, bumps, lastMinII      int
	cellTimes                     []time.Duration
	rounds, usefulRounds, iiBumps int64
	nonconv                       int64
	storeBytes                    int64
}

func (r *recorder) begin() { r.stack = append(r.stack, frame{start: time.Now()}) }

// end closes the innermost span, charging its self time to l, and
// returns its full duration.
func (r *recorder) end(l layer) time.Duration {
	n := len(r.stack) - 1
	f := r.stack[n]
	r.stack = r.stack[:n]
	d := time.Since(f.start)
	r.busy[l] += d - f.child
	r.calls[l]++
	if n > 0 {
		r.stack[n-1].child += d
	} else {
		r.root += d
	}
	return d
}

// tracer is the instrumented replica of one traced pass.
type tracer struct {
	workers int
	cache   *sweep.Cache
	st      *store.Store // store-warm: evals are read from here
	main    *recorder
	recs    chan *recorder // the pool's idle recorders
	all     []*recorder

	seen     sync.Map // *sched.Schedule already returned by a request
	evals    onceMap
	digests  sync.Map // *ddg.Graph -> [sha256.Size]byte, for store keys
	exhibits map[string]time.Duration
	// reorderPeak is the most rows completed but not yet emitted.
	reorderPeak int
}

func newTracer(workers int, st *store.Store) *tracer {
	t := &tracer{
		workers:  workers,
		cache:    sweep.NewCache(),
		st:       st,
		main:     &recorder{},
		recs:     make(chan *recorder, workers), // one per pool worker
		exhibits: map[string]time.Duration{},
		evals:    onceMap{m: map[evalKey]*evalEntry{}},
	}
	if st != nil {
		t.cache.SetStore(st)
	}
	t.all = append(t.all, t.main)
	for i := 0; i < workers; i++ {
		r := &recorder{}
		t.all = append(t.all, r)
		t.recs <- r
	}
	return t
}

// forEach is sweep.ForEach with each item a root span on the recorder
// of the worker running it; the main goroutine records its wait.
func (t *tracer) forEach(ctx context.Context, n int, fn func(rec *recorder, i int) error) error {
	t.main.begin()
	err := sweep.ForEach(ctx, n, t.workers, func(i int) error {
		rec := <-t.recs
		defer func() { t.recs <- rec }()
		rec.begin()
		err := fn(rec, i)
		rec.end(layerGlue)
		return err
	})
	t.main.end(layerWait)
	return err
}

// exhibit times one experiment runner, with the replica work it needs,
// on the main goroutine.
func (t *tracer) exhibit(name string, fn func() error) error {
	t.main.begin()
	err := fn()
	t.exhibits[name] += t.main.end(layerExperiment)
	return err
}

func (t *tracer) base(ctx context.Context, rec *recorder, g *ddg.Graph, m *machine.Config) (*pipeline.Base, error) {
	rec.begin()
	b, err := t.cache.Base(ctx, g, m, sched.Options{})
	rec.end(layerBase)
	return b, err
}

func (t *tracer) requirement(rec *recorder, model core.Model, b *pipeline.Base) (int, error) {
	rec.begin()
	req, _, err := core.Requirement(model, b.Sched, b.Lifetimes)
	rec.end(layerRequirement)
	return req, err
}

// tracedSched is the spill walk's Scheduler seam over the tracer's
// sweep.Cache. A request that returns a schedule no earlier request
// returned computed it (or waited for its computation); the rest hit.
type tracedSched struct {
	t   *tracer
	rec *recorder
}

func (s tracedSched) Schedule(g *ddg.Graph, m *machine.Config, opts sched.Options) (*sched.Schedule, error) {
	if opts.MinII > s.rec.lastMinII {
		s.rec.bumps++
		s.rec.lastMinII = opts.MinII
	}
	s.rec.begin()
	out, err := s.t.cache.Schedule(g, m, opts)
	l := layerSchedMiss
	if err == nil {
		if _, loaded := s.t.seen.LoadOrStore(out, struct{}{}); loaded {
			l = layerSchedHit
		}
	}
	s.rec.end(l)
	return out, err
}

// Forget keeps the engine's digest-memo cleanup of dead spill clones.
func (s tracedSched) Forget(g *ddg.Graph) { s.t.cache.Forget(g) }

// Compile makes tracedSched the stage-cache compiler vm.VerifyModelWith
// looks for, as the engine is.
func (s tracedSched) Compile(ctx context.Context, g *ddg.Graph, m *machine.Config, model core.Model, regs int) (*pipeline.ModelResult, error) {
	b, err := s.t.base(ctx, s.rec, g, m)
	if err != nil {
		return nil, err
	}
	return s.t.eval(ctx, s.rec, b, model, regs)
}

// fit is core.Fit(model) with each call into core and regalloc timed.
func (t *tracer) fit(rec *recorder, model core.Model) spill.FitFunc {
	fitsDual := func(s *sched.Schedule, lts []lifetime.Lifetime, regs int) bool {
		rec.begin()
		c := core.Classify(s, lts)
		rec.end(layerClassify)
		rec.begin()
		ok := core.FitsDual(c, regs)
		rec.end(layerFitsDual)
		return ok
	}
	switch model {
	case core.Ideal:
		return func(s *sched.Schedule, _ []lifetime.Lifetime, _ int) (*sched.Schedule, bool) {
			rec.probes++
			return s, true
		}
	case core.Unified:
		return func(s *sched.Schedule, lts []lifetime.Lifetime, regs int) (*sched.Schedule, bool) {
			rec.probes++
			rec.begin()
			ok := regalloc.FitsIn(lts, s.II, regs)
			rec.end(layerFitsIn)
			return s, ok
		}
	case core.Partitioned:
		return func(s *sched.Schedule, lts []lifetime.Lifetime, regs int) (*sched.Schedule, bool) {
			rec.probes++
			return s, fitsDual(s, lts, regs)
		}
	default: // core.Swapped
		return func(s *sched.Schedule, lts []lifetime.Lifetime, regs int) (*sched.Schedule, bool) {
			rec.probes++
			if fitsDual(s, lts, regs) {
				return s, true
			}
			rec.begin()
			swapped, _ := core.Swap(s, core.SwapOptions{})
			rec.end(layerSwap)
			return swapped, fitsDual(swapped, lts, regs)
		}
	}
}

// evalKey is the replica's eval-stage key: bases are shared per content
// by the stage cache, so the pointer stands for the graph digest.
type evalKey struct {
	b     *pipeline.Base
	model core.Model
	regs  int
}

type evalEntry struct {
	once sync.Once
	res  *pipeline.ModelResult
	err  error
}

// onceMap computes each eval key once, like the engine's eval flight.
type onceMap struct {
	mu sync.Mutex
	m  map[evalKey]*evalEntry
}

func (o *onceMap) entry(k evalKey) *evalEntry {
	o.mu.Lock()
	defer o.mu.Unlock()
	e := o.m[k]
	if e == nil {
		e = &evalEntry{}
		o.m[k] = e
	}
	return e
}

// eval is sweep.Cache.EvaluateBase: read from the store when one is
// attached, else pipeline.Evaluate's spill walk through the traced seams.
func (t *tracer) eval(ctx context.Context, rec *recorder, b *pipeline.Base, model core.Model, regs int) (*pipeline.ModelResult, error) {
	if model == core.Ideal || regs < 0 {
		regs = 0
	}
	e := t.evals.entry(evalKey{b, model, regs})
	e.once.Do(func() {
		if t.st != nil {
			e.res, e.err = t.loadEval(rec, b, model, regs)
			return
		}
		rec.probes, rec.bumps, rec.lastMinII = 0, 0, b.Opts.MinII
		rec.begin()
		res, err := spill.RunSeeded(ctx, tracedSched{t, rec}, b.Graph, b.Machine, regs, t.fit(rec, model), b.Opts,
			&spill.Seed{Sched: b.Sched, Lifetimes: b.Lifetimes})
		rec.cellTimes = append(rec.cellTimes, rec.end(layerSpill))
		rounds := int64(max(rec.probes, 1))
		rec.rounds += rounds
		rec.iiBumps += int64(rec.bumps)
		if err != nil {
			if strings.Contains(err.Error(), "did not converge") {
				rec.nonconv++
			}
			e.err = err
			return
		}
		rec.usefulRounds += rounds
		e.res = &pipeline.ModelResult{
			Model:         model,
			Sched:         res.Sched,
			Graph:         res.Graph,
			Lifetimes:     res.Lifetimes,
			SpilledValues: res.SpilledValues,
			SpillStores:   res.SpillStores,
			SpillLoads:    res.SpillLoads,
			IIBumps:       res.IIBumps,
			Iterations:    res.Iterations,
		}
	})
	return e.res, e.err
}

// loadEval reads one eval artifact from the warm store. The key is the
// engine's store key, rebuilt from the same public inputs; a miss means
// the key scheme moved and the replica needs updating.
func (t *tracer) loadEval(rec *recorder, b *pipeline.Base, model core.Model, regs int) (*pipeline.ModelResult, error) {
	rec.begin()
	key := t.evalStoreKey(b, model, regs)
	data, ok := t.st.Get("eval", key)
	rec.end(layerStoreGet)
	if !ok {
		return nil, fmt.Errorf("eval artifact %s/%s/%v/%d is not in the warm store: the store key scheme changed", b.Graph.LoopName, b.Machine.Name(), model, regs)
	}
	rec.storeBytes += int64(len(data))
	rec.begin()
	res, err := pipeline.DecodeModelResult(bytes.NewReader(data), b.Machine)
	rec.end(layerDecode)
	if err == nil && res.Model != model {
		err = fmt.Errorf("eval artifact holds model %v, want %v", res.Model, model)
	}
	return res, err
}

// evalStoreKey is sweep's eval-stage disk key: SHA-256 over the
// scheduler version, the graph digest, the machine, the scheduling
// options and model/regs.
func (t *tracer) evalStoreKey(b *pipeline.Base, model core.Model, regs int) string {
	var sum [sha256.Size]byte
	if v, ok := t.digests.Load(b.Graph); ok {
		sum = v.([sha256.Size]byte)
	} else {
		var enc bytes.Buffer
		_ = b.Graph.Encode(&enc) // a bytes.Buffer write cannot fail
		sum = sha256.Sum256(enc.Bytes())
		t.digests.Store(b.Graph, sum)
	}
	h := sha256.New()
	fmt.Fprintf(h, "alg%d", sched.AlgorithmVersion)
	h.Write([]byte{0})
	h.Write(sum[:])
	h.Write([]byte{0})
	io.WriteString(h, b.Machine.String())
	h.Write([]byte{0})
	fmt.Fprintf(h, "%#v", b.Opts)
	h.Write([]byte{0})
	fmt.Fprintf(h, "%s/%d", model, regs)
	return hex.EncodeToString(h.Sum(nil))
}

// groupBase is the shared base of one (loop, machine) group.
type groupBase struct {
	once sync.Once
	base *pipeline.Base
	err  error
}

// sweepRows is sweep.Engine.SweepUnits on the replica: group-major
// dispatch, one base request per group, a reorder buffer emitting rows
// in unit order. emit runs serialized, on the recorder of the worker
// that completed the emitted prefix.
func (t *tracer) sweepRows(ctx context.Context, grid sweep.Grid, units []sweep.Unit, emit func(*recorder, sweep.Result) error) error {
	groups := sweep.GroupUnits(units)
	order := make([]int, 0, len(units))
	shared := make([]*groupBase, len(units))
	states := make([]groupBase, len(groups))
	for gi := range groups {
		for _, ui := range groups[gi].Units {
			order = append(order, ui)
			shared[ui] = &states[gi]
		}
	}
	var (
		mu      sync.Mutex
		pending = map[int]sweep.Result{}
		next    int
		emitErr error
	)
	return t.forEach(ctx, len(order), func(rec *recorder, k int) error {
		ui := order[k]
		u := units[ui]
		g, m := grid.Corpus[u.Loop], grid.Machines[u.Machine]
		r := sweep.Result{Loop: g.LoopName, Machine: m.Name(), Model: u.Model.String(), Regs: u.Regs, Trips: g.TripsOrOne()}
		gs := shared[ui]
		gs.once.Do(func() { gs.base, gs.err = t.base(ctx, rec, g, m) })
		var res *pipeline.ModelResult
		err := gs.err
		if err == nil {
			res, err = t.eval(ctx, rec, gs.base, u.Model, u.Regs)
		}
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			r.Error = err.Error()
		} else {
			r.Fill(res)
		}
		mu.Lock()
		defer mu.Unlock()
		pending[ui] = r
		t.reorderPeak = max(t.reorderPeak, len(pending))
		for emitErr == nil {
			ready, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			emitErr = emit(rec, ready)
		}
		return emitErr
	})
}

// registerSweep is experiment.RegisterSweep on the replica.
func (t *tracer) registerSweep(ctx context.Context, corpus []*ddg.Graph, m *machine.Config) ([]experiment.Requirements, error) {
	out := make([]experiment.Requirements, len(corpus))
	err := t.forEach(ctx, len(corpus), func(rec *recorder, i int) error {
		g := corpus[i]
		b, err := t.base(ctx, rec, g, m)
		if err != nil {
			return fmt.Errorf("%s: %w", g.LoopName, err)
		}
		r := experiment.Requirements{Name: g.LoopName, Trips: g.TripsOrOne(), II: b.Sched.II, Ops: g.NumNodes()}
		for _, model := range core.Models {
			req, err := t.requirement(rec, model, b)
			if err != nil {
				return fmt.Errorf("%s/%v: %w", g.LoopName, model, err)
			}
			r.Regs[model] = req
		}
		out[i] = r
		return nil
	})
	return out, err
}

// clusterScaling is experiment.ClusterScaling on the replica, which has
// no memo to seed: the same per-loop requirements, averaged in the same
// order.
func (t *tracer) clusterScaling(ctx context.Context, corpus []*ddg.Graph, lat int) (*experiment.ClusterScalingResult, error) {
	res := &experiment.ClusterScalingResult{Latency: lat}
	n := float64(len(corpus))
	for _, nc := range []int{1, 2, 4} {
		reqs, err := t.registerSweep(ctx, corpus, experiment.EvalN(nc, lat))
		if err != nil {
			return nil, err
		}
		row := experiment.ClusterScalingRow{Clusters: nc}
		for _, r := range reqs {
			row.AvgII += float64(r.II) / n
			for _, model := range core.Models {
				row.AvgRegs[model] += float64(r.Regs[model]) / n
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// verifySample is experiment.VerifySample on the replica.
func (t *tracer) verifySample(ctx context.Context, corpus []*ddg.Graph, m *machine.Config) (int, error) {
	var sample []*ddg.Graph
	for i := 0; i < len(corpus); i += verifyStride {
		sample = append(sample, corpus[i])
	}
	models := []core.Model{core.Unified, core.Partitioned, core.Swapped}
	err := t.forEach(ctx, len(sample), func(rec *recorder, i int) error {
		for _, model := range models {
			rec.begin()
			err := vm.VerifyModelWith(ctx, tracedSched{t, rec}, sample[i], m, model, 0, verifyIters)
			rec.end(layerVerify)
			if err != nil {
				return err
			}
		}
		return nil
	})
	return len(sample) * len(models), err
}

// tracedPaperAll is the paper-all (and, over its store, store-warm)
// exhibit sequence with every engine call served by the replica.
func tracedPaperAll(ctx context.Context, in *inputs, t *tracer) ([]byte, error) {
	eng := sweep.New(t.workers)
	corpus := in.corpus
	ex := &exhibits{}
	seedSweep := func(m *machine.Config) error {
		_, err := eng.Memo(ctx, eng.CorpusKey("register-sweep", corpus, m), func() (any, error) {
			return t.registerSweep(ctx, corpus, m)
		})
		return err
	}
	seedCurve := func(m *machine.Config, regs []int) error {
		_, err := eng.Memo(ctx, eng.CorpusKey(fmt.Sprintf("curve/%v", regs), corpus, m), func() (any, error) {
			grid := sweep.Grid{Corpus: corpus, Machines: []*machine.Config{m}, Models: core.Models[:], Regs: regs}
			var rows []sweep.Result
			err := t.sweepRows(ctx, grid, grid.Plan(), func(_ *recorder, r sweep.Result) error {
				rows = append(rows, r)
				return nil
			})
			if err != nil {
				return nil, err
			}
			return experiment.BuildCurve(rows), nil
		})
		return err
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"table1", func() (err error) {
			for _, m := range machine.Table1Configs() {
				if err := seedSweep(m); err != nil {
					return err
				}
			}
			ex.table1, err = experiment.Table1(ctx, eng, corpus)
			return err
		}},
		{"fig6", func() error {
			for _, lat := range []int{3, 6} {
				if err := seedSweep(machine.Eval(lat)); err != nil {
					return err
				}
				r, err := experiment.Fig6(ctx, eng, corpus, lat)
				if err != nil {
					return err
				}
				ex.cdfs = append(ex.cdfs, r)
			}
			return nil
		}},
		{"fig7", func() error {
			for _, lat := range []int{3, 6} {
				r, err := experiment.Fig7(ctx, eng, corpus, lat)
				if err != nil {
					return err
				}
				ex.cdfs = append(ex.cdfs, r)
			}
			return nil
		}},
		{"fig8and9", func() (err error) {
			for _, cfg := range experiment.PerfConfigs {
				if err := seedCurve(machine.Eval(cfg.Latency), []int{cfg.Regs}); err != nil {
					return err
				}
			}
			ex.perf, err = experiment.Fig8and9(ctx, eng, corpus, nil)
			return err
		}},
		{"cluster_scaling", func() (err error) {
			ex.clusters, err = t.clusterScaling(ctx, corpus, 6)
			return err
		}},
		{"verify_sample", func() (err error) {
			ex.verified, err = t.verifySample(ctx, corpus, machine.Eval(6))
			return err
		}},
	}
	for _, s := range steps {
		if err := t.exhibit(s.name, s.fn); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	err := t.exhibit("render", func() error {
		ex.stats = experiment.Stats(corpus)
		return ex.render(&buf, len(corpus))
	})
	if err != nil {
		return nil, err
	}
	if st := eng.StageStats(); st.Schedule.Requests()+st.Base.Requests()+st.Eval.Requests() > 0 {
		return nil, fmt.Errorf("an experiment runner computed outside the traced replica (%d schedule, %d base, %d eval requests): its memo key changed",
			st.Schedule.Requests(), st.Base.Requests(), st.Eval.Requests())
	}
	return buf.Bytes(), nil
}

// tracedCurveSpill is the curve-spill row stream on the replica.
func tracedCurveSpill(ctx context.Context, in *inputs, t *tracer) ([]byte, error) {
	var buf bytes.Buffer
	err := t.sweepRows(ctx, in.grid, in.units, func(rec *recorder, r sweep.Result) error {
		rec.begin()
		err := pipeline.EncodeRow(&buf, r)
		rec.end(layerEncodeRow)
		return err
	})
	return buf.Bytes(), err
}
