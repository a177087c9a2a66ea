package sweep

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/sched"
)

// TestAppendEncodingMatchesDDGEncode pins the fast cache-key encoder to
// the canonical ddg text encoding, byte for byte, including spill-shaped
// graphs (symbols, anonymous nodes, loop-carried memory edges).
func TestAppendEncodingMatchesDDGEncode(t *testing.T) {
	graphs := loops.Kernels()
	graphs = append(graphs, loops.PaperExample())
	g := ddg.New("synthetic", 7)
	a := g.AddNode(ddg.LOAD, "")
	b := g.AddNode(ddg.FADD, "acc")
	st := g.AddNode(ddg.STORE, "")
	g.Node(st).Sym = "spill0"
	g.Flow(a, b)
	g.FlowD(b, b, 1)
	g.Flow(b, st)
	g.MustAddEdge(ddg.Edge{From: st, To: a, Kind: ddg.Mem, Distance: 2})
	graphs = append(graphs, g)

	for _, g := range graphs {
		var want bytes.Buffer
		if err := g.Encode(&want); err != nil {
			t.Fatal(err)
		}
		got := appendEncoding(nil, g)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: encodings differ\nfast:\n%s\ncanonical:\n%s", g.LoopName, got, want.Bytes())
		}
	}
}

// TestCacheSharesWork drives the cache concurrently (run under -race in
// CI) and checks that identical requests are computed exactly once while
// distinct graphs, machines and options stay separate.
func TestCacheSharesWork(t *testing.T) {
	c := NewCache()
	corpus := loops.Kernels()
	machines := []*machine.Config{machine.Eval(3), machine.Eval(6)}
	const rounds = 8

	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for _, m := range machines {
			for _, g := range corpus {
				wg.Add(1)
				go func(g *ddg.Graph, m *machine.Config) {
					defer wg.Done()
					s, err := c.Schedule(g, m, sched.Options{})
					if err != nil {
						t.Error(err)
						return
					}
					if s.II < 1 || len(s.Start) != g.NumNodes() {
						t.Errorf("%s: bad shared schedule", g.LoopName)
					}
				}(g, m)
			}
		}
	}
	wg.Wait()

	st := c.Stats()
	distinct := uint64(len(corpus) * len(machines))
	if st.Misses != distinct {
		t.Fatalf("misses = %d, want %d (one per distinct problem)", st.Misses, distinct)
	}
	if st.Hits != distinct*(rounds-1) {
		t.Fatalf("hits = %d, want %d", st.Hits, distinct*(rounds-1))
	}
	if c.Len() != int(distinct) {
		t.Fatalf("cache holds %d entries, want %d", c.Len(), distinct)
	}

	// Different options are a different problem.
	if _, err := c.Schedule(corpus[0], machines[0], sched.Options{MinII: 9}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Misses; got != distinct+1 {
		t.Fatalf("MinII variant not keyed separately: misses = %d", got)
	}
}

// TestCacheSurvivesCallerMutation checks the content-addressing contract
// the spiller relies on: mutating the request graph after a hit must not
// corrupt the cached schedule, and the mutated graph is a fresh key.
func TestCacheSurvivesCallerMutation(t *testing.T) {
	c := NewCache()
	m := machine.Eval(3)
	g := loops.PaperExample().Clone()

	s1, err := c.Schedule(g, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n1 := s1.Graph.NumNodes()

	// Grow the caller's graph the way insertSpill does.
	ld := g.AddNode(ddg.LOAD, "extra")
	g.Flow(ld, 0)

	if s1.Graph.NumNodes() != n1 {
		t.Fatal("cached schedule's graph aliased the caller's graph")
	}
	s2, err := c.Schedule(g, m, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Misses != 2 {
		t.Fatalf("mutated graph reused a stale entry: %+v", c.Stats())
	}
	if s2.Graph.NumNodes() != n1+1 {
		t.Fatal("second schedule lost the mutation")
	}
	if err := s1.Verify(); err != nil {
		t.Fatalf("cached schedule corrupted by caller mutation: %v", err)
	}
}

// TestCompileForgetsWorkingGraphs checks that the spill loop's private
// working graphs do not pile up in the digest memo: the eval stage
// schedules spill rounds without the cache, and a spill walk that does
// schedule through the cache forgets each working graph when it dies.
// Either way only the caller's graph stays memoized.
func TestCompileForgetsWorkingGraphs(t *testing.T) {
	eng := New(1)
	g, ok := loops.KernelByName("lfk7-eos")
	if !ok {
		t.Fatal("missing kernel")
	}
	res, err := eng.Compile(context.Background(), g, machine.Eval(6), core.Unified, 24)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledValues == 0 {
		t.Fatal("test needs a spilling compile to exercise working-graph cleanup")
	}
	memoized := func() int {
		n := 0
		eng.cache.digests.Range(func(any, any) bool { n++; return true })
		return n
	}
	// The base stage digested the caller's long-lived graph (that memo is
	// useful and stays); no working graph may be left behind.
	if n := memoized(); n != 1 {
		t.Fatalf("digest memo retains %d graphs after Compile, want 1 (the caller's)", n)
	}
	b, err := eng.Base(context.Background(), g, machine.Eval(6))
	if err != nil {
		t.Fatal(err)
	}
	before := eng.cache.Stats().Misses
	if _, err := pipeline.Evaluate(context.Background(), eng.cache, b, core.Unified, 24); err != nil {
		t.Fatal(err)
	}
	if eng.cache.Stats().Misses == before {
		t.Fatal("test needs spill rounds scheduled through the cache")
	}
	if n := memoized(); n != 1 {
		t.Fatalf("digest memo retains %d graphs after a cache-scheduled walk, want 1 (the caller's)", n)
	}
}

// TestCacheCachesErrors checks that deterministic scheduling failures
// are cached instead of recomputed.
func TestCacheCachesErrors(t *testing.T) {
	c := NewCache()
	// A machine with no memory ports cannot host any kernel with loads.
	m := machine.MustNew("no-mem", []machine.ClusterSpec{{Adders: 1, Multipliers: 1}}, 3, 3, 1)
	g := loops.Kernels()[0]
	_, err1 := c.Schedule(g, m, sched.Options{})
	if err1 == nil {
		t.Fatal("expected scheduling failure")
	}
	_, err2 := c.Schedule(g, m, sched.Options{})
	if err2 == nil || c.Stats().Misses != 1 || c.Stats().Hits != 1 {
		t.Fatalf("error result not served from cache: %+v", c.Stats())
	}
}

// TestEngineCompileAllStageSharing asserts the stage-granular caching
// contract on the engine: CompileAll for one loop computes exactly one
// base artifact (one scheduler entry for the base schedule), evaluates
// four models, and a repeated CompileAll is served entirely from the
// eval cache.
func TestEngineCompileAllStageSharing(t *testing.T) {
	eng := New(2)
	g := loops.Kernels()[0]
	m := machine.Eval(6)
	ctx := context.Background()

	first, err := eng.CompileAll(ctx, g, m, 64)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Cache().StageStats()
	if st.Base.Misses != 1 {
		t.Fatalf("base stage computed %d artifacts, want 1", st.Base.Misses)
	}
	if st.Eval.Misses != uint64(len(core.Models)) {
		t.Fatalf("eval stage computed %d results, want %d", st.Eval.Misses, len(core.Models))
	}
	for _, model := range core.Models {
		if first[model] == nil || first[model].Model != model {
			t.Fatalf("missing or misindexed result for %v", model)
		}
	}

	again, err := eng.CompileAll(ctx, g, m, 64)
	if err != nil {
		t.Fatal(err)
	}
	st = eng.Cache().StageStats()
	if st.Eval.Misses != uint64(len(core.Models)) || st.Eval.Hits != uint64(len(core.Models)) {
		t.Fatalf("repeat CompileAll not served from eval cache: %+v", st.Eval)
	}
	for _, model := range core.Models {
		if again[model] != first[model] {
			t.Fatalf("%v: repeat CompileAll returned a different artifact", model)
		}
	}
}

// TestCacheLensPerStage pins the per-stage entry accounting: Len used to
// count only schedule entries, silently ignoring bases and evals.
func TestCacheLensPerStage(t *testing.T) {
	eng := New(1)
	g := loops.Kernels()[0]
	if _, err := eng.CompileAll(context.Background(), g, machine.Eval(6), 64); err != nil {
		t.Fatal(err)
	}
	lens := eng.Cache().Lens()
	if lens.Base != 1 {
		t.Fatalf("base entries = %d, want 1", lens.Base)
	}
	if lens.Eval != len(core.Models) {
		t.Fatalf("eval entries = %d, want %d", lens.Eval, len(core.Models))
	}
	if lens.Schedule < 1 {
		t.Fatalf("schedule entries = %d, want >= 1", lens.Schedule)
	}
	if got := eng.Cache().Len(); got != lens.Schedule+lens.Base+lens.Eval {
		t.Fatalf("Len() = %d, want the sum of all stages %+v", got, lens)
	}
}

// TestFlightWaiterRetriesDroppedFailure exercises the generic core
// directly: a waiter that observes a dropped (non-retained) failure
// recomputes with its own live context, while retained failures are
// shared as hits.
func TestFlightWaiterRetriesDroppedFailure(t *testing.T) {
	f := newFlight[string, int](func(err error) bool { return err != context.Canceled })

	// Retained failure: second caller shares the error as a hit.
	wantErr := errors.New("deterministic")
	if _, err := f.do(context.Background(), "det", func() (int, error) { return 0, wantErr }); err != wantErr {
		t.Fatalf("first call: %v", err)
	}
	calls := 0
	if _, err := f.do(context.Background(), "det", func() (int, error) { calls++; return 1, nil }); err != wantErr {
		t.Fatalf("retained error not shared: %v", err)
	}
	if calls != 0 || f.hits.Load() != 1 || f.misses.Load() != 1 {
		t.Fatalf("retained failure recomputed: calls=%d hits=%d misses=%d", calls, f.hits.Load(), f.misses.Load())
	}

	// Dropped failure: a concurrent waiter retries and succeeds.
	computing := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _ = f.do(context.Background(), "ctx", func() (int, error) {
			close(computing)
			<-release
			return 0, context.Canceled
		})
	}()
	<-computing
	done := make(chan struct{})
	var got int
	var gotErr error
	go func() {
		defer close(done)
		got, gotErr = f.do(context.Background(), "ctx", func() (int, error) { return 42, nil })
	}()
	close(release)
	<-done
	if gotErr != nil || got != 42 {
		t.Fatalf("waiter did not retry after dropped failure: %d, %v", got, gotErr)
	}
	// A waiter whose own context is dead propagates its cancellation
	// instead of recomputing.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.do(cancelled, "fresh", func() (int, error) { return 0, nil }); err != context.Canceled {
		t.Fatalf("dead context not honoured: %v", err)
	}
}

// TestEvaluateRetainsDeterministicErrors checks that an evaluation that
// fails for content reasons (an unschedulable problem) is cached like a
// result, while the cancellation test below shows ctx errors are not.
func TestEvaluateRetainsDeterministicErrors(t *testing.T) {
	eng := New(1)
	m := machine.MustNew("no-mem2", []machine.ClusterSpec{{Adders: 1, Multipliers: 1}}, 3, 3, 1)
	g := loops.Kernels()[0] // every kernel has loads; cannot schedule
	ctx := context.Background()
	if _, err := eng.Compile(ctx, g, m, core.Unified, 16); err == nil {
		t.Fatal("expected scheduling failure")
	}
	if _, err := eng.Compile(ctx, g, m, core.Unified, 16); err == nil {
		t.Fatal("expected cached scheduling failure")
	}
	st := eng.Cache().StageStats()
	if st.Eval.Misses != 1 || st.Eval.Hits != 1 {
		t.Fatalf("deterministic failure not retained: %+v", st.Eval)
	}
}

// TestEngineCompileAllCancellation checks that a cancelled context
// aborts the staged compile and that the failed evaluation is not
// retained (a later call with a live context succeeds).
func TestEngineCompileAllCancellation(t *testing.T) {
	eng := New(2)
	g := loops.Kernels()[0]
	m := machine.Eval(6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// 8 registers forces spilling, whose rounds check the context.
	if _, err := eng.CompileAll(ctx, g, m, 8); err == nil {
		t.Fatal("want cancellation error")
	}
	if _, err := eng.CompileAll(context.Background(), g, m, 8); err != nil {
		t.Fatalf("cancelled evaluation was retained: %v", err)
	}
}
