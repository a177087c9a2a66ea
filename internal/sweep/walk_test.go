package sweep

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/loopgen"
	"ncdrf/internal/loops"
	"ncdrf/internal/machine"
	"ncdrf/internal/pipeline"
	"ncdrf/internal/regalloc"
	"ncdrf/internal/sched"
	"ncdrf/internal/spill"
)

// refFit is the per-model fit predicate written out case by case, as
// core.Fit was before core.Probe shared classification and swapping
// across the cells of a round: the reference side of the differential
// test below does not go through the code under test.
func refFit(model core.Model) spill.FitFunc {
	dual := func(s *sched.Schedule, lts []lifetime.Lifetime, regs int) bool {
		return core.FitsDual(core.Classify(s, lts), regs)
	}
	return func(s *sched.Schedule, lts []lifetime.Lifetime, regs int) (*sched.Schedule, bool) {
		switch model {
		case core.Unified:
			return s, regalloc.FitsIn(lts, s.II, regs)
		case core.Partitioned:
			return s, dual(s, lts, regs)
		case core.Swapped:
			if dual(s, lts, regs) {
				return s, true
			}
			swapped, _ := core.Swap(s, core.SwapOptions{})
			return swapped, dual(swapped, lts, regs)
		}
		return s, true
	}
}

// walkCorpus is the kernels corpus plus a seeded synthetic sample.
func walkCorpus(synthetic int) []*ddg.Graph {
	p := loopgen.Defaults()
	p.Loops, p.Seed = synthetic, 4242
	return append(loops.Kernels(), loopgen.Generate(p)...)
}

// encodeResult renders a ModelResult's model, spill counters and final
// schedule (II, issue cycles, unit bindings — the swapped ones for a
// rebalanced Swapped cell) with its embedded graph and spill-slot marks,
// followed by the encoding of the result graph itself.
func encodeResult(t *testing.T, r *pipeline.ModelResult) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pipeline.EncodeModelResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	buf.Write(appendEncoding(nil, r.Graph))
	return buf.String()
}

// TestGroupWalkMatchesPerCellRunSeeded is the differential test of the
// group executor: one spill walk per (loop, machine) group answering
// every (model, regs) cell must give each cell exactly what a walk of
// its own gives — spill.RunSeeded from the same base with the
// case-by-case fit predicate, its rounds scheduled through a cache as
// the per-cell executor schedules them. Kernels plus a synthetic sample
// × both machines × all models × 4:128:4 covers fits at the base, deep
// spilling, swap-only fits and cells that never converge; the plan runs
// as three shards, which split groups, so partial groups walk too. Rows,
// error text and every field of each ModelResult must agree. Run under
// -race in CI, it also exercises the group executor's flight claims.
func TestGroupWalkMatchesPerCellRunSeeded(t *testing.T) {
	synthetic := 8
	if testing.Short() {
		synthetic = 2
	}
	var axis []int
	for r := 4; r <= 128; r += 4 {
		axis = append(axis, r)
	}
	grid := Grid{
		Corpus:   walkCorpus(synthetic),
		Machines: []*machine.Config{machine.Eval(3), machine.Eval(6)},
		Models:   core.Models[:],
		Regs:     axis,
	}
	units := grid.Plan()
	ctx := context.Background()

	eng := New(4)
	var rows []Result
	for i := 1; i <= 3; i++ {
		shard, err := ShardOf(units, i, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.SweepUnits(ctx, grid, shard, func(r Result) { rows = append(rows, r) }); err != nil {
			t.Fatal(err)
		}
	}
	if len(rows) != len(units) {
		t.Fatalf("emitted %d rows for %d units", len(rows), len(units))
	}

	// The per-cell reference runs on the pool too; cells sharing a
	// (loop, machine) share the reference cache's base and spill rounds.
	ref := NewCache()
	type refCell struct {
		res *pipeline.ModelResult
		err error
	}
	want := make([]refCell, len(units))
	err := ForEach(ctx, len(units), 0, func(k int) error {
		u := units[k]
		b, err := ref.Base(ctx, grid.Corpus[u.Loop], grid.Machines[u.Machine], sched.Options{})
		if err != nil {
			return err
		}
		regs := u.Regs
		if u.Model == core.Ideal {
			regs = 0
		}
		r, err := spill.RunSeeded(ctx, ref, b.Graph, b.Machine, regs, refFit(u.Model), b.Opts,
			&spill.Seed{Sched: b.Sched, Lifetimes: b.Lifetimes})
		if err != nil {
			want[k].err = err
			return nil
		}
		want[k].res = &pipeline.ModelResult{
			Model: u.Model, Sched: r.Sched, Graph: r.Graph, Lifetimes: r.Lifetimes,
			SpilledValues: r.SpilledValues, SpillStores: r.SpillStores, SpillLoads: r.SpillLoads,
			IIBumps: r.IIBumps, Iterations: r.Iterations,
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	nonconv := 0
	for k, u := range units {
		g, m := grid.Corpus[u.Loop], grid.Machines[u.Machine]
		wantRes, werr := want[k].res, want[k].err
		wantRow := rowFor(grid, u)
		if werr != nil {
			wantRow.Error = werr.Error()
			nonconv++
		} else {
			wantRow.Fill(wantRes)
		}
		if rows[k] != wantRow {
			t.Fatalf("cell %d: group row\n%+v\nper-cell row\n%+v", k, rows[k], wantRow)
		}

		// The group walk's result is the engine's cached eval.
		gb, err := eng.Base(ctx, g, m)
		if err != nil {
			t.Fatal(err)
		}
		got, gerr := eng.EvaluateBase(ctx, gb, u.Model, u.Regs)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("cell %d (%s/%s/%v/%d): group error %v, per-cell error %v", k, g.LoopName, m.Name(), u.Model, u.Regs, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if gs, ws := encodeResult(t, got), encodeResult(t, wantRes); gs != ws {
			t.Fatalf("cell %d (%s/%s/%v/%d): results differ\ngroup:\n%s\nper-cell:\n%s", k, g.LoopName, m.Name(), u.Model, u.Regs, gs, ws)
		}
		if !reflect.DeepEqual(got.Lifetimes, wantRes.Lifetimes) {
			t.Fatalf("cell %d: lifetimes differ", k)
		}
		if got.Sched.Graph.NumNodes() != len(got.Sched.Start) || got.Graph.NumNodes() != len(got.Sched.Start) {
			t.Fatalf("cell %d: result graph does not match its schedule", k)
		}
	}
	if nonconv == 0 && !testing.Short() {
		t.Fatal("no cell failed to converge: the axis no longer covers the round cap")
	}
}

// TestSpillCountersPinWalks pins the spill trailer counters on the
// kernels corpus: a fresh engine sweeping a whole plan walks once per
// (loop, machine) group, and each walk lasts until the last of its cells
// is answered — so the rounds counter is the sum over groups of the
// largest row round count, a cell that never converges counting the
// full 400-round cap.
func TestSpillCountersPinWalks(t *testing.T) {
	grid := Grid{
		Corpus:   loops.Kernels(),
		Machines: []*machine.Config{machine.Eval(3), machine.Eval(6)},
		Models:   core.Models[:],
		Regs:     []int{8, 16, 32, 64, 128},
	}
	eng := New(0)
	longest := map[[2]string]int{}
	capped := 0
	err := eng.Sweep(context.Background(), grid, func(r Result) {
		rounds := r.Rounds
		if r.Error != "" {
			if !strings.Contains(r.Error, "did not converge in 400 rounds") {
				t.Errorf("unexpected cell error: %s", r.Error)
			}
			rounds = 400
			capped++
		}
		k := [2]string{r.Loop, r.Machine}
		longest[k] = max(longest[k], rounds)
	})
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, r := range longest {
		want += uint64(r)
	}
	st := eng.StageStats()
	if groups := len(grid.Groups()); st.SpillWalks != uint64(groups) {
		t.Fatalf("%d spill walks, want one per group = %d", st.SpillWalks, groups)
	}
	if st.SpillRounds != want {
		t.Fatalf("%d spill rounds, want the sum of per-group maxima = %d", st.SpillRounds, want)
	}
	if capped == 0 {
		t.Fatal("no cell hit the round cap: the test no longer covers capped walks")
	}
	if !strings.Contains(st.String(), "stage spill: ") {
		t.Fatalf("trailer lacks the spill line:\n%s", st)
	}
}
