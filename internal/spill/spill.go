// Package spill implements the paper's "naive" spiller (section 5.4):
// when a loop's register requirement exceeds the physical file, the value
// with the longest lifetime is spilled — a store after its producer and a
// reload before its consumers — the working graph is rewritten in place,
// the loop is modulo-scheduled again and allocation is retried, until the
// loop fits. When no spillable value remains, the initiation interval is
// increased by one (the paper's first listed alternative).
//
// The sequence of rounds — the spill trajectory — depends on neither the
// register-file model nor the budget: the victim is read off the
// unswapped schedule's lifetimes and II bumps ignore the budget. Walk
// exposes that trajectory to a visitor, so one walk can answer every
// (model, budget) question about a loop; RunSeeded is the visitor that
// asks one.
package spill

import (
	"context"
	"fmt"
	"sort"

	"ncdrf/internal/ddg"
	"ncdrf/internal/lifetime"
	"ncdrf/internal/machine"
	"ncdrf/internal/sched"
)

// FitFunc decides whether a schedule fits in the given number of
// registers under some register-file model. It may return a rebalanced
// schedule (e.g. after swapping); otherwise it returns its input.
type FitFunc func(s *sched.Schedule, lts []lifetime.Lifetime, regs int) (*sched.Schedule, bool)

// Result describes the outcome of the spill loop for one loop.
type Result struct {
	// Sched is the final, fitting schedule (possibly rebalanced by the
	// fit function).
	Sched *sched.Schedule
	// Graph is the final dependence graph including spill code. When
	// nothing was spilled it is the caller's input graph itself (the
	// spill loop only clones once it has to mutate), so treat it as
	// read-only.
	Graph *ddg.Graph
	// Lifetimes are the value lifetimes of the final round's schedule.
	// They also hold for a swap-rebalanced Sched: lifetimes depend only
	// on issue cycles, which swapping preserves.
	Lifetimes []lifetime.Lifetime
	// SpilledValues is the number of values spilled.
	SpilledValues int
	// SpillStores and SpillLoads count inserted memory operations.
	SpillStores, SpillLoads int
	// IIBumps counts forced initiation-interval increases.
	IIBumps int
	// Iterations is the number of schedule/allocate rounds executed.
	Iterations int
}

// MemOps returns the final number of memory operations per iteration,
// including spill code.
func (r *Result) MemOps() int { return r.Graph.MemOps() }

// maxIterations bounds the spill walk. It converts a loop that never
// fits into an error instead of an endless walk, and it is reached in
// practice: tight budgets (8 registers on the 3- and 6-cycle machines)
// leave some loops fully spilled with MaxLive still above the budget, so
// every later round only bumps II until the cap ends the walk.
const maxIterations = 400

// Scheduler abstracts sched.Run so the spill loop can be driven through
// a shared schedule cache (internal/sweep). Implementations must return
// a schedule that stays valid when the caller mutates g afterwards, as
// the spill loop rewrites its working graph between rounds.
type Scheduler interface {
	Schedule(g *ddg.Graph, m *machine.Config, opts sched.Options) (*sched.Schedule, error)
}

// Seed carries precomputed base-stage artifacts (see internal/pipeline)
// into the spill loop: the schedule of the unmodified input graph and its
// lifetimes. A seeded run consumes them as its first round instead of
// re-entering the scheduler for work already done.
type Seed struct {
	Sched     *sched.Schedule
	Lifetimes []lifetime.Lifetime
}

// Run executes the spill loop on g. regs <= 0 means an unlimited
// register file: the first schedule is returned untouched.
func Run(g *ddg.Graph, m *machine.Config, regs int, fit FitFunc, opts sched.Options) (*Result, error) {
	//lint:allow ctxflow -- Run is the documented ctx-free wrapper; RunSeeded is the threaded form
	return RunSeeded(context.Background(), nil, g, m, regs, fit, opts, nil)
}

// RunSeeded is the full-control spill loop: scheduling requests route
// through sr (nil = sched.Run), and a non-nil seed supplies the first
// round's schedule and lifetimes — the caller guarantees they were
// computed from exactly (g, m, opts). The input graph is never mutated:
// the loop works on g directly until it must insert spill code, and only
// then switches to a private clone. ctx is checked between rounds, so a
// cancelled context stops a long spill search promptly.
//
// It is Walk with a visitor holding one pending question: does this
// round fit in regs registers?
func RunSeeded(ctx context.Context, sr Scheduler, g *ddg.Graph, m *machine.Config, regs int, fit FitFunc, opts sched.Options, seed *Seed) (*Result, error) {
	var res *Result
	_, err := Walk(ctx, sr, g, m, opts, seed, func(r *Result) bool {
		if regs <= 0 {
			res = r
			return true
		}
		if final, ok := fit(r.Sched, r.Lifetimes, regs); ok {
			res = r
			res.Sched = final
			return true
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	if res == nil {
		return nil, NotConverged(g, regs)
	}
	return res, nil
}

// NotConverged is the error of a question a full walk never answered:
// the loop did not fit in regs registers within the round cap.
func NotConverged(g *ddg.Graph, regs int) error {
	return fmt.Errorf("spill: loop %s did not converge in %d rounds (regs=%d)", g.LoopName, maxIterations, regs)
}

// Walk runs the spill trajectory of g on m and calls visit once per
// round with the walk's state: the round's schedule and lifetimes, the
// working graph they were computed from, and the counters so far
// (Iterations is the 1-based round number). A visitor that answers a
// question at this round reads its result off that state; returning
// true stops the walk. The state is a fresh *Result per round, but its
// Graph is the working graph, which the walk rewrites in place before
// the next round: a visitor that lets the walk go on and keeps a result
// must keep a clone of it — and a schedule re-pointed at that clone,
// since a directly scheduled round (sr == nil) is a schedule of the
// working graph itself.
//
// sr, seed and ctx mean what they mean for RunSeeded. Walk returns the
// number of rounds walked; a nil error with the visitor never having
// stopped the walk means the round cap ran out.
func Walk(ctx context.Context, sr Scheduler, g *ddg.Graph, m *machine.Config, opts sched.Options, seed *Seed, visit func(*Result) bool) (int, error) {
	schedule := sched.Run
	if sr != nil {
		schedule = sr.Schedule
	}
	work, cloned := g, false
	defer func() {
		// A clone dies with this call; let a digest-memoizing scheduler
		// drop its per-graph bookkeeping instead of pinning it forever.
		if cloned {
			if f, ok := sr.(interface{ Forget(*ddg.Graph) }); ok {
				f.Forget(work)
			}
		}
	}()
	var state Result
	unspillable := make(map[int]bool) // node IDs whose values may not be spilled again
	slot := 0

	for iter := 0; iter < maxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return iter, fmt.Errorf("spill: %s: %w", g.LoopName, err)
		}
		var s *sched.Schedule
		var lts []lifetime.Lifetime
		if iter == 0 && seed != nil {
			s, lts = seed.Sched, seed.Lifetimes
		} else {
			var err error
			s, err = schedule(work, m, opts)
			if err != nil {
				return iter + 1, fmt.Errorf("spill: %w", err)
			}
			lts = lifetime.Compute(s)
		}
		state.Sched, state.Graph, state.Lifetimes, state.Iterations = s, work, lts, iter+1
		round := state
		if visit(&round) {
			return iter + 1, nil
		}
		victim, ok := pickVictim(work, lts, unspillable)
		if !ok {
			// Everything is spilled and it still does not fit: relax
			// the schedule by forcing a larger II.
			state.IIBumps++
			if opts.MinII <= s.II {
				opts.MinII = s.II + 1
			} else {
				opts.MinII++
			}
			continue
		}
		if !cloned {
			work, cloned = g.Clone(), true
		}
		stores, loads := insertSpill(work, victim, slot, unspillable)
		slot++
		state.SpilledValues++
		state.SpillStores += stores
		state.SpillLoads += loads
	}
	return maxIterations, nil
}

// pickVictim selects the spillable value with the longest lifetime, as
// the paper does ("the value with the highest lifetime, which in general
// will free a higher number of registers"). Ties break on the smaller
// node ID for determinism.
func pickVictim(g *ddg.Graph, lts []lifetime.Lifetime, unspillable map[int]bool) (int, bool) {
	best, bestLen := -1, 0
	for _, l := range lts {
		if unspillable[l.Node] {
			continue
		}
		if !hasFlowConsumer(g, l.Node) {
			continue // nothing to reload; spilling gains nothing
		}
		if l.Len() > bestLen {
			best, bestLen = l.Node, l.Len()
		}
	}
	return best, best >= 0
}

func hasFlowConsumer(g *ddg.Graph, node int) bool {
	for _, e := range g.OutEdges(node) {
		if e.Kind == ddg.Flow {
			return true
		}
	}
	return false
}

// insertSpill rewrites the graph in place: it appends a spill store plus
// one reload per distinct consumption distance, and redirects the
// producer's flow out-edges through the reloads. Each consumer edge is
// replaced in place — same position in the edge list — so operand order
// (which matters for subtraction and division semantics in the
// simulator) is preserved. The graph strictly grows (one store, >=1
// load, one flow edge and one mem edge per load), which is what keeps
// the sweep cache's per-graph digest memos sound across rounds; the node
// and edge append order is byte-identical to the full rebuild this
// replaced (pinned by TestInsertSpillMatchesRebuild), so cached
// schedule/eval keys do not move.
func insertSpill(g *ddg.Graph, producer, slot int, unspillable map[int]bool) (stores, loads int) {
	// Distinct consumption distances of the producer's value.
	distSet := map[int]bool{}
	for _, e := range g.OutEdges(producer) {
		if e.Kind == ddg.Flow {
			distSet[e.Distance] = true
		}
	}
	dists := make([]int, 0, len(distSet))
	for d := range distSet {
		dists = append(dists, d)
	}
	sort.Ints(dists)

	// Spill store fed by the producer, then one reload per distance.
	st := g.AddNode(ddg.STORE, fmt.Sprintf("sp%d.st", slot))
	g.Node(st).Sym = fmt.Sprintf("spill%d", slot)
	g.Node(st).SpillSlot = slot
	stores = 1
	loadOf := map[int]int{}
	for _, d := range dists {
		ld := g.AddNode(ddg.LOAD, fmt.Sprintf("sp%d.ld%d", slot, d))
		g.Node(ld).Sym = fmt.Sprintf("spill%d", slot)
		g.Node(ld).SpillSlot = slot
		loadOf[d] = ld
		unspillable[ld] = true
		loads++
	}
	g.RewriteEdges(func(edges []ddg.Edge) []ddg.Edge {
		// Substitute consumer edges in place: the consumer now reads the
		// reload's value at distance 0.
		for i, e := range edges {
			if e.Kind == ddg.Flow && e.From == producer {
				edges[i] = ddg.Edge{From: loadOf[e.Distance], To: e.To, Kind: ddg.Flow}
			}
		}
		// New dependences: producer feeds the store; each reload of
		// iteration i reads what the store wrote d iterations earlier.
		edges = append(edges, ddg.Edge{From: producer, To: st, Kind: ddg.Flow})
		for _, d := range dists {
			edges = append(edges, ddg.Edge{From: st, To: loadOf[d], Kind: ddg.Mem, Distance: d})
		}
		return edges
	})
	unspillable[producer] = true
	return stores, loads
}
