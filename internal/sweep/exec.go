package sweep

import (
	"context"
	"sync"

	"ncdrf/internal/pipeline"
)

// This file is the sweep executor: the base-major plan the engine runs
// grids with. The unit list is partitioned by (loop, machine) (see
// Group) and each group is one pool item: its worker requests the
// group's shared pipeline.Base once, then answers every (model, regs)
// cell of the group with Cache.EvaluateCells — one spill walk for all
// the cells the eval tiers miss. A reorder buffer keyed by the unit's
// original index keeps the emitted stream byte-identical to the
// plan-order stream, so shard files, `ncdrf merge` and PlanDigest
// compatibility are unaffected by the execution shape.

// Sweep plans the grid and compiles every unit on the worker pool,
// calling emit once per unit. Emit calls are serialized and follow plan
// order — results are reordered as workers finish, so the output stream
// is deterministic and shard outputs merge byte-identically with an
// unsharded run. Per-unit compile failures are reported inside the
// Result, not as an error; Sweep's own error is non-nil when ctx is
// cancelled (in which case not-yet-emittable buffered results are
// discarded with the rest of the run) or when the grid has an empty
// axis and could only emit nothing.
func (e *Engine) Sweep(ctx context.Context, grid Grid, emit func(Result)) error {
	if err := grid.Validate(); err != nil {
		return err
	}
	return e.SweepUnits(ctx, grid, grid.Plan(), emit)
}

// SweepUnits is Sweep over an explicit unit list — a whole plan or one
// Shard of it. Units index into grid's Corpus and Machines; emit calls
// are serialized and follow the order of units.
//
// Execution is base-major: one pool item per GroupUnits group, which
// requests the group's base once and walks its spill trajectory once.
// Because plan order interleaves a group's units across the whole
// (model × regs) span, the reorder buffer can hold up to roughly a
// plan's worth of finished rows in the worst case — rows are small
// value structs, so a dense corpus-wide curve stays in the tens of
// megabytes.
func (e *Engine) SweepUnits(ctx context.Context, grid Grid, units []Unit, emit func(Result)) error {
	return e.SweepUnitsObserved(ctx, grid, units, emit, nil)
}

// SweepUnitsObserved is SweepUnits with a per-unit completion hook,
// called (concurrently) as each unit finishes computing — possibly long
// before its row is emittable, since group-major completion order runs
// ahead of plan-order emission. Progress reporters hang off this hook;
// counting emitted rows instead would underreport by the reorder
// buffer's depth. done may be nil.
func (e *Engine) SweepUnitsObserved(ctx context.Context, grid Grid, units []Unit, emit func(Result), done func()) error {
	groups := GroupUnits(units)
	out := newReorder(emit)
	return e.ForEach(ctx, len(groups), func(gi int) error {
		gr := groups[gi]
		b, err := e.Base(ctx, grid.Corpus[gr.Loop], grid.Machines[gr.Machine])
		var res []*pipeline.ModelResult
		var errs []error
		if err == nil {
			cells := make([]pipeline.Cell, len(gr.Units))
			for j, ui := range gr.Units {
				cells[j] = pipeline.Cell{Model: units[ui].Model, Regs: units[ui].Regs}
			}
			res, errs = e.cache.EvaluateCells(ctx, b, cells)
		}
		for j, ui := range gr.Units {
			r := rowFor(grid, units[ui])
			cellErr := err
			if cellErr == nil {
				cellErr = errs[j]
			}
			if cellErr != nil {
				// Cancellation is the sweep's error, not the unit's: don't
				// emit rows a consumer could mistake for compile failures.
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
				r.Error = cellErr.Error()
			} else {
				r.Fill(res[j])
			}
			e.rowsComputed.Add(1)
			if done != nil {
				done()
			}
			out.put(ui, r)
		}
		return nil
	})
}

// rowFor starts the result row of one unit with its cell identity.
func rowFor(grid Grid, u Unit) Result {
	g, m := grid.Corpus[u.Loop], grid.Machines[u.Machine]
	return Result{
		Loop:    g.LoopName,
		Machine: m.Name(),
		Model:   u.Model.String(),
		Regs:    u.Regs,
		Trips:   g.TripsOrOne(),
	}
}

// reorder serializes out-of-order results back into index order: put
// buffers each finished row under its original index and releases the
// longest emittable prefix. Emit calls happen under the lock, so they
// are serialized exactly like the pre-buffer contract promised.
type reorder struct {
	mu      sync.Mutex
	pending map[int]Result
	next    int
	emit    func(Result)
}

func newReorder(emit func(Result)) *reorder {
	return &reorder{pending: map[int]Result{}, emit: emit}
}

func (o *reorder) put(i int, r Result) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.pending[i] = r
	for {
		ready, ok := o.pending[o.next]
		if !ok {
			return
		}
		delete(o.pending, o.next)
		o.next++
		o.emit(ready)
	}
}

// Rows runs the grid and collects the emitted stream, in plan order —
// the convenience form consumers that aggregate (rather than stream)
// use, e.g. the register-sensitivity curve builder.
func (e *Engine) Rows(ctx context.Context, grid Grid) ([]Result, error) {
	var out []Result
	if err := e.Sweep(ctx, grid, func(r Result) { out = append(out, r) }); err != nil {
		return nil, err
	}
	return out, nil
}
