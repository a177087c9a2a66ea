package experiment

import (
	"context"
	"fmt"

	"ncdrf/internal/core"
	"ncdrf/internal/ddg"
	"ncdrf/internal/machine"
	"ncdrf/internal/perf"
	"ncdrf/internal/sweep"
)

// A per-loop, per-model compile path through Engine.Compile: the
// single-cell reference the grid-built curves are checked against.

// CompileLoop runs the staged limited-register pipeline for one loop
// under one model: spill until the allocation fits, then report the run.
func CompileLoop(ctx context.Context, eng *sweep.Engine, g *ddg.Graph, m *machine.Config, model core.Model, regs int) (perf.LoopRun, error) {
	res, err := eng.Compile(ctx, g, m, model, regs)
	if err != nil {
		return perf.LoopRun{}, fmt.Errorf("%s/%v: %w", g.LoopName, model, err)
	}
	return perf.LoopRun{
		Name:    g.LoopName,
		Trips:   g.TripsOrOne(),
		II:      res.Sched.II,
		MemOps:  res.MemOps(),
		Spilled: res.SpilledValues,
	}, nil
}

// ModelRuns compiles the whole corpus under one model with the given
// register-file size. Results are memoized on the engine; the Ideal
// model ignores the register size, so every size shares one run.
func ModelRuns(ctx context.Context, eng *sweep.Engine, corpus []*ddg.Graph, m *machine.Config, model core.Model, regs int) ([]perf.LoopRun, error) {
	if model == core.Ideal {
		regs = 0
	}
	key := eng.CorpusKey(fmt.Sprintf("model-runs/%v/%d", model, regs), corpus, m)
	v, err := eng.Memo(ctx, key, func() (any, error) {
		return modelRuns(ctx, eng, corpus, m, model, regs)
	})
	if err != nil {
		return nil, err
	}
	return v.([]perf.LoopRun), nil
}

func modelRuns(ctx context.Context, eng *sweep.Engine, corpus []*ddg.Graph, m *machine.Config, model core.Model, regs int) ([]perf.LoopRun, error) {
	out := make([]perf.LoopRun, len(corpus))
	err := eng.ForEach(ctx, len(corpus), func(i int) error {
		run, err := CompileLoop(ctx, eng, corpus[i], m, model, regs)
		if err != nil {
			return err
		}
		out[i] = run
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
