package core

import (
	"ncdrf/internal/lifetime"
	"ncdrf/internal/regalloc"
	"ncdrf/internal/sched"
)

// Fit returns a fit predicate for the model, with the signature expected
// by the spill package: it reports whether the schedule's values can be
// allocated in regs registers (per subfile, for the dual organizations)
// and returns the schedule actually used (rebalanced for Swapped).
func Fit(model Model) func(s *sched.Schedule, lts []lifetime.Lifetime, regs int) (*sched.Schedule, bool) {
	if model < Ideal || model > Swapped {
		panic("core: Fit on unknown model")
	}
	return func(s *sched.Schedule, lts []lifetime.Lifetime, regs int) (*sched.Schedule, bool) {
		return NewProbe(s, lts).Fits(model, regs)
	}
}

// Probe answers fit questions of every model and budget about one
// schedule. The budget-independent artifacts — the schedule's
// classification, and for Swapped the rebalanced schedule and its
// classification — are computed on first use and shared by every later
// question, so one spill round can test a whole (model × budget) grid
// for the cost of one Classify and at most one Swap.
type Probe struct {
	s       *sched.Schedule
	lts     []lifetime.Lifetime
	cls     *Classification
	swapped *sched.Schedule
	swCls   *Classification
}

// NewProbe returns a probe over schedule s and its lifetimes lts.
func NewProbe(s *sched.Schedule, lts []lifetime.Lifetime) *Probe {
	return &Probe{s: s, lts: lts}
}

// Fits reports whether the probed schedule fits in regs registers (per
// subfile for the dual organizations) under model, and returns the
// schedule that fits: the probed one, or for Swapped the rebalanced one
// when only that fits. Ideal fits any budget; the cheap unswapped
// partition is tried before Swapped pays for the swap pass.
func (p *Probe) Fits(model Model, regs int) (*sched.Schedule, bool) {
	switch model {
	case Ideal:
		return p.s, true
	case Unified:
		return p.s, regalloc.FitsIn(p.lts, p.s.II, regs)
	case Partitioned:
		return p.s, FitsDual(p.classified(), regs)
	case Swapped:
		if FitsDual(p.classified(), regs) {
			return p.s, true
		}
		if p.swapped == nil {
			p.swapped, _ = Swap(p.s, SwapOptions{})
			p.swCls = Classify(p.swapped, p.lts)
		}
		return p.swapped, FitsDual(p.swCls, regs)
	}
	panic("core: Fits on unknown model")
}

func (p *Probe) classified() *Classification {
	if p.cls == nil {
		p.cls = Classify(p.s, p.lts)
	}
	return p.cls
}
