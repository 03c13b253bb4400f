package online_test

import (
	"time"

	"repro/internal/core"
	"repro/internal/online"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// iarFromScratch is the reference replanning IAR scheduler: every replan
// runs core.IAR over the entire visible prefix — O(prefix) per replan,
// O(N²/stride) per stream. online.IAR must commit a bit-identical stream
// (the differential tests enforce it), and the speedup guard holds its
// warm-start planner to a minimum advantage over this one.
type iarFromScratch struct {
	p       *profile.Profile
	opts    core.IAROptions
	stride  int
	planned int
	emitted []profile.Level
	stats   online.SchedStats
}

// newIARFromScratch returns the from-scratch reference replanner with the
// same knobs as online.NewIAR.
func newIARFromScratch(p *profile.Profile, opts core.IAROptions, stride int) *iarFromScratch {
	if stride <= 0 {
		stride = online.DefaultReplanStride
	}
	emitted := make([]profile.Level, p.NumFuncs())
	for i := range emitted {
		emitted[i] = -1
	}
	return &iarFromScratch{p: p, opts: opts, stride: stride, planned: -1, emitted: emitted}
}

// Replans returns how many times the scheduler has replanned so far.
func (s *iarFromScratch) Replans() int { return int(s.stats.Replans) }

// SchedStats implements online.StatsReporter. DirtySkips is always zero:
// this path rebuilds everything, every time.
func (s *iarFromScratch) SchedStats() online.SchedStats { return s.stats }

// Observe implements online.Scheduler.
func (s *iarFromScratch) Observe(i int, visible *trace.Trace, now int64) ([]sim.CompileEvent, error) {
	if s.planned >= 0 && visible.Len() < s.planned+s.stride {
		return nil, nil
	}
	t0 := time.Now()
	plan, err := core.IAR(visible, s.p, s.opts)
	if err != nil {
		return nil, err
	}
	s.planned = visible.Len()
	s.stats.Replans++
	var out []sim.CompileEvent
	for _, ev := range plan {
		if ev.Level > s.emitted[ev.Func] {
			s.emitted[ev.Func] = ev.Level
			out = append(out, ev)
		}
	}
	s.stats.SchedNanos += time.Since(t0).Nanoseconds()
	return out, nil
}
