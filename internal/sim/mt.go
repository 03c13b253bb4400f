package sim

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// Multi-threaded execution. The paper's model — and RunPolicy — drive one
// execution worker, flattening even multithreaded benchmarks into a single
// call sequence (§6.1). RunPolicyMT lifts that restriction: each thread
// executes its own call sequence on its own core while all threads share
// the code cache, the policy (hotness is global), and the compilation
// workers. The §7 queue-discipline question only becomes substantive here:
// with several execution threads the compile queue has several request
// sources and genuinely backs up.

// ThreadResult reports one execution thread's outcome.
type ThreadResult struct {
	// Finish is when the thread's last call completed.
	Finish int64
	// Exec and Bubble split the thread's timeline into running and waiting.
	Exec, Bubble int64
	// Calls is the thread's call count.
	Calls int
}

// mtThread is one execution thread's engine state.
type mtThread struct {
	calls      []trace.FuncID
	idx        int
	clock      int64 // when the thread can issue its next call
	issued     bool  // the current call's requests have been emitted
	nextSample int64
	res        ThreadResult
}

// RunPolicyMT drives per-thread call sequences through an online policy on
// len(threads) execution cores and cfg.CompileWorkers compilation cores.
// Policy state (invocation counts, sampler hotness) is shared across
// threads, as it is in a JVM. Each thread carries its own sampling clock.
//
// The returned Result aggregates across threads: MakeSpan is the latest
// thread finish, TotalExec/TotalBubble are summed, and Compiles lists the
// shared compilation stream. Per-thread detail comes second.
func RunPolicyMT(threads []*trace.Trace, p *profile.Profile, pol Policy, cfg Config, opts Options) (*Result, []ThreadResult, error) {
	if len(threads) == 0 {
		return nil, nil, fmt.Errorf("sim: RunPolicyMT needs at least one thread")
	}
	if cfg.CompileWorkers < 1 {
		return nil, nil, fmt.Errorf("sim: Config.CompileWorkers must be >= 1, got %d", cfg.CompileWorkers)
	}
	if cfg.Discipline != FIFO && cfg.Discipline != FirstCompileFirst {
		return nil, nil, fmt.Errorf("sim: unknown queue discipline %d", cfg.Discipline)
	}
	if pol == nil {
		return nil, nil, fmt.Errorf("sim: RunPolicyMT needs a non-nil policy")
	}
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	if opts.RecordCalls {
		return nil, nil, fmt.Errorf("sim: RecordCalls is not supported for multi-threaded runs")
	}
	if opts.Recorder != nil {
		// Event recording assumes a single execution lane; the MT engine's
		// interleaved threads would produce overlapping exec spans.
		return nil, nil, fmt.Errorf("sim: Options.Recorder is not supported for multi-threaded runs")
	}
	e, err := acquireEngine(p, cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	defer e.release()
	nf := e.t.nf
	period := pol.SamplePeriod()
	if period < 0 {
		return nil, nil, fmt.Errorf("sim: policy sample period must be >= 0, got %d", period)
	}
	limit := pol.BeforeCallLimit()

	ts := make([]*mtThread, len(threads))
	for i, tr := range threads {
		if err := tr.Validate(nf); err != nil {
			return nil, nil, err
		}
		ts[i] = &mtThread{calls: tr.Calls, nextSample: period}
	}

	const inf = int64(1)<<62 - 1
	for {
		// Candidate events: the next compile assignment and each thread's
		// next step (issue its call's requests, or start executing once a
		// version is ready). Assignments commit first on ties: they unblock.
		na := e.nextAt
		bestThread := -1
		bestTime := inf
		bestIsIssue := false
		for i, t := range ts {
			if t.idx >= len(t.calls) {
				continue
			}
			f := t.calls[t.idx]
			switch {
			case !t.issued:
				if t.clock < bestTime {
					bestTime, bestThread, bestIsIssue = t.clock, i, true
				}
			case e.c.tab[f].ready >= 0:
				if start := max(t.clock, e.c.tab[f].ready); start < bestTime {
					bestTime, bestThread, bestIsIssue = start, i, false
				}
			}
			// Threads whose function is requested but unassigned wait for
			// an assignment event.
		}

		if na != noAssign && (bestThread < 0 || na <= bestTime) {
			e.drainOne()
			continue
		}
		if bestThread < 0 {
			break // every thread finished (blocked threads imply pending work)
		}
		t := ts[bestThread]
		f := t.calls[t.idx]
		if bestIsIssue {
			fr := &e.fns[f]
			if fr.calls < limit {
				fr.calls++
				for _, r := range pol.BeforeCall(f, fr.calls, t.clock) {
					if err := e.enqueue(r.Func, r.Level, t.clock); err != nil {
						return nil, nil, err
					}
				}
			}
			if fr.max < 0 {
				if err := e.enqueue(f, pol.FirstCall(f, t.clock), t.clock); err != nil {
					return nil, nil, err
				}
			}
			t.issued = true
			continue
		}

		// Execute the call.
		start := bestTime
		if start > t.clock {
			t.res.Bubble += start - t.clock
		}
		e.drainArrived(start)
		_, dur, err := e.version(f, start)
		if err != nil {
			return nil, nil, err
		}
		if opts.ExecVariation > 0 {
			// Per-call factors key on a global, order-independent index:
			// thread id mixed with the thread-local call index.
			dur = scaleDuration(dur, CallFactor(opts.ExecVariationSeed+int64(bestThread)*1_000_003, t.idx, opts.ExecVariation))
		}
		end := start + dur
		if period > 0 {
			for t.nextSample < start {
				t.nextSample += period
			}
			for t.nextSample < end {
				for _, r := range pol.Sample(f, t.nextSample) {
					if err := e.enqueue(r.Func, r.Level, t.nextSample); err != nil {
						return nil, nil, err
					}
				}
				t.nextSample += period
			}
		}
		t.res.Exec += dur
		t.res.Calls++
		t.res.Finish = end
		t.clock = end
		t.idx++
		t.issued = false
	}

	res := e.result()
	perThread := make([]ThreadResult, len(ts))
	for i, t := range ts {
		perThread[i] = t.res
		res.TotalExec += t.res.Exec
		res.TotalBubble += t.res.Bubble
		if t.res.Finish > res.MakeSpan {
			res.MakeSpan = t.res.Finish
		}
	}
	return res, perThread, nil
}
