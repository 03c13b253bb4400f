// Package online is the online counterpart of the paper's offline OCSP
// study: schedulers observe the call stream through a bounded lookahead
// window and irrevocably commit compile events as simulated time advances,
// the way a real JIT must. The gap to the offline schedule — the regret —
// is the price of not knowing the future.
//
// # Commitment model
//
// The engine replays the trace call by call on internal/sim's make-span
// kernel (one execution worker, W >= 1 compile workers, bubbles while
// execution waits for code): a sim.PrefixSim takes each commit with
// AppendCompileAt at the exec clock and each call as one ExecCall step, so
// the timing model is sim's own rather than a copy. Before each call i it
// shows the scheduler the visible prefix — the first min(i+window, N)
// calls, i.e. everything executed so far plus the next window-1 future
// calls — and the current simulated time. Whatever compile events the
// scheduler returns are committed immediately: each is assigned to the
// earliest-free compile worker with its arrival at the current time, and
// can never be revoked or reordered. Commitments are monotone per
// function: an event at or below the function's highest committed level is
// dropped (it could only build a version that "latest finished at or
// before t" lookups would use to downgrade later calls).
//
// With window = 0 (unbounded), the scheduler sees the whole trace before
// the first call and time is still zero, so every commitment lands exactly
// where a static sim.Run schedule would: an unbounded online run of a plan
// is bit-identical to the offline replay of that plan. That identity is the
// backbone of the package's tests.
//
// If execution reaches a call whose function has no committed compilation,
// the engine force-commits a lowest-level compile at the current time — the
// on-demand fallback every real runtime has — and counts it in
// Result.Forced.
package online

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Scheduler is an online compilation scheduler. Observe is called once
// before each call executes, with the call's index, the visible prefix of
// the trace (the scheduler must treat it as read-only and may retain
// nothing of it), and the current simulated time. The returned events are
// committed in order at the current time; returning nil commits nothing.
type Scheduler interface {
	Observe(i int, visible *trace.Trace, now int64) ([]sim.CompileEvent, error)
}

// Options configures an online run.
type Options struct {
	// Window is the lookahead: before call i the scheduler sees calls
	// [0, i+Window). 0 means unbounded — the whole trace is visible from the
	// start, reproducing the offline setting. Window >= 1 guarantees the
	// current call is always visible.
	Window int
	// Config selects the machine configuration (sim.DefaultConfig() if the
	// worker count is zero).
	Config sim.Config
	// RecordCalls captures per-call start times and code levels.
	RecordCalls bool
	// Interrupt, when non-nil, abandons the run once the channel is closed,
	// returning sim.ErrInterrupted — the same contract as sim.Options.
	Interrupt <-chan struct{}
	// Metrics, when non-nil, receives the run's online counters.
	Metrics *obs.Metrics
}

// interruptStride matches internal/sim: the execution loop polls Interrupt
// every this many calls.
const interruptStride = 1024

// Result reports an online run: the simulated execution (the same fields a
// static sim.Run yields) plus the commitment record.
type Result struct {
	// Sim is the execution result; with an unbounded window it is
	// field-for-field identical to replaying Schedule through sim.Run.
	Sim *sim.Result
	// Schedule is the committed compile sequence, in commitment order —
	// including forced on-demand compiles, excluding dropped non-upgrades.
	Schedule sim.Schedule
	// Forced counts lowest-level compiles the engine had to commit because
	// execution reached a function the scheduler never covered.
	Forced int
	// Dropped counts scheduler events skipped because the function already
	// had a commitment at that level or higher.
	Dropped int
	// Window echoes Options.Window.
	Window int
}

// Regret is the online run's make-span excess over an offline reference, in
// percent: 100 * (online - offline) / offline.
func Regret(online, offline int64) float64 {
	if offline <= 0 {
		return 0
	}
	return 100 * float64(online-offline) / float64(offline)
}

func interrupted(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// simPool recycles the simulators behind Run, so that warm arenas survive
// across runs process-wide.
var simPool = sync.Pool{New: func() any { return new(sim.PrefixSim) }}

// Run replays the trace under the online commitment model.
func Run(tr *trace.Trace, p *profile.Profile, sched Scheduler, opts Options) (*Result, error) {
	if opts.Window < 0 {
		return nil, fmt.Errorf("online: Window must be non-negative, got %d", opts.Window)
	}
	cfg := opts.Config
	if cfg.CompileWorkers == 0 {
		cfg = sim.DefaultConfig()
	}
	if cfg.CompileWorkers < 1 {
		return nil, fmt.Errorf("online: Config.CompileWorkers must be >= 1, got %d", cfg.CompileWorkers)
	}
	if sched == nil {
		return nil, fmt.Errorf("online: nil Scheduler")
	}
	if err := tr.Validate(p.NumFuncs()); err != nil {
		return nil, err
	}

	nf := p.NumFuncs()
	ps := simPool.Get().(*sim.PrefixSim)
	defer simPool.Put(ps)
	if err := ps.Rebind(p, cfg); err != nil {
		return nil, fmt.Errorf("online: %w", err)
	}
	res := &Result{
		Sim:    &sim.Result{FirstReady: make([]int64, nf)},
		Window: opts.Window,
	}
	if opts.RecordCalls {
		res.Sim.CallStarts = make([]int64, 0, tr.Len())
		res.Sim.CallLevels = make([]profile.Level, 0, tr.Len())
	}
	committed := make([]profile.Level, nf)
	for i := range committed {
		committed[i] = -1
	}

	// commit irrevocably appends one compile event arriving at the exec
	// clock. It finishes at or after the clock, so PrefixSim's history
	// check never fires.
	commit := func(ev sim.CompileEvent, now int64) error {
		rec, err := ps.AppendCompileAt(ev, now)
		if err != nil {
			return fmt.Errorf("online: %w", err)
		}
		res.Sim.Compiles = append(res.Sim.Compiles, rec)
		res.Sim.CompileBusy += rec.Done - rec.Start
		committed[ev.Func] = ev.Level
		res.Schedule = append(res.Schedule, ev)
		return nil
	}

	intr := opts.Interrupt
	n := tr.Len()
	// The visible prefix is one extendable cursor over the trace, not a fresh
	// Slice per call: the window's forward edge only moves forward, so each
	// call extends the cursor by at most Window new calls and the derived
	// indices (counts, first calls, first-call order) are maintained in O(new)
	// instead of rebuilt in O(prefix) at every replan. The scheduler contract
	// already forbids retaining the visible trace across calls, which is
	// exactly the cursor view's validity window.
	cursor := trace.NewPrefix(tr)
	for i, f := range tr.Calls {
		if intr != nil && i%interruptStride == 0 && interrupted(intr) {
			return nil, sim.ErrInterrupted
		}
		hi := n
		if opts.Window > 0 && i+opts.Window < n {
			hi = i + opts.Window
		}
		if err := cursor.Extend(hi); err != nil {
			return nil, fmt.Errorf("online: %w", err)
		}
		execT := ps.MakeSpan()
		events, err := sched.Observe(i, cursor.Trace(), execT)
		if err != nil {
			return nil, fmt.Errorf("online: scheduler at call %d: %w", i, err)
		}
		for _, ev := range events {
			if ev.Func < 0 || int(ev.Func) >= nf {
				return nil, fmt.Errorf("online: scheduler committed unknown function %d at call %d", ev.Func, i)
			}
			if ev.Level < 0 || int(ev.Level) >= p.Levels {
				return nil, fmt.Errorf("online: scheduler committed level %d outside [0,%d) at call %d", ev.Level, p.Levels, i)
			}
			if ev.Level <= committed[ev.Func] {
				res.Dropped++
				continue
			}
			if err := commit(ev, execT); err != nil {
				return nil, err
			}
		}
		if ps.FirstReady(f) < 0 {
			// On-demand fallback: nothing of f was ever committed, and the
			// executor is about to block on it forever.
			if err := commit(sim.CompileEvent{Func: f, Level: 0}, execT); err != nil {
				return nil, err
			}
			res.Forced++
		}
		start, err := ps.ExecCall(f)
		if err != nil {
			return nil, fmt.Errorf("online: %w", err)
		}
		if opts.RecordCalls {
			res.Sim.CallStarts = append(res.Sim.CallStarts, start)
			res.Sim.CallLevels = append(res.Sim.CallLevels, ps.LevelAt(f, start))
		}
	}
	res.Sim.MakeSpan = ps.MakeSpan()
	res.Sim.TotalBubble, res.Sim.BubbleCount = ps.Bubble()
	res.Sim.TotalExec = res.Sim.MakeSpan - res.Sim.TotalBubble
	res.Sim.CompileEnd = ps.CompileEnd()
	for f := range res.Sim.FirstReady {
		res.Sim.FirstReady[f] = ps.FirstReady(trace.FuncID(f))
	}
	if opts.Metrics != nil {
		opts.Metrics.OnlineRun(int64(len(res.Schedule)), int64(res.Forced))
		opts.Metrics.SimRun(res.Sim.MakeSpan)
		if sr, ok := sched.(StatsReporter); ok {
			st := sr.SchedStats()
			opts.Metrics.OnlineSched(st.Replans, st.DirtySkips, st.SchedNanos)
		}
	}
	return res, nil
}
