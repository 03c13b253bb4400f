package sim

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/trace"
)

// refRun is the reference static simulator the make-span kernel is diffed
// against: the straightforward per-call loop — start at the later of the
// exec clock and the function's first finished version, run at the latest
// version finished by then, record start and level — with no settled table
// and no tail loop. It keeps every validation and error path of Run.
func refRun(tr *trace.Trace, p *profile.Profile, sched Schedule, cfg Config, opts Options) (*Result, error) {
	if cfg.CompileWorkers < 1 {
		return nil, fmt.Errorf("sim: Config.CompileWorkers must be >= 1, got %d", cfg.CompileWorkers)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := sched.Validate(tr, p); err != nil {
		return nil, err
	}
	res := &Result{
		Compiles:   make([]CompileRecord, 0, len(sched)),
		FirstReady: make([]int64, p.NumFuncs()),
	}
	versions := make([]versionList, p.NumFuncs())
	pool := newWorkerPool(cfg.CompileWorkers)
	rec := opts.Recorder
	for si, ev := range sched {
		w, start, done := pool.assign(0, p.CompileTime(ev.Func, ev.Level))
		res.Compiles = append(res.Compiles, CompileRecord{Event: ev, Start: start, Done: done, Worker: w})
		rec.CompileStart(start, int32(ev.Func), int32(ev.Level), int32(w), int32(si))
		rec.CompileEnd(done, int32(ev.Func), int32(ev.Level), int32(w), int32(si))
		versions[ev.Func].insert(done, ev.Level)
		res.CompileBusy += done - start
		if done > res.CompileEnd {
			res.CompileEnd = done
		}
	}
	for f := range versions {
		res.FirstReady[f] = versions[f].firstReady()
	}
	if err := refCalls(tr, p, versions, res, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// refCalls executes the trace against prepared version lists, filling the
// execution-side fields of res. A call reached before any version of its
// function exists yields a *ErrNoReadyVersion.
func refCalls(tr *trace.Trace, p *profile.Profile, versions []versionList, res *Result, opts Options) error {
	if opts.RecordCalls {
		res.CallStarts = make([]int64, 0, tr.Len())
		res.CallLevels = make([]profile.Level, 0, tr.Len())
	}
	rec := opts.Recorder
	intr := opts.Interrupt
	var execT int64
	for i, f := range tr.Calls {
		if intr != nil && i%interruptStride == 0 && interrupted(intr) {
			return ErrInterrupted
		}
		start := execT
		if ready := versions[f].firstReady(); ready > start {
			start = ready
		}
		if start > execT {
			res.TotalBubble += start - execT
			res.BubbleCount++
			rec.Stall(execT, start-execT, int32(f), int32(i))
		}
		level, ok := versions[f].latestAt(start)
		if !ok {
			return &ErrNoReadyVersion{Func: f, Time: start}
		}
		dur := p.ExecTime(f, level)
		if opts.ExecVariation > 0 {
			dur = scaleDuration(dur, CallFactor(opts.ExecVariationSeed, i, opts.ExecVariation))
		}
		if opts.RecordCalls {
			res.CallStarts = append(res.CallStarts, start)
			res.CallLevels = append(res.CallLevels, level)
		}
		rec.ExecStart(start, int32(f), int32(level), int32(i))
		rec.ExecEnd(start+dur, int32(f), int32(level), int32(i))
		res.TotalExec += dur
		execT = start + dur
	}
	res.MakeSpan = execT
	return nil
}
