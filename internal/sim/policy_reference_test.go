package sim

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
)

// refRunPolicy and refRunPolicyMT are the reference online engines the
// policy engine is diffed against: a scan queue (every assignment rescans
// the pending slice for the highest-priority request and removes it with a
// memmove), per-function version lists read with firstReady/latestAt on
// every call, and a drainArrived that recomputes the next commit time on
// every call. They keep every validation and error path of RunPolicy and
// RunPolicyMT; profile validation is the kernel's tables.load, as there.

// firstReady is the function's first finish time, or -1 with no version.
func (v *versionList) firstReady() int64 {
	if len(v.vs) == 0 {
		return -1
	}
	return v.vs[0].done
}

// refQueue serves pending requests to workers under a discipline, scanning
// the pending slice for each assignment.
type refQueue struct {
	discipline QueueDiscipline
	pending    []pendingReq
	pool       *workerPool
}

func (q *refQueue) push(r pendingReq) { q.pending = append(q.pending, r) }

// next picks the index of the request a worker idle at time t should take:
// among requests with arrival <= t, the highest-priority one; if none has
// arrived yet, the earliest-arriving. Returns -1 if the queue is empty.
func (q *refQueue) next(t int64) int {
	if len(q.pending) == 0 {
		return -1
	}
	best := -1
	for i, r := range q.pending {
		if r.arrival > t {
			continue
		}
		if best < 0 || q.higherPriority(r, q.pending[best]) {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	for i, r := range q.pending {
		if best < 0 || r.arrival < q.pending[best].arrival ||
			(r.arrival == q.pending[best].arrival && q.higherPriority(r, q.pending[best])) {
			best = i
		}
	}
	return best
}

// higherPriority reports whether a should be served before b when both are
// available.
func (q *refQueue) higherPriority(a, b pendingReq) bool {
	if q.discipline == FirstCompileFirst && a.first != b.first {
		return a.first
	}
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	return a.seq < b.seq
}

func (q *refQueue) remove(i int) pendingReq {
	r := q.pending[i]
	q.pending = append(q.pending[:i], q.pending[i+1:]...)
	return r
}

// refEngine couples the scan queue to the result bookkeeping.
type refEngine struct {
	p        *profile.Profile
	queue    refQueue
	versions []versionList
	res      *Result
	rec      *obs.Recorder
}

func (e *refEngine) nextAssignTime() (int64, bool) {
	if len(e.queue.pending) == 0 {
		return 0, false
	}
	_, free := e.queue.pool.earliest()
	i := e.queue.next(free)
	if i < 0 {
		return 0, false
	}
	return max(free, e.queue.pending[i].arrival), true
}

func (e *refEngine) drainOne() bool {
	w, free := e.queue.pool.earliest()
	i := e.queue.next(free)
	if i < 0 {
		return false
	}
	r := e.queue.remove(i)
	start := max(free, r.arrival)
	done := start + e.p.CompileTime(r.f, r.level)
	e.queue.pool.set(w, done)
	e.res.Compiles = append(e.res.Compiles, CompileRecord{
		Event: CompileEvent{Func: r.f, Level: r.level}, Start: start, Done: done, Worker: w,
	})
	e.rec.CompileStart(start, int32(r.f), int32(r.level), int32(w), int32(len(e.res.Compiles)-1))
	e.rec.CompileEnd(done, int32(r.f), int32(r.level), int32(w), int32(len(e.res.Compiles)-1))
	e.versions[r.f].insert(done, r.level)
	e.res.CompileBusy += done - start
	if done > e.res.CompileEnd {
		e.res.CompileEnd = done
	}
	return true
}

func (e *refEngine) drainUntilReady(f trace.FuncID, now int64) error {
	for e.versions[f].firstReady() < 0 {
		if !e.drainOne() {
			return &DeadlockError{Func: f, Time: now, Pending: refRequests(e.queue.pending)}
		}
	}
	return nil
}

// refRequests lists pending requests in insertion order; nil if none.
func refRequests(pending []pendingReq) []Request {
	var out []Request
	for _, r := range pending {
		out = append(out, Request{Func: r.f, Level: r.level})
	}
	return out
}

func (e *refEngine) drainArrived(t int64) {
	for {
		_, free := e.queue.pool.earliest()
		if free > t {
			return
		}
		i := e.queue.next(free)
		if i < 0 {
			return
		}
		if max(free, e.queue.pending[i].arrival) > t {
			return
		}
		if !e.drainOne() {
			return
		}
	}
}

// refEnqueue is the reference's enqueue: level check, coalescing, an
// optional drain of everything startable by the arrival (single-threaded
// engine only), the first-behind-recompile scan and MaxPending.
func (e *refEngine) refEnqueue(maxRequested []profile.Level, requested []bool, seq *int, drain bool,
	f trace.FuncID, l profile.Level, arrival int64) error {
	if l < 0 || int(l) >= e.p.Levels {
		return fmt.Errorf("sim: policy requested level %d for function %d outside [0,%d)", l, f, e.p.Levels)
	}
	if requested[f] && l <= maxRequested[f] {
		return nil
	}
	if drain {
		e.drainArrived(arrival)
	}
	first := !requested[f]
	requested[f] = true
	maxRequested[f] = l
	*seq++
	if first {
		for _, r := range e.queue.pending {
			if !r.first {
				e.res.FirstBehindRecompiles++
				break
			}
		}
	}
	e.queue.push(pendingReq{f: f, level: l, arrival: arrival, first: first, seq: *seq})
	e.res.MaxPending = max(e.res.MaxPending, len(e.queue.pending))
	return nil
}

func refRunPolicy(tr *trace.Trace, p *profile.Profile, pol Policy, cfg Config, opts Options) (*Result, error) {
	if cfg.CompileWorkers < 1 {
		return nil, fmt.Errorf("sim: Config.CompileWorkers must be >= 1, got %d", cfg.CompileWorkers)
	}
	if cfg.Discipline != FIFO && cfg.Discipline != FirstCompileFirst {
		return nil, fmt.Errorf("sim: unknown queue discipline %d", cfg.Discipline)
	}
	if pol == nil {
		return nil, fmt.Errorf("sim: RunPolicy needs a non-nil policy")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := new(tables).load(p); err != nil {
		return nil, err
	}
	nf := p.NumFuncs()
	if err := tr.Validate(nf); err != nil {
		return nil, err
	}

	res := &Result{FirstReady: make([]int64, nf)}
	if opts.RecordCalls {
		res.CallStarts = make([]int64, 0, tr.Len())
		res.CallLevels = make([]profile.Level, 0, tr.Len())
	}
	eng := &refEngine{
		p:        p,
		queue:    refQueue{discipline: cfg.Discipline, pool: newWorkerPool(cfg.CompileWorkers)},
		versions: make([]versionList, nf),
		res:      res,
		rec:      opts.Recorder,
	}
	maxRequested := make([]profile.Level, nf)
	requested := make([]bool, nf)
	seq := 0
	enqueue := func(f trace.FuncID, l profile.Level, arrival int64) error {
		return eng.refEnqueue(maxRequested, requested, &seq, true, f, l, arrival)
	}

	// The references call BeforeCall on every call, so the diffs check that
	// each policy honours its declared BeforeCallLimit.
	period := pol.SamplePeriod()
	if period < 0 {
		return nil, fmt.Errorf("sim: policy sample period must be >= 0, got %d", period)
	}
	nextSample := period

	callNum := make([]int64, nf)
	intr := opts.Interrupt
	var execT int64
	for i, f := range tr.Calls {
		if intr != nil && i%interruptStride == 0 && interrupted(intr) {
			return nil, ErrInterrupted
		}
		callNum[f]++
		for _, r := range pol.BeforeCall(f, callNum[f], execT) {
			if err := enqueue(r.Func, r.Level, execT); err != nil {
				return nil, err
			}
		}
		if !requested[f] {
			if err := enqueue(f, pol.FirstCall(f, execT), execT); err != nil {
				return nil, err
			}
		}
		if eng.versions[f].firstReady() < 0 {
			if err := eng.drainUntilReady(f, execT); err != nil {
				return nil, err
			}
		}
		start := max(execT, eng.versions[f].firstReady())
		if start > execT {
			res.TotalBubble += start - execT
			res.BubbleCount++
			eng.rec.Stall(execT, start-execT, int32(f), int32(i))
		}
		eng.drainArrived(start)
		level, ok := eng.versions[f].latestAt(start)
		if !ok {
			return nil, &ErrNoReadyVersion{Func: f, Time: start}
		}
		dur := p.ExecTime(f, level)
		if opts.ExecVariation > 0 {
			dur = scaleDuration(dur, CallFactor(opts.ExecVariationSeed, i, opts.ExecVariation))
		}
		end := start + dur
		eng.rec.ExecStart(start, int32(f), int32(level), int32(i))
		eng.rec.ExecEnd(end, int32(f), int32(level), int32(i))
		if period > 0 {
			for nextSample < start {
				nextSample += period
			}
			for nextSample < end {
				for _, r := range pol.Sample(f, nextSample) {
					if err := enqueue(r.Func, r.Level, nextSample); err != nil {
						return nil, err
					}
				}
				nextSample += period
			}
		}
		if opts.RecordCalls {
			res.CallStarts = append(res.CallStarts, start)
			res.CallLevels = append(res.CallLevels, level)
		}
		res.TotalExec += dur
		execT = end
	}
	for eng.drainOne() {
	}
	for f := range eng.versions {
		res.FirstReady[f] = eng.versions[f].firstReady()
	}
	res.MakeSpan = execT
	return res, nil
}

func refRunPolicyMT(threads []*trace.Trace, p *profile.Profile, pol Policy, cfg Config, opts Options) (*Result, []ThreadResult, error) {
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
		return nil, nil, fmt.Errorf("sim: Options.Recorder is not supported for multi-threaded runs")
	}
	if err := new(tables).load(p); err != nil {
		return nil, nil, err
	}
	nf := p.NumFuncs()
	period := pol.SamplePeriod()
	if period < 0 {
		return nil, nil, fmt.Errorf("sim: policy sample period must be >= 0, got %d", period)
	}

	res := &Result{FirstReady: make([]int64, nf)}
	eng := &refEngine{
		p:        p,
		queue:    refQueue{discipline: cfg.Discipline, pool: newWorkerPool(cfg.CompileWorkers)},
		versions: make([]versionList, nf),
		res:      res,
	}
	maxRequested := make([]profile.Level, nf)
	requested := make([]bool, nf)
	seq := 0
	enqueue := func(f trace.FuncID, l profile.Level, arrival int64) error {
		return eng.refEnqueue(maxRequested, requested, &seq, false, f, l, arrival)
	}

	ts := make([]*mtThread, len(threads))
	callNum := make([]int64, nf)
	for i, tr := range threads {
		if err := tr.Validate(nf); err != nil {
			return nil, nil, err
		}
		ts[i] = &mtThread{calls: tr.Calls, nextSample: period}
	}

	const inf = int64(1)<<62 - 1
	for {
		na, havePending := eng.nextAssignTime()
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
			case eng.versions[f].firstReady() >= 0:
				start := max(t.clock, eng.versions[f].firstReady())
				if start < bestTime {
					bestTime, bestThread, bestIsIssue = start, i, false
				}
			}
		}

		if havePending && (bestThread < 0 || na <= bestTime) {
			if !eng.drainOne() {
				return nil, nil, fmt.Errorf("sim: internal error: pending queue did not drain")
			}
			continue
		}
		if bestThread < 0 {
			break
		}
		t := ts[bestThread]
		f := t.calls[t.idx]
		if bestIsIssue {
			callNum[f]++
			for _, r := range pol.BeforeCall(f, callNum[f], t.clock) {
				if err := enqueue(r.Func, r.Level, t.clock); err != nil {
					return nil, nil, err
				}
			}
			if !requested[f] {
				if err := enqueue(f, pol.FirstCall(f, t.clock), t.clock); err != nil {
					return nil, nil, err
				}
			}
			t.issued = true
			continue
		}

		start := bestTime
		if start > t.clock {
			t.res.Bubble += start - t.clock
		}
		eng.drainArrived(start)
		level, ok := eng.versions[f].latestAt(start)
		if !ok {
			return nil, nil, &ErrNoReadyVersion{Func: f, Time: start}
		}
		dur := p.ExecTime(f, level)
		if opts.ExecVariation > 0 {
			dur = scaleDuration(dur, CallFactor(opts.ExecVariationSeed+int64(bestThread)*1_000_003, t.idx, opts.ExecVariation))
		}
		end := start + dur
		if period > 0 {
			for t.nextSample < start {
				t.nextSample += period
			}
			for t.nextSample < end {
				for _, r := range pol.Sample(f, t.nextSample) {
					if err := enqueue(r.Func, r.Level, t.nextSample); err != nil {
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

	for eng.drainOne() {
	}
	for f := range eng.versions {
		res.FirstReady[f] = eng.versions[f].firstReady()
	}
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
