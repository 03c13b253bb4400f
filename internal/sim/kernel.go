package sim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
)

// tables are a profile's per-function/per-level compile and exec times,
// flattened to index f*levels+l with each level's two times side by side: one
// slice index instead of two pointer hops on every event and every call, and
// one cache line for an event's compile time and its function's exec time.
type tables struct {
	nf, levels int
	times      []levelTimes
}

type levelTimes struct{ compile, exec int64 }

// load validates the profile and flattens it into t, reusing t's storage.
func (t *tables) load(p *profile.Profile) error {
	nf, levels := p.NumFuncs(), p.Levels
	if levels <= 0 {
		return fmt.Errorf("sim: evaluator needs a profile with positive Levels, got %d", levels)
	}
	for f := range p.Funcs {
		ft := &p.Funcs[f]
		if len(ft.Compile) != levels || len(ft.Exec) != levels {
			return fmt.Errorf("sim: evaluator: function %d has %d compile / %d exec levels, want %d",
				f, len(ft.Compile), len(ft.Exec), levels)
		}
	}
	t.nf, t.levels = nf, levels
	t.times = growN(t.times, nf*levels)
	for f := range p.Funcs {
		for l := 0; l < levels; l++ {
			t.times[f*levels+l] = levelTimes{compile: p.Funcs[f].Compile[l], exec: p.Funcs[f].Exec[l]}
		}
	}
	return nil
}

func (t *tables) compile(f trace.FuncID, l profile.Level) int64 {
	return t.times[int(f)*t.levels+int(l)].compile
}

func (t *tables) exec(f trace.FuncID, l profile.Level) int64 {
	return t.times[int(f)*t.levels+int(l)].exec
}

// fnState is one function's row: its settled-table entry — first ready,
// last done, and the level and exec time of the last-finishing version — and
// its version list. A call that starts at or after last runs at level,
// taking exec ticks, without consulting the list.
type fnState struct {
	ready    int64 // first version's finish time; -1 if never compiled
	last     int64 // last version's finish time; neverDone if never compiled
	exec     int64 // exec time at level
	level    profile.Level
	versions versionList
}

// neverDone is a never-compiled function's last finish time: no exec clock
// reaches it, so a call to such a function always takes the version-list
// lookup, which reports it.
const neverDone = math.MaxInt64

// compiled is a static schedule's compile side as the exec loop reads it.
type compiled struct {
	tab  []fnState
	used []trace.FuncID // the functions with a version, in first-add order
	end  int64          // latest finish time of any event; 0 before any event
}

// reset empties the compile side and gives it rows for at least nf
// functions, keeping the version lists' storage. Only the rows of functions
// with a version are rewritten, so once the arena is sized a reset costs
// O(schedule), not O(nf).
func (c *compiled) reset(nf int) {
	for _, f := range c.used {
		r := &c.tab[f]
		r.ready, r.last, r.versions.vs = -1, neverDone, r.versions.vs[:0]
	}
	c.used = c.used[:0]
	if n := nf - len(c.tab); n > 0 {
		// New rows share one backing array with room for two versions each,
		// so first compilations and one recompilation allocate nothing.
		store := make([]version, 2*n)
		c.tab = slices.Grow(c.tab, n)
		for i := 0; i < n; i++ {
			c.tab = append(c.tab, fnState{ready: -1, last: neverDone, versions: versionList{store[2*i : 2*i : 2*i+2]}})
		}
	}
	c.end = 0
}

// add records a version of f at level l finishing at done and refreshes f's
// settled-table entry.
func (c *compiled) add(t *tables, f trace.FuncID, l profile.Level, done int64) {
	r := &c.tab[f]
	if r.ready < 0 {
		c.used = append(c.used, f)
	}
	r.versions.insert(done, l)
	vs := r.versions.vs
	r.ready, r.last, r.level = vs[0].done, vs[len(vs)-1].done, vs[len(vs)-1].level
	r.exec = t.exec(f, r.level)
	c.end = max(c.end, done)
}

// levelAt returns the level a call to f starting at t runs at; the call
// must have started, so f has a version finished by t.
func (c *compiled) levelAt(f trace.FuncID, t int64) profile.Level {
	r := &c.tab[f]
	if t >= r.last {
		return r.level
	}
	l, _ := r.versions.latestAt(t)
	return l
}

// execLoop is the one make-span kernel, behind Evaluator.Run and
// PrefixSim: call k starts at the later of the exec clock and its
// function's first finished version, and runs at the latest version finished
// by then. Before the compile end a version may land between two calls, so
// each call takes the general step, which skips the version-list lookup once
// its function has settled. Once the exec clock reaches the compile end
// every compiled function has settled: each call starts at the clock at its
// final level, and the rest of the trace is the settled tail, a tight loop
// over the table. Execution-time variation or a Recorder keeps the general
// step in the tail too, for the same numbers and events.
type execLoop struct {
	c      *compiled
	t      *tables
	mag    float64 // Options.ExecVariation
	seed   int64   // Options.ExecVariationSeed
	rec    *obs.Recorder
	intr   <-chan struct{}
	record bool // append each call's start to starts

	execT  int64 // the exec clock: the end of the last executed call
	bubble int64 // summed waits for first versions
	stalls int   // calls that waited
	starts []int64
}

// run executes calls[i:], polling the interrupt channel every
// interruptStride calls.
func (x *execLoop) run(calls []trace.FuncID, i int) error {
	for i < len(calls) {
		if x.intr != nil && interrupted(x.intr) {
			return ErrInterrupted
		}
		stop := min(len(calls), (i/interruptStride+1)*interruptStride)
		var err error
		if i, err = x.general(calls, i, stop, x.c.end); err != nil {
			return err
		}
		if x.mag == 0 && x.rec == nil {
			i = x.tail(calls, i, stop)
		}
		// The tail stops early only at a call that must wait — a
		// never-compiled callee, which the general step reports, or the one
		// waiting for the version that finishes at the compile end.
		if i, err = x.general(calls, i, stop, neverDone); err != nil {
			return err
		}
	}
	return nil
}

// general executes calls[i:stop] while each starts before bound, each in
// the general case: wait for the function's first version, then run at the
// latest version finished by the start, found in the version list unless
// the function has settled. It returns the index of the first call not
// executed.
func (x *execLoop) general(calls []trace.FuncID, i, stop int, bound int64) (int, error) {
	tab, t := x.c.tab, x.t
	mag, seed, rec, record := x.mag, x.seed, x.rec, x.record
	execT, starts, bubble, stalls := x.execT, x.starts, x.bubble, x.stalls
	var err error
	for ; i < stop; i++ {
		f := calls[i]
		r := &tab[f]
		start := max(execT, r.ready)
		if start >= bound {
			break
		}
		if start > execT {
			bubble += start - execT
			stalls++
			rec.Stall(execT, start-execT, int32(f), int32(i))
		}
		level, dur := r.level, r.exec
		if start < r.last {
			var ok bool
			if level, ok = r.versions.latestAt(start); !ok {
				err = &ErrNoReadyVersion{Func: f, Time: start}
				break
			}
			dur = t.exec(f, level)
		}
		if mag > 0 {
			dur = scaleDuration(dur, CallFactor(seed, i, mag))
		}
		if record {
			starts = append(starts, start)
		}
		if rec != nil {
			rec.ExecStart(start, int32(f), int32(level), int32(i))
			rec.ExecEnd(start+dur, int32(f), int32(level), int32(i))
		}
		execT = start + dur
	}
	x.execT, x.starts, x.bubble, x.stalls = execT, starts, bubble, stalls
	return i, err
}

// tail executes calls[i:stop] at or past the compile end, with no
// variation and no recorder: each call starts at the exec clock and takes
// its function's settled exec time. It stops early only at a
// never-compiled function and returns the index of the first call not
// executed.
func (x *execLoop) tail(calls []trace.FuncID, i, stop int) int {
	tab, record, execT, starts := x.c.tab, x.record, x.execT, x.starts
	for ; i < stop; i++ {
		r := &tab[calls[i]]
		if r.last > execT {
			break
		}
		if record {
			starts = append(starts, execT)
		}
		execT += r.exec
	}
	x.execT, x.starts = execT, starts
	return i
}
