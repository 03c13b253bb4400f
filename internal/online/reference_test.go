package online_test

// The online engine's reference: the per-call loop online.Run ran before it
// stepped through sim.PrefixSim, kept verbatim — its own version lists,
// worker pool and exec step — as the oracle the engine is diffed against.
// TestRunMatchesReference compares every Result field, with RecordCalls on,
// across windows, compile-worker counts and schedulers that exercise every
// commitment rule: upgrades, dropped non-upgrades, out-of-order levels,
// functions not yet visible, and the forced level-0 fallback.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/online"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// versionList is one function's finished compilations ordered by finish
// time, for "latest finished at or before t" lookups.
type versionList struct {
	done   []int64
	levels []profile.Level
}

func (v *versionList) insert(done int64, l profile.Level) {
	i := len(v.done)
	for i > 0 && v.done[i-1] > done {
		i--
	}
	v.done = append(v.done, 0)
	v.levels = append(v.levels, 0)
	copy(v.done[i+1:], v.done[i:])
	copy(v.levels[i+1:], v.levels[i:])
	v.done[i] = done
	v.levels[i] = l
}

func (v *versionList) latestAt(t int64) (profile.Level, bool) {
	for i := len(v.done) - 1; i >= 0; i-- {
		if v.done[i] <= t {
			return v.levels[i], true
		}
	}
	return 0, false
}

func (v *versionList) firstReady() int64 {
	if len(v.done) == 0 {
		return -1
	}
	return v.done[0]
}

// workerPool assigns compile jobs to the earliest-free of w workers.
type workerPool struct {
	free []int64
}

func (p *workerPool) assign(arrival, duration int64) (int, int64, int64) {
	best := 0
	for i, f := range p.free {
		if f < p.free[best] {
			best = i
		}
	}
	start := p.free[best]
	if arrival > start {
		start = arrival
	}
	done := start + duration
	p.free[best] = done
	return best, start, done
}

// referenceRun is online.Run as a self-contained per-call loop. It takes
// no Interrupt and no Metrics: those do not change a finished run's Result.
func referenceRun(tr *trace.Trace, p *profile.Profile, sched online.Scheduler, opts online.Options) (*online.Result, error) {
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
	res := &online.Result{
		Sim:    &sim.Result{FirstReady: make([]int64, nf)},
		Window: opts.Window,
	}
	if opts.RecordCalls {
		res.Sim.CallStarts = make([]int64, 0, tr.Len())
		res.Sim.CallLevels = make([]profile.Level, 0, tr.Len())
	}
	versions := make([]versionList, nf)
	pool := &workerPool{free: make([]int64, cfg.CompileWorkers)}
	committed := make([]profile.Level, nf)
	for i := range committed {
		committed[i] = -1
	}

	commit := func(ev sim.CompileEvent, now int64) {
		w, start, done := pool.assign(now, p.CompileTime(ev.Func, ev.Level))
		res.Sim.Compiles = append(res.Sim.Compiles,
			sim.CompileRecord{Event: ev, Start: start, Done: done, Worker: w})
		versions[ev.Func].insert(done, ev.Level)
		res.Sim.CompileBusy += done - start
		if done > res.Sim.CompileEnd {
			res.Sim.CompileEnd = done
		}
		committed[ev.Func] = ev.Level
		res.Schedule = append(res.Schedule, ev)
	}

	n := tr.Len()
	cursor := trace.NewPrefix(tr)
	var execT int64
	for i, f := range tr.Calls {
		hi := n
		if opts.Window > 0 && i+opts.Window < n {
			hi = i + opts.Window
		}
		if err := cursor.Extend(hi); err != nil {
			return nil, fmt.Errorf("online: %w", err)
		}
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
			commit(ev, execT)
		}
		if versions[f].firstReady() < 0 {
			commit(sim.CompileEvent{Func: f, Level: 0}, execT)
			res.Forced++
		}

		start := execT
		if ready := versions[f].firstReady(); ready > start {
			start = ready
		}
		if start > execT {
			res.Sim.TotalBubble += start - execT
			res.Sim.BubbleCount++
		}
		level, ok := versions[f].latestAt(start)
		if !ok {
			return nil, fmt.Errorf("online: internal: no ready version of function %d at time %d", f, start)
		}
		dur := p.ExecTime(f, level)
		if opts.RecordCalls {
			res.Sim.CallStarts = append(res.Sim.CallStarts, start)
			res.Sim.CallLevels = append(res.Sim.CallLevels, level)
		}
		res.Sim.TotalExec += dur
		execT = start + dur
	}
	res.Sim.MakeSpan = execT
	for f := range versions {
		res.Sim.FirstReady[f] = versions[f].firstReady()
	}
	return res, nil
}

// randomScheduler commits a few seeded random events before each call:
// mostly functions already visible, sometimes any function of the profile
// (not yet visible), at random levels — so upgrades, non-upgrades and
// out-of-order levels all occur, and functions it never picks in time fall
// to the forced fallback.
type randomScheduler struct {
	rng        *rand.Rand
	nf, levels int
}

func (s *randomScheduler) Observe(i int, visible *trace.Trace, now int64) ([]sim.CompileEvent, error) {
	var out []sim.CompileEvent
	for k := s.rng.Intn(3); k > 0; k-- {
		f := visible.Calls[s.rng.Intn(visible.Len())]
		if s.rng.Intn(4) == 0 {
			f = trace.FuncID(s.rng.Intn(s.nf))
		}
		out = append(out, sim.CompileEvent{Func: f, Level: profile.Level(s.rng.Intn(s.levels))})
	}
	return out, nil
}

// referenceSchedulers builds a fresh scheduler of each kind; a run consumes
// its scheduler's state, so the engine and the reference each get their own.
var referenceSchedulers = []struct {
	name string
	mk   func(p *profile.Profile, seed int64) (online.Scheduler, error)
}{
	{"iar", func(p *profile.Profile, _ int64) (online.Scheduler, error) {
		return online.NewIAR(p, core.IAROptions{}, 0), nil
	}},
	{"v8", func(p *profile.Profile, _ int64) (online.Scheduler, error) {
		return online.NewV8Style(p, profile.Level(p.Levels-1))
	}},
	{"sampled", func(p *profile.Profile, _ int64) (online.Scheduler, error) {
		return online.NewSampled(p, nil, 100)
	}},
	{"random", func(p *profile.Profile, seed int64) (online.Scheduler, error) {
		return &randomScheduler{rng: rand.New(rand.NewSource(seed)), nf: p.NumFuncs(), levels: p.Levels}, nil
	}},
}

// diffReference runs the engine and the reference on one instance across
// the window and worker matrix and fails on the first differing field.
func diffReference(t *testing.T, name string, tr *trace.Trace, p *profile.Profile) {
	t.Helper()
	for _, win := range []int{1, 7, 512, 0} {
		for _, workers := range []int{1, 3} {
			for si, sc := range referenceSchedulers {
				if sc.name == "v8" && p.Levels < 2 {
					continue
				}
				tag := fmt.Sprintf("%s/%s/window=%d/workers=%d", name, sc.name, win, workers)
				seed := int64(1000*win + 10*workers + si)
				opts := online.Options{Window: win, Config: sim.Config{CompileWorkers: workers}, RecordCalls: true}
				refSched, err := sc.mk(p, seed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceRun(tr, p, refSched, opts)
				if err != nil {
					t.Fatalf("%s: reference: %v", tag, err)
				}
				sched, err := sc.mk(p, seed)
				if err != nil {
					t.Fatal(err)
				}
				got, err := online.Run(tr, p, sched, opts)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				diffResult(t, tag, want, got)
			}
		}
	}
}

// diffResult compares every field of two online results, and every field
// of their sim.Results, naming the first that differs.
func diffResult(t *testing.T, tag string, want, got *online.Result) {
	t.Helper()
	if want.Forced != got.Forced || want.Dropped != got.Dropped || want.Window != got.Window {
		t.Fatalf("%s: forced/dropped/window = %d/%d/%d, reference %d/%d/%d",
			tag, got.Forced, got.Dropped, got.Window, want.Forced, want.Dropped, want.Window)
	}
	if !reflect.DeepEqual(want.Schedule, got.Schedule) {
		t.Fatalf("%s: committed schedules differ", tag)
	}
	wv, gv := reflect.ValueOf(*want.Sim), reflect.ValueOf(*got.Sim)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Fatalf("%s: Result.Sim.%s differs from the reference", tag, wv.Type().Field(i).Name)
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: results differ", tag)
	}
}

// TestRunMatchesReference diffs the engine against referenceRun on the
// trace-codec fuzz corpus and on the online study's pinned streams.
func TestRunMatchesReference(t *testing.T) {
	for _, tr := range fuzzCorpusTraces(t) {
		p, err := profile.Synthesize(tr.NumFuncs(), profile.DefaultTiming(4, 11))
		if err != nil {
			t.Fatalf("%s: %v", tr.Name, err)
		}
		diffReference(t, tr.Name, tr, p)
	}
	if testing.Short() {
		return
	}
	for _, spec := range experiments.OnlineSpecs() {
		tr, p, err := spec.Render()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		diffReference(t, spec.Name, tr, p)
	}
}

// fuzzCorpusTraces decodes the trace codecs' fuzz seed corpus into
// non-empty traces, skipping the entries the codecs reject.
func fuzzCorpusTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for _, dir := range []string{"FuzzReadBinary", "FuzzReadText"} {
		root := filepath.Join("..", "trace", "testdata", "fuzz", dir)
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			data, err := os.ReadFile(filepath.Join(root, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			// A "go test fuzz v1" file: the header, then one quoted argument.
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			arg := strings.TrimSpace(lines[len(lines)-1])
			open := strings.Index(arg, "(")
			payload, err := strconv.Unquote(arg[open+1 : len(arg)-1])
			if err != nil {
				t.Fatalf("%s/%s: %v", dir, ent.Name(), err)
			}
			var tr *trace.Trace
			if dir == "FuzzReadBinary" {
				tr, err = trace.ReadBinary(bytes.NewReader([]byte(payload)))
			} else {
				tr, err = trace.ReadText(bytes.NewReader([]byte(payload)))
			}
			if err != nil || tr.Len() == 0 || tr.Len() > 1<<16 {
				continue
			}
			tr.Name = dir + "/" + ent.Name()
			out = append(out, tr)
		}
	}
	if len(out) == 0 {
		t.Fatal("fuzz corpus produced no decodable traces")
	}
	return out
}
