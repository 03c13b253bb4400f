package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/profile"
	"repro/internal/testkit"
	"repro/internal/trace"
)

// TestRunCallsNoReadyVersion is the regression test for the former
// latestAt panic: a schedule that executes before any compilation of the
// called function finishes must surface from the exec kernel as a
// structured *ErrNoReadyVersion carrying the function and the time, not
// crash — both before the compile end and in the settled tail.
func TestRunCallsNoReadyVersion(t *testing.T) {
	p, err := profile.Synthesize(2, profile.DefaultTiming(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Function 1 is compiled; function 0 never is, so its call can never
	// start. Calls {0, 1} reach it at time 0, before the compile end; calls
	// {1, 0} reach it in the settled tail.
	tb, c := kernelFor(t, p, Schedule{{Func: 1, Level: 0}})
	for _, calls := range [][]trace.FuncID{{0, 1}, {1, 0}} {
		x := execLoop{c: c, t: tb}
		err = x.run(calls, 0)
		if err == nil {
			t.Fatalf("calls %v: kernel accepted a call to a never-compiled function", calls)
		}
		checkNoReadyVersion(t, err)
	}
}

func checkNoReadyVersion(t *testing.T, err error) {
	t.Helper()
	var nrv *ErrNoReadyVersion
	if !errors.As(err, &nrv) {
		t.Fatalf("error %T is not *ErrNoReadyVersion: %v", err, err)
	}
	if nrv.Func != 0 {
		t.Errorf("error names function %d, want 0", nrv.Func)
	}
	if nrv.Time < 0 {
		t.Errorf("error carries negative time %d", nrv.Time)
	}
	for _, want := range []string{"function 0", "no compiled version"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestRunRejectsUncompiledFunction pins down the public path: Run's
// validation refuses the same inconsistent schedule up front.
func TestRunRejectsUncompiledFunction(t *testing.T) {
	p, err := profile.Synthesize(2, profile.DefaultTiming(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("uncompiled", []trace.FuncID{0, 1})
	sched := Schedule{{Func: 0, Level: 0}} // function 1 never compiled
	if _, err := Run(tr, p, sched, DefaultConfig(), Options{}); err == nil {
		t.Fatal("Run accepted a schedule that never compiles a called function")
	}
}

// TestDrainUntilReadyDeadlock is the regression test for the former
// executor-blocked panic: a hand-built engine whose queue cannot ever
// produce a version of the blocked function returns a typed *DeadlockError
// instead of crashing the worker.
func TestDrainUntilReadyDeadlock(t *testing.T) {
	p, err := profile.Synthesize(2, profile.DefaultTiming(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := acquireEngine(p, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.release()
	// One pending compilation of function 1; the executor blocks on
	// function 0, which nothing in the queue can ever satisfy.
	if err := eng.enqueue(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	err = eng.drainUntilReady(0, 37)
	if err == nil {
		t.Fatal("drainUntilReady returned nil for an unsatisfiable wait")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %T is not *DeadlockError: %v", err, err)
	}
	if de.Func != 0 || de.Time != 37 {
		t.Errorf("deadlock names (func %d, time %d), want (0, 37)", de.Func, de.Time)
	}
	if !strings.Contains(err.Error(), "function 0") || !strings.Contains(err.Error(), "time 37") {
		t.Errorf("error %q does not name the blocked function and time", err)
	}
	// The unrelated compilation was drained before the deadlock was
	// detected, so the reported queue state is empty.
	if len(de.Pending) != 0 {
		t.Errorf("pending snapshot = %v, want empty", de.Pending)
	}
	if eng.c.tab[1].ready < 0 {
		t.Error("the satisfiable request was not drained before reporting")
	}
}

func TestDeadlockErrorFormatsQueueState(t *testing.T) {
	de := &DeadlockError{Func: 3, Time: 9, Pending: []Request{{Func: 1, Level: 2}, {Func: 4, Level: 0}}}
	msg := de.Error()
	for _, want := range []string{"function 3", "time 9", "2 queued", "C2(f1)", "C0(f4)"} {
		if !strings.Contains(msg, want) {
			t.Errorf("DeadlockError %q missing %q", msg, want)
		}
	}
	empty := &DeadlockError{Func: 0, Time: 0}
	if !strings.Contains(empty.Error(), "queue empty") {
		t.Errorf("empty-queue DeadlockError %q does not say so", empty.Error())
	}
}

// TestRunPolicyRejectsMalformedProfile is the regression test for the
// policy engines' former index-out-of-range panic on a profile whose rows
// do not match its level count: RunPolicy and RunPolicyMT now return the
// error sim.Run returns for the same profile.
func TestRunPolicyRejectsMalformedProfile(t *testing.T) {
	p := &profile.Profile{
		Levels: 2,
		Funcs:  []profile.FuncTimes{{Name: "f0", Compile: []int64{1, 4}, Exec: []int64{3}}},
	}
	tr := trace.New("malformed", []trace.FuncID{0, 0, 0})
	const want = "sim: evaluator: function 0 has 2 compile / 1 exec levels, want 2"
	_, runErr := Run(tr, p, Schedule{{Func: 0, Level: 1}}, DefaultConfig(), Options{})
	_, polErr := RunPolicy(tr, p, v8ish{high: 1}, DefaultConfig(), Options{})
	_, _, mtErr := RunPolicyMT([]*trace.Trace{tr, tr}, p, v8ish{high: 1}, DefaultConfig(), Options{})
	for name, err := range map[string]error{"Run": runErr, "RunPolicy": polErr, "RunPolicyMT": mtErr} {
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", name, err, want)
		}
	}
}

// TestRunRejectsNegativeFuncID is the regression test for the former
// index-out-of-range panic in Schedule.validate on a trace with a negative
// function ID: Run, Evaluator.Run and Schedule.Validate return the error
// trace.Validate gives, which is also RunPolicy's, on a cold trace and on
// one whose indices are built.
func TestRunRejectsNegativeFuncID(t *testing.T) {
	p, err := profile.Synthesize(2, profile.DefaultTiming(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	calls := []trace.FuncID{0, 1, -1, 1}
	const want = `trace "negative": call 2 has negative function id -1`
	sched := Schedule{{Func: 0, Level: 0}, {Func: 1, Level: 0}}
	for _, warm := range []bool{false, true} {
		tr := trace.New("negative", calls)
		if warm {
			tr.FirstCallOrder()
		}
		ev, err := NewEvaluator(tr, p)
		if err != nil {
			t.Fatal(err)
		}
		_, evErr := ev.Run(sched, DefaultConfig(), Options{})
		_, runErr := Run(tr, p, sched, DefaultConfig(), Options{})
		_, polErr := RunPolicy(tr, p, levelZero{}, DefaultConfig(), Options{})
		valErr := sched.Validate(tr, p)
		for name, err := range map[string]error{"Evaluator.Run": evErr, "Run": runErr, "RunPolicy": polErr, "Schedule.Validate": valErr} {
			if err == nil || err.Error() != want {
				t.Errorf("warm=%v %s: error %v, want %q", warm, name, err, want)
			}
		}
	}
}

// TestScheduleValidateMatchesReference diffs Schedule.Validate, which checks
// each distinct called function over the trace's memoized indices when they
// are built, against the per-call scan on the fuzz corpus and on traces with
// negative, out-of-range and uncompiled IDs: a schedule compiling every
// called function, one missing the function called last, and an empty one,
// each on a cold trace, which Validate must leave unindexed, and on one
// whose indices are built.
func TestScheduleValidateMatchesReference(t *testing.T) {
	inputs := corpusTraces(t)
	for i, calls := range [][]trace.FuncID{
		{0, 1, -1, 2},
		{0, 3, 1, -2},
		{2, 0, 9, 1},
		{1, 1, 0, 2, 0},
	} {
		inputs = append(inputs, trace.New(fmt.Sprintf("edge%d", i), calls))
	}
	for _, in := range inputs {
		// A profile covering every called function, and one short of the
		// largest ID, which the trace then calls out of range.
		nf := in.NumFuncs()
		for _, nfp := range []int{nf, nf - 1} {
			if nfp < 1 {
				continue
			}
			checkScheduleValidate(t, in, testkit.Synth(nfp, profile.DefaultTiming(3, 5)))
		}
	}
}

func checkScheduleValidate(t *testing.T, in *trace.Trace, prof *profile.Profile) {
	t.Helper()
	var all Schedule
	for _, f := range in.FirstCallOrder() {
		if int(f) < prof.NumFuncs() {
			all = append(all, CompileEvent{Func: f, Level: 1})
		}
	}
	last := in.Calls[len(in.Calls)-1]
	var missing Schedule
	for _, ev := range all {
		if ev.Func != last {
			missing = append(missing, ev)
		}
	}
	for si, sched := range []Schedule{all, missing, nil} {
		want := refValidate(sched, in, prof)
		cold := trace.New(in.Name, in.Calls)
		warm := trace.New(in.Name, in.Calls)
		warm.FirstCallOrder()
		for pass, tr := range []*trace.Trace{cold, warm} {
			if got := sched.Validate(tr, prof); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s, %d funcs, schedule %d, pass %d: Validate = %v, reference = %v",
					in.Name, prof.NumFuncs(), si, pass, got, want)
			}
			if tr == cold && cold.Indexed() {
				t.Errorf("%s, schedule %d: Validate built a cold trace's indices", in.Name, si)
			}
		}
	}
}
