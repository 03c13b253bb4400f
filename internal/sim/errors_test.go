package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/profile"
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
	eng := &engine{
		p:        p,
		queue:    compileQueue{pool: newWorkerPool(1)},
		versions: make([]versionList, 2),
		res:      &Result{},
	}
	// One pending compilation of function 1; the executor blocks on
	// function 0, which nothing in the queue can ever satisfy.
	eng.queue.push(pendingReq{f: 1, level: 0, arrival: 0, first: true, seq: 1})
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
	if eng.versions[1].firstReady() < 0 {
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
