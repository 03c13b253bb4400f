package sim

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// closedChan returns an already-fired interrupt signal.
func closedChan() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// TestRunInterrupted: a fired Options.Interrupt aborts a static replay with
// ErrInterrupted and no partial Result.
func TestRunInterrupted(t *testing.T) {
	p := figure1Profile()
	tr := trace.New("fig1", []trace.FuncID{0, 1, 2, 1})
	sched := Schedule{{0, 0}, {1, 0}, {2, 0}}
	res, err := Run(tr, p, sched, DefaultConfig(), Options{Interrupt: closedChan()})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res != nil {
		t.Fatalf("interrupted Run returned a Result: %+v", res)
	}
}

// TestEvaluatorRunInterrupted: Evaluator.Run polls the same channel, before
// the compile end and in the settled tail, returns ErrInterrupted with no
// Result, and stays usable.
func TestEvaluatorRunInterrupted(t *testing.T) {
	p := figure1Profile()
	calls := make([]trace.FuncID, 3*interruptStride)
	for i := range calls {
		calls[i] = trace.FuncID(i % 3)
	}
	tr := trace.New("long", calls)
	sched := Schedule{{0, 0}, {1, 0}, {2, 0}, {2, 1}}
	eval, err := NewEvaluator(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range []int{0, interruptStride, 2 * interruptStride} {
		// Resume the kernel past call 0 too, deep in the settled tail.
		x := execLoop{c: &eval.c, t: &eval.t, intr: closedChan(), execT: 1 << 20}
		if _, err := eval.Run(sched, DefaultConfig(), Options{}); err != nil {
			t.Fatal(err)
		}
		if err := x.run(tr.Calls, from); !errors.Is(err, ErrInterrupted) {
			t.Errorf("kernel from call %d: err = %v, want ErrInterrupted", from, err)
		}
	}
	res, err := eval.Run(sched, DefaultConfig(), Options{Interrupt: closedChan()})
	if !errors.Is(err, ErrInterrupted) || res != nil {
		t.Fatalf("Evaluator.Run: (%v, %v), want (nil, ErrInterrupted)", res, err)
	}
	want, err := refRun(tr, p, sched, DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eval.Run(sched, DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.MakeSpan != want.MakeSpan {
		t.Errorf("after an interrupt: make-span %d, want %d", got.MakeSpan, want.MakeSpan)
	}
}

// TestRunPolicyInterrupted: same contract for the online-policy engine.
func TestRunPolicyInterrupted(t *testing.T) {
	p := figure1Profile()
	tr := trace.New("fig1", []trace.FuncID{0, 1, 2, 1})
	res, err := RunPolicy(tr, p, levelZero{}, DefaultConfig(), Options{Interrupt: closedChan()})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if res != nil {
		t.Fatalf("interrupted RunPolicy returned a Result: %+v", res)
	}
}

// TestRunNilInterruptIdentical: the zero Options (nil Interrupt) path is
// bit-identical to a run with a live, never-fired interrupt channel.
func TestRunNilInterruptIdentical(t *testing.T) {
	p := figure1Profile()
	tr := trace.New("fig1", []trace.FuncID{0, 1, 2, 1})
	sched := Schedule{{0, 0}, {1, 0}, {2, 0}, {1, 1}}
	want, err1 := Run(tr, p, sched, DefaultConfig(), Options{})
	live := make(chan struct{})
	defer close(live)
	got, err2 := Run(tr, p, sched, DefaultConfig(), Options{Interrupt: live})
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: plain=%v interruptible=%v", err1, err2)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("interruptible run differs from plain:\n got %+v\nwant %+v", got, want)
	}
}
