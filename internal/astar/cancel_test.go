package astar

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// searchEntry abstracts the five context-aware entry points so every
// cancellation contract is checked against all of them.
type searchEntry struct {
	name string
	run  func(ctx context.Context, tr trInput) (*Result, error)
}

type trInput struct {
	nfuncs, ncalls int
	seed           int64
}

func cancelEntries() []searchEntry {
	return []searchEntry{
		{"SearchContext", func(ctx context.Context, in trInput) (*Result, error) {
			tr, p := tinyInstance(in.nfuncs, in.ncalls, in.seed)
			return SearchContext(ctx, tr, p, Options{})
		}},
		{"ExhaustiveContext", func(ctx context.Context, in trInput) (*Result, error) {
			tr, p := tinyInstance(in.nfuncs, in.ncalls, in.seed)
			return ExhaustiveContext(ctx, tr, p, Options{})
		}},
		{"BeamSearchContext", func(ctx context.Context, in trInput) (*Result, error) {
			tr, p := tinyInstance(in.nfuncs, in.ncalls, in.seed)
			// A wide beam: at the default width the serial beam finishes the
			// mid-run instance in ~10ms, before the cancel lands.
			return BeamSearchContext(ctx, tr, p, BeamOptions{Workers: 1, Width: 1 << 14})
		}},
		{"BnBSearchContext", func(ctx context.Context, in trInput) (*Result, error) {
			tr, p := tinyInstance(in.nfuncs, in.ncalls, in.seed)
			return BnBSearchContext(ctx, tr, p, BnBOptions{Workers: 1})
		}},
		{"IDASearchContext", func(ctx context.Context, in trInput) (*Result, error) {
			tr, p := tinyInstance(in.nfuncs, in.ncalls, in.seed)
			return IDASearchContext(ctx, tr, p, IDAOptions{})
		}},
	}
}

// TestCancelledContextReturnsPromptly: a context that is already cancelled at
// call time makes every entry point return quickly with the typed error and
// no schedule — the search never starts charging for a doomed request.
func TestCancelledContextReturnsPromptly(t *testing.T) {
	for _, e := range cancelEntries() {
		t.Run(e.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			start := time.Now()
			res, err := e.run(ctx, trInput{6, 40, 2})
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("cancelled call took %v, want a prompt return", elapsed)
			}
			if !errors.Is(err, ErrCancelled) {
				t.Fatalf("err = %v, want ErrCancelled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want it to wrap context.Canceled", err)
			}
			if res == nil {
				t.Fatal("cancelled search returned a nil Result (counters expected)")
			}
			if res.Schedule != nil {
				t.Errorf("cancelled search returned a schedule of %d events, want none", len(res.Schedule))
			}
			if res.Complete {
				t.Error("cancelled search claims completeness")
			}
		})
	}
}

// TestMidRunCancelNoPartialSchedule: cancelling a long search mid-run aborts
// it within a polling stride and never yields a partial schedule, even for
// searches that have already seen complete candidates (beam, BnB).
func TestMidRunCancelNoPartialSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("long search instance")
	}
	// Large enough that none of the entry points finish before the cancel
	// lands (beam at width 1<<14 needs ~0.7s and BnB ~1s on this instance;
	// A*/exhaustive/IDA far more), yet every stride is crossed quickly once
	// cancelled.
	in := trInput{12, 200, 7}
	for _, e := range cancelEntries() {
		t.Run(e.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(50*time.Millisecond, cancel)
			start := time.Now()
			res, err := e.run(ctx, in)
			elapsed := time.Since(start)
			if err == nil {
				t.Skipf("instance finished in %v before the cancel landed", elapsed)
			}
			if !errors.Is(err, ErrCancelled) && !errors.Is(err, ErrBudgetExhausted) && !errors.Is(err, ErrTimeExhausted) {
				t.Fatalf("err = %v, want ErrCancelled (or a budget error beating the cancel)", err)
			}
			if errors.Is(err, ErrCancelled) {
				if elapsed > 5*time.Second {
					t.Errorf("cancel took %v to take effect", elapsed)
				}
				if res.Schedule != nil {
					t.Errorf("cancelled search returned a partial schedule of %d events", len(res.Schedule))
				}
			}
		})
	}
}

// TestUncancelledContextBitIdentical: threading a live context through a
// search changes nothing — the Context variants with context.Background()
// return exactly what the plain entry points do.
func TestUncancelledContextBitIdentical(t *testing.T) {
	tr, p := tinyInstance(6, 40, 5)
	ctx := context.Background()
	type pair struct {
		name        string
		plain, ctxd func() (*Result, error)
	}
	pairs := []pair{
		{"Search",
			func() (*Result, error) { return Search(tr, p, Options{}) },
			func() (*Result, error) { return SearchContext(ctx, tr, p, Options{}) }},
		{"Exhaustive",
			func() (*Result, error) { return Exhaustive(tr, p, Options{}) },
			func() (*Result, error) { return ExhaustiveContext(ctx, tr, p, Options{}) }},
		{"BeamSearch",
			func() (*Result, error) { return BeamSearch(tr, p, BeamOptions{Workers: 1}) },
			func() (*Result, error) { return BeamSearchContext(ctx, tr, p, BeamOptions{Workers: 1}) }},
		{"BnBSearch",
			func() (*Result, error) { return BnBSearch(tr, p, BnBOptions{Workers: 1}) },
			func() (*Result, error) { return BnBSearchContext(ctx, tr, p, BnBOptions{Workers: 1}) }},
		{"IDASearch",
			func() (*Result, error) { return IDASearch(tr, p, IDAOptions{}) },
			func() (*Result, error) { return IDASearchContext(ctx, tr, p, IDAOptions{}) }},
	}
	for _, pc := range pairs {
		t.Run(pc.name, func(t *testing.T) {
			want, err1 := pc.plain()
			got, err2 := pc.ctxd()
			if err1 != nil || err2 != nil {
				t.Fatalf("errors: plain=%v ctx=%v", err1, err2)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("context variant differs from plain:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestBnBWarmZeroAllocCancellable: cancellation support must not tax the
// steady state — a warm reused BnB run through RunContext with a live
// (cancellable, never-fired) context still allocates nothing.
func TestBnBWarmZeroAllocCancellable(t *testing.T) {
	tr, p := tinyInstance(5, 30, 1)
	b, err := NewBnB(tr, p, BnBOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := b.RunContext(ctx); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := b.RunContext(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm cancellable BnB.RunContext allocates %.1f times per run, want 0", allocs)
	}
}
