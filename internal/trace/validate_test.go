package trace_test

import (
	"fmt"
	"testing"

	"repro/internal/testkit"
	"repro/internal/trace"
)

// refValidate is Trace.Validate as a per-call scan, the reference its
// answer from the memoized ID range is diffed against.
func refValidate(t *trace.Trace, nfuncs int) error {
	for i, f := range t.Calls {
		if f < 0 {
			return fmt.Errorf("trace %q: call %d has negative function id %d", t.Name, i, f)
		}
		if nfuncs >= 0 && int(f) >= nfuncs {
			return fmt.Errorf("trace %q: call %d references function %d beyond %d", t.Name, i, f, nfuncs)
		}
	}
	return nil
}

// badTraces are call sequences with negative and out-of-range IDs, in
// either order, and the empty trace.
var badTraces = [][]trace.FuncID{
	nil,
	{-1},
	{0, 1, -3, 2},
	{0, 7, 1, -1},
	{0, -2, 9, 1},
	{5, 5, 5},
}

// TestValidateMatchesScan diffs Validate against the per-call scan on the
// fuzz corpus and badTraces, on a cold trace and on one whose indices are
// built, for function counts around each trace's ID range.
func TestValidateMatchesScan(t *testing.T) {
	inputs := testkit.FuzzCorpusTraces(t)
	for i, calls := range badTraces {
		inputs = append(inputs, trace.New(fmt.Sprintf("bad%d", i), calls))
	}
	for _, in := range inputs {
		nf := trace.New(in.Name, in.Calls).NumFuncs()
		for _, n := range []int{-1, 0, 1, nf - 1, nf, nf + 1} {
			want := refValidate(in, n)
			cold := trace.New(in.Name, in.Calls)
			warm := trace.New(in.Name, in.Calls)
			warm.FirstCallOrder()
			for pass, tr := range []*trace.Trace{cold, warm} {
				if got := tr.Validate(n); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s, nfuncs %d, pass %d: Validate = %v, scan = %v", in.Name, n, pass, got, want)
				}
			}
		}
	}
}
