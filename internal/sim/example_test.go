package sim_test

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExampleRun replays the paper's Fig. 1 schedule s3 (compile f1 twice) and
// reproduces its make-span of 10.
func ExampleRun() {
	p := &profile.Profile{
		Levels: 2,
		Funcs: []profile.FuncTimes{
			{Name: "f0", Compile: []int64{1, 1}, Exec: []int64{1, 1}},
			{Name: "f1", Compile: []int64{1, 3}, Exec: []int64{3, 2}},
			{Name: "f2", Compile: []int64{3, 5}, Exec: []int64{3, 1}},
		},
	}
	tr := trace.New("fig1", []trace.FuncID{0, 1, 2, 1})
	s3 := sim.Schedule{{Func: 0, Level: 0}, {Func: 1, Level: 0}, {Func: 2, Level: 0}, {Func: 1, Level: 1}}
	res, err := sim.Run(tr, p, s3, sim.DefaultConfig(), sim.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("make-span=%d bubbles=%d\n", res.MakeSpan, res.TotalBubble)
	// Output:
	// make-span=10 bubbles=1
}

// ExampleRunPolicy drives a trace through the V8-style policy: low level on
// first encounter, high level at the second invocation.
func ExampleRunPolicy() {
	p := &profile.Profile{
		Levels: 2,
		Funcs: []profile.FuncTimes{
			{Name: "hot", Compile: []int64{1, 10}, Exec: []int64{20, 2}},
		},
	}
	tr := trace.New("t", []trace.FuncID{0, 0, 0})
	res, err := sim.RunPolicy(tr, p, secondCallPromoter{}, sim.DefaultConfig(), sim.Options{})
	if err != nil {
		panic(err)
	}
	// c@0 [0,1); call1 [1,21); call2 requests high at 21, runs low [21,41);
	// call3 at 41 uses the high version (done 31): [41,43).
	fmt.Println(res.MakeSpan)
	// Output:
	// 43
}

// secondCallPromoter is a minimal sim.Policy: level 0 on first call, a
// high-level request at the second.
type secondCallPromoter struct{}

func (secondCallPromoter) FirstCall(trace.FuncID, int64) profile.Level { return 0 }
func (secondCallPromoter) BeforeCall(f trace.FuncID, nth, now int64) []sim.Request {
	if nth == 2 {
		return []sim.Request{{Func: f, Level: 1}}
	}
	return nil
}
func (secondCallPromoter) BeforeCallLimit() int64                   { return 2 }
func (secondCallPromoter) Sample(trace.FuncID, int64) []sim.Request { return nil }
func (secondCallPromoter) SamplePeriod() int64                      { return 0 }
