package online_test

// The incremental-replanning contract: online.IAR (warm-start planner,
// O(Δ) replans) must commit a stream bit-identical to iarFromScratch
// (the frozen reference that reruns full IAR over the visible prefix at
// every replan), with the same replan decisions, across the window × stride
// matrix on DaCapo traces, rendered streaming workloads, and the pinned
// experiment streams. The planner-level bit-identity lives in
// core.IARPlanner's tests; these runs pin the whole committed pipeline —
// cursor, merge, emit buffer — end to end.

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dacapo"
	"repro/internal/experiments"
	"repro/internal/online"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// diffIAR runs the incremental and from-scratch schedulers over the same
// trace and asserts identical commitment streams, simulation results, and
// replan decisions.
func diffIAR(t *testing.T, label string, tr *trace.Trace, p *profile.Profile, opts core.IAROptions, win, stride int) {
	t.Helper()
	inc := online.NewIAR(p, opts, stride)
	ref := newIARFromScratch(p, opts, stride)
	got, err := online.Run(tr, p, inc, online.Options{Window: win, Config: sim.DefaultConfig(), RecordCalls: true})
	if err != nil {
		t.Fatalf("%s: incremental: %v", label, err)
	}
	want, err := online.Run(tr, p, ref, online.Options{Window: win, Config: sim.DefaultConfig(), RecordCalls: true})
	if err != nil {
		t.Fatalf("%s: from-scratch: %v", label, err)
	}
	if len(got.Schedule) != len(want.Schedule) {
		t.Fatalf("%s: committed %d events, reference committed %d", label, len(got.Schedule), len(want.Schedule))
	}
	for i := range got.Schedule {
		if got.Schedule[i] != want.Schedule[i] {
			t.Fatalf("%s: commit %d is %+v, reference committed %+v", label, i, got.Schedule[i], want.Schedule[i])
		}
	}
	if got.Forced != want.Forced || got.Dropped != want.Dropped {
		t.Fatalf("%s: forced/dropped %d/%d, reference %d/%d", label, got.Forced, got.Dropped, want.Forced, want.Dropped)
	}
	if !reflect.DeepEqual(got.Sim, want.Sim) {
		t.Fatalf("%s: simulation results differ:\nincremental:  %+v\nfrom-scratch: %+v", label, got.Sim, want.Sim)
	}
	if inc.Replans() != ref.Replans() {
		t.Fatalf("%s: %d replans, reference made %d", label, inc.Replans(), ref.Replans())
	}
}

// diffWindows and diffStrides are the ISSUE's matrix; the stride-1 column
// runs on reduced workloads (a from-scratch replan per call is O(N²)).
var (
	diffWindows = []int{64, 512, 4096, 0}
	diffStrides = []int{128, 512}
)

func windowLabel(win int) string {
	if win == 0 {
		return "inf"
	}
	return strconv.Itoa(win)
}

// TestIncrementalIARDifferentialStream sweeps the full window × stride
// matrix on a rendered streaming workload, for the default options and one
// non-default cell of the option space.
func TestIncrementalIARDifferentialStream(t *testing.T) {
	tr, p := streamCorpus(t)
	for _, win := range diffWindows {
		for _, stride := range diffStrides {
			label := "stream/window=" + windowLabel(win) + "/stride=" + strconv.Itoa(stride)
			diffIAR(t, label, tr, p, core.IAROptions{}, win, stride)
		}
	}
	diffIAR(t, "stream/k1", tr, p, core.IAROptions{K: 1}, 512, 128)
	diffIAR(t, "stream/nofill", tr, p,
		core.IAROptions{DisableFillSlack: true, DisableFillGap: true}, 512, 128)
}

// TestIncrementalIARDifferentialCorpus runs the matrix over every
// DaCapo-derived benchmark; the from-scratch reference makes this the
// suite's heaviest differential, so it skips in -short.
func TestIncrementalIARDifferentialCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential is not short")
	}
	for _, w := range corpus(t) {
		for _, win := range diffWindows {
			for _, stride := range diffStrides {
				label := w.Bench.Name + "/window=" + windowLabel(win) + "/stride=" + strconv.Itoa(stride)
				diffIAR(t, label, w.Trace, w.Profile, core.IAROptions{}, win, stride)
			}
		}
	}
}

// TestIncrementalIARDifferentialStride1 pins the densest replan pattern the
// engine can produce — a replan per executed call — on workloads small
// enough that the quadratic from-scratch reference stays fast.
func TestIncrementalIARDifferentialStride1(t *testing.T) {
	b, err := dacapo.ByName("antlr")
	if err != nil {
		t.Fatal(err)
	}
	w, err := b.Load(0.01)
	if err != nil {
		t.Fatal(err)
	}
	spec := &workload.Spec{
		Name: "stride1-stream", Seed: 13, Length: 1500,
		Cohorts: []workload.Cohort{{Bench: "luindex", Scale: 0.02}, {Bench: "fop", Scale: 0.02}},
		Phases: []workload.Phase{
			{Weight: 1, Process: workload.ProcessSteady},
			{Weight: 1, Process: workload.ProcessBursty, Mix: []float64{1, 2}},
		},
	}
	str, sp, err := spec.Render()
	if err != nil {
		t.Fatal(err)
	}
	for _, win := range diffWindows {
		label := "window=" + windowLabel(win) + "/stride=1"
		diffIAR(t, "antlr/"+label, w.Trace, w.Profile, core.IAROptions{}, win, 1)
		diffIAR(t, "stream/"+label, str, sp, core.IAROptions{}, win, 1)
	}
}

// TestIncrementalIARDifferentialOnlineSpecs covers the three pinned
// experiment streams (the ones behind the online study golden) at the
// study-relevant windows.
func TestIncrementalIARDifferentialOnlineSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment streams are not short")
	}
	for _, spec := range experiments.OnlineSpecs() {
		tr, p, err := spec.Render()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, win := range []int{512, 4096} {
			label := spec.Name + "/window=" + windowLabel(win) + "/stride=512"
			diffIAR(t, label, tr, p, core.IAROptions{}, win, 512)
		}
	}
}
