// Command perfbench is the repository's benchmark. It drives the scheduling
// engine's layers from outside, through their public functions, on one of
// four seeded workloads, checks every output against pinned references and
// the paper's invariants, and prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench --workload corpus-offline --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the workload's end-to-end metrics; with
// --trace 1 it carries the per-layer metrics computed from spans the
// benchmark records around each call into a layer, plus the tracing overhead,
// and the spans are written to --spans-dir. README.md documents the
// workloads, the metrics and how to re-pin the references.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/runner"
)

// setupReps is how many times each workload builds its set-up; setup_s is
// the median.
const setupReps = 5

type config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Tiny shrinks every input so a whole workload runs in well under a
	// second (the package tests use it).
	Tiny   bool
	Expect *expectations
}

// report is what a workload run produces.
type report struct {
	Attempted int
	// Failed counts ops that errored or whose output differs from its
	// reference; Undecided counts search ops that ran out of their budget.
	Failed    int
	Undecided int
	E2E       map[string]float64
	Layer     map[string]float64
	Problems  []string
	// Invalid, when set, says why the run's measurements cannot be trusted.
	Invalid string
	// HostScale is calibRefMS over the run's median calibration time: the
	// factor that brings the run's times to the reference host speed.
	HostScale float64
	// rss holds the resident set size sampled right after each op (serve:
	// each fixed-rate window); peak_rss_mb is the highest.
	rss []float64
	// calib holds the calibration kernel's CPU times, sampled between ops.
	calib []float64
	// raw names end-to-end times the workload reports unscaled, because
	// the calibration kernel does not follow them (see serve.go).
	raw map[string]bool
}

func newReport() *report {
	return &report{E2E: map[string]float64{}, Layer: map[string]float64{}}
}

// fail records one failed op.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// sampleRSS records the resident set size after an op. By then the op's
// heap has been touched and not yet given back to the system, so the sample
// stands for the op's peak, without the spikes of the moments in which the
// collector happened to run late.
func (r *report) sampleRSS() error {
	rss, err := rssMiB()
	if err != nil {
		return fmt.Errorf("reading RSS: %w", err)
	}
	r.rss = append(r.rss, rss)
	return nil
}

// sampleHost settles the heap and runs the calibration kernel, outside any
// timed span. The kernel allocates nothing, so a compute op that follows
// starts from the settled heap.
func (r *report) sampleHost() {
	settleHeap()
	r.calib = append(r.calib, calibrate())
}

// hostTimed names the end-to-end times that finish multiplies by
// HostScale; it divides ops_per_s, a rate, by the same factor.
var hostTimed = map[string]bool{"setup_s": true, "op_ms_p50": true, "op_ms_p90": true}

// finish fills the metrics every workload reports and scales its times to
// the reference host speed.
func (r *report) finish() error {
	if len(r.calib) == 0 {
		return errors.New("no calibration sample taken")
	}
	r.HostScale = calibRefMS / median(r.calib)
	for name := range r.E2E {
		switch {
		case r.raw[name]:
		case hostTimed[name]:
			r.E2E[name] *= r.HostScale
		case name == "ops_per_s":
			r.E2E[name] /= r.HostScale
		}
	}
	if r.Attempted > 0 {
		r.E2E["ok_frac"] = float64(r.Attempted-r.Failed-r.Undecided) / float64(r.Attempted)
	}
	if len(r.rss) == 0 {
		return errors.New("no RSS sample taken")
	}
	r.E2E["peak_rss_mb"] = quantile(r.rss, 1)
	return nil
}

// timeSetup runs build setupReps times and returns the median CPU time in
// seconds (see cpuTime). Only the last build's state is kept by the caller.
func timeSetup(build func() error) (float64, error) {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		c0 := cpuTime()
		if err := build(); err != nil {
			return 0, err
		}
		ds = append(ds, (cpuTime() - c0).Seconds())
	}
	return median(ds), nil
}

func runWorkload(name string, cfg config, t *tracer) (*report, error) {
	var rep *report
	var err error
	switch name {
	case wCorpus:
		rep, err = runCorpus(cfg, t)
	case wOnline:
		rep, err = runOnline(cfg, t)
	case wServe:
		rep, err = runServe(cfg, t)
	case wSearch:
		rep, err = runSearch(cfg, t)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	// No op may be answered by the experiment runner's result cache: users
	// computing one row or one schedule never hit it.
	if st := runner.Shared().Stats(); st.JobsRun+st.CacheHits+st.Deduped != 0 {
		rep.fail("the shared experiment runner served %d jobs", st.JobsRun+st.CacheHits+st.Deduped)
	}
	return rep, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result assembles the output line. It carries every metric of the list:
// those the workload measures must be present and finite, and a per-layer
// metric of a layer the workload bypasses reads 0.
func result(name string, traced bool, rep *report) (*resultOut, error) {
	list, vals := endToEnd, rep.E2E
	if traced {
		list, vals = perLayer, rep.Layer
	}
	out := &resultOut{
		Correct:   rep.Failed == 0 && rep.Invalid == "",
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]metricOut{},
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operations attempted", name)
	}
	measured := map[string]bool{}
	for _, m := range specsFor(list, name) {
		measured[m.Name] = true
	}
	for _, m := range list {
		v, ok := vals[m.Name]
		if measured[m.Name] && (!ok || math.IsNaN(v) || math.IsInf(v, 0)) {
			return nil, fmt.Errorf("%s: metric %s missing or not finite", name, m.Name)
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	return out, nil
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload to run: corpus-offline, online-stream, serve-mixed or search-certify")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "measurement time")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	spansDir := flag.String("spans-dir", filepath.Join(".bench_build", "spans"), "where a traced run writes its spans")
	pin := flag.String("pin", "", "recompute the pinned references for the seeds given as arguments and write them to this file")
	flag.Parse()

	exp, err := loadExpectations()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *pin != "" {
		if err := writePins(*pin, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1, Expect: exp}
	t := newTracer()
	rep, err := runWorkload(*workload, cfg, t)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	if rep.Invalid != "" {
		fmt.Fprintln(os.Stderr, "perfbench: INVALID RUN:", rep.Invalid)
	}
	printSummary(rep)
	if cfg.Trace {
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := t.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	out, err := result(*workload, cfg.Trace, rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// printSummary writes every metric the run produced to standard error, so a
// traced or untraced run can be read without parsing the result line.
func printSummary(rep *report) {
	fmt.Fprintf(os.Stderr, "perfbench: attempted=%d failed=%d undecided=%d host_scale=%.4f (README.md names the end-to-end times it scales)\n",
		rep.Attempted, rep.Failed, rep.Undecided, rep.HostScale)
	for _, vals := range []map[string]float64{rep.E2E, rep.Layer} {
		names := make([]string, 0, len(vals))
		for n := range vals {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "  %-34s %.6g\n", n, vals[n])
		}
	}
}
