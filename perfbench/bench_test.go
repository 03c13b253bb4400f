package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

var (
	tinyOnce sync.Once
	tinyExp  *expectations
	tinyErr  error
)

// tinyPins computes references for the tiny inputs once per test binary.
func tinyPins(t *testing.T) *expectations {
	t.Helper()
	tinyOnce.Do(func() { tinyExp, tinyErr = computePins([]int64{1}, true) })
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyExp
}

// tinyConfig runs a workload on tiny inputs; serve-mixed needs a second of
// offered load so the traced half of its requests sees hits and misses.
func tinyConfig(t *testing.T, workload string, traced bool) config {
	secs := 0.05
	if workload == wServe {
		secs = 1
	}
	return config{Seed: 1, Seconds: secs, Trace: traced, Tiny: true, Expect: tinyPins(t)}
}

// layerSpans names the spans a traced run of each workload must record.
var layerSpans = map[string][]string{
	wCorpus: {"dacapo.load", "core.lower_bound", "sim.new_evaluator", "core.iar", "sim.run", "policy.jikes", "policy.v8"},
	wOnline: {"workload.render", "core.iar", "sim.run", "online.run", "online.replan"},
	wServe:  {"loadgen.request", "server.schedule", "direct.compute", "dacapo.load", "core.lower_bound"},
	wSearch: {"astar.beam", "astar.bnb", "exact.solve"},
}

func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			tr := newTracer()
			rep, err := runWorkload(w, tinyConfig(t, w, traced), tr)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if rep.Failed != 0 {
				t.Fatalf("%s traced=%v: %d failed ops: %v", w, traced, rep.Failed, rep.Problems)
			}
			out, err := result(w, traced, rep)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			list := endToEnd
			if traced {
				list = perLayer
			}
			if len(out.Metrics) != len(list) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(out.Metrics), len(list))
			}
			for _, m := range list {
				if got := out.Metrics[m.Name]; got.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, want %q", w, m.Name, got.Unit, m.Unit)
				}
			}
			if !traced {
				continue
			}
			layers := tr.layers()
			for _, name := range layerSpans[w] {
				if layers[name] == nil || layers[name].Count == 0 {
					t.Errorf("%s: traced run recorded no %s spans", w, name)
				}
			}
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			if err := tr.write(path); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCorruptedExpectationFails(t *testing.T) {
	good := tinyPins(t)
	corrupt := func(mod func(e *expectations)) *expectations {
		data, err := json.Marshal(good)
		if err != nil {
			t.Fatal(err)
		}
		var e expectations
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatal(err)
		}
		mod(&e)
		return &e
	}
	// serve-mixed draws only part of its catalogue, so its check is tested
	// on one chosen request by TestServeCheckCatchesWrongResponse.
	cases := map[string]*expectations{
		wCorpus: corrupt(func(e *expectations) { e.Corpus["1"][3].IAR++ }),
		wOnline: corrupt(func(e *expectations) { e.Online["1"]["iar-w64"]++ }),
		wSearch: corrupt(func(e *expectations) { e.Search[1].Optimum-- }),
	}
	for w, exp := range cases {
		cfg := tinyConfig(t, w, false)
		cfg.Expect = exp
		rep, err := runWorkload(w, cfg, newTracer())
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if rep.Failed == 0 {
			t.Errorf("%s: a corrupted reference produced no failed op", w)
		}
	}
}

func TestServeCheckCatchesWrongResponse(t *testing.T) {
	exp := tinyPins(t)
	cat := serveCatalogue(true)
	refs := exp.servePins()
	want := refs[cat[0].ref()]
	refs[cat[0].ref()] = serveRef{MakeSpan: want.MakeSpan + 1, LowerBound: want.LowerBound}
	h, err := startServe(cat, refs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.stop()
	h.do(h.clients[0], &sample{item: 0})
	if h.failed != 1 {
		t.Fatalf("a response differing from its reference gave %d failures: %v", h.failed, h.problems)
	}
}

func TestShippedPinsCoverEverything(t *testing.T) {
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Seeds) != 2 {
		t.Fatalf("want a development and a held-out seed, have %v", exp.Seeds)
	}
	for _, seed := range exp.Seeds {
		if got, want := len(exp.corpusPins(seed)), len(corpusEntries(seed, false)); got != want {
			t.Errorf("seed %d: %d corpus pins, want %d", seed, got, want)
		}
		for _, o := range onlineOps(false) {
			if _, ok := exp.onlinePins(seed)[o.Name]; !ok {
				t.Errorf("seed %d: no online pin for %s", seed, o.Name)
			}
		}
	}
	refs := exp.servePins()
	for _, it := range serveCatalogue(false) {
		if _, ok := refs[it.ref()]; !ok {
			t.Errorf("no serve pin for %s", it.ref())
		}
	}
	pins := exp.searchPins()
	for _, in := range searchInstances(false) {
		if pins[in.String()].Optimum <= 0 {
			t.Errorf("no search optimum for %s", in)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		w := endToEnd[i]
		if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better || m.Bound != w.Bound {
			t.Errorf("end-to-end %d is %+v, want %s %s %s %g", i, m, w.Name, w.Unit, w.Better, w.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		w := perLayer[i]
		if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
			t.Errorf("per-layer %d is %+v, want %s %s %s", i, m, w.Name, w.Unit, w.Better)
		}
	}
}

// TestStopWhenFailedIsSound checks the rule a ladder rate stops by: once
// n/100+2 of a phase's n planned requests took longer than the p99 limit,
// the p99 of whatever was sent is past the limit, however fast the rest.
func TestStopWhenFailedIsSound(t *testing.T) {
	t0 := time.Now()
	for _, n := range []int{1, 50, 99, 100, 101, 250, 1000, 4321} {
		slow := n/100 + 2
		for sent := slow; sent <= n; sent++ {
			ss := make([]sample, sent)
			for i := range ss {
				d := time.Millisecond
				if i < slow {
					d = time.Duration(serveP99LimitMS+1) * time.Millisecond
				}
				ss[i] = sample{due: t0, done: t0.Add(d)}
			}
			if p99 := quantile(values(ss, (*sample).rttMS), 0.99); p99 <= serveP99LimitMS {
				t.Fatalf("n=%d sent=%d: p99 %.1f ms within the limit with %d slow requests", n, sent, p99, slow)
			}
		}
	}
}
