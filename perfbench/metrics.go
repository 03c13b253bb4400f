package main

// The benchmark's metric catalogue. BENCHMARK.json at the repository root
// lists the same names, units and directions; TestBenchmarkJSONMatches keeps
// the two in step.

const (
	wCorpus = "corpus-offline"
	wOnline = "online-stream"
	wServe  = "serve-mixed"
	wSearch = "search-certify"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{wCorpus, wOnline, wServe, wSearch}

// compute names the three closed-loop compute workloads.
var compute = []string{wCorpus, wOnline, wSearch}

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (zero for
	// per-layer metrics, which carry no bound).
	Bound float64
	// On lists the workloads whose ops call the metric's layer. A traced
	// run of any other workload reports a per-layer metric as 0: the layer
	// is bypassed there. README.md gives each per-layer metric's layer and
	// the end-to-end metric it should move.
	On []string
}

// Every workload reports every end-to-end metric: the driver of a run
// expects all of them in each result.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, On: workloadNames},
	{Name: "ok_frac", Unit: "fraction", Better: "higher", Bound: 0.02, On: workloadNames},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25, On: workloadNames},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, On: workloadNames},
	{Name: "makespan_gap", Unit: "ratio", Better: "lower", Bound: 0.01, On: workloadNames},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, On: workloadNames},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25, On: workloadNames},
}

var perLayer = []metricSpec{
	{Name: "core.iar_ms", Unit: "ms", Better: "lower", On: []string{wCorpus, wServe}},
	{Name: "core.iar_alloc_kb", Unit: "KiB", Better: "lower", On: []string{wCorpus, wServe}},
	{Name: "core.iar_warm_ratio", Unit: "fraction", Better: "higher", On: []string{wCorpus}},
	{Name: "core.lower_bound_ms", Unit: "ms", Better: "lower", On: []string{wCorpus}},
	{Name: "sim.run_ms", Unit: "ms", Better: "lower", On: []string{wCorpus}},
	{Name: "sim.run_alloc_kb", Unit: "KiB", Better: "lower", On: []string{wCorpus}},
	{Name: "sim.delta_fast_ratio", Unit: "fraction", Better: "higher", On: []string{wCorpus}},
	{Name: "policy.jikes_ms", Unit: "ms", Better: "lower", On: []string{wCorpus}},
	{Name: "policy.v8_ms", Unit: "ms", Better: "lower", On: []string{wCorpus}},
	{Name: "dacapo.load_ms", Unit: "ms", Better: "lower", On: []string{wCorpus, wServe}},
	{Name: "workload.render_ms", Unit: "ms", Better: "lower", On: []string{wOnline}},
	{Name: "online.observe_ns_per_call", Unit: "ns", Better: "lower", On: []string{wOnline}},
	{Name: "online.engine_ns_per_call", Unit: "ns", Better: "lower", On: []string{wOnline}},
	{Name: "online.replan_us", Unit: "us", Better: "lower", On: []string{wOnline}},
	{Name: "online.replan_us.first_quarter", Unit: "us", Better: "lower", On: []string{wOnline}},
	{Name: "online.replan_us.last_quarter", Unit: "us", Better: "lower", On: []string{wOnline}},
	{Name: "online.dirty_skip_ratio", Unit: "fraction", Better: "higher", On: []string{wOnline}},
	{Name: "online.forced_ratio", Unit: "fraction", Better: "lower", On: []string{wOnline}},
	{Name: "online.dropped", Unit: "count", Better: "lower", On: []string{wOnline}},
	{Name: "rtt_ms_p50.low", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "rtt_ms_p99.low", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "rtt_ms_p50.high", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "rtt_ms_p99.high", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "max_rps", Unit: "1/s", Better: "higher", On: []string{wServe}},
	{Name: "server.rtt_ms_p50.hit", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "server.rtt_ms_p50.miss", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "server.rtt_ms_p99.miss", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "server.miss_ms.iar", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "server.miss_ms.jikes", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "server.miss_ms.v8", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "server.miss_ms.online-iar", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "server.miss_overhead_ms_p50", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "server.hit_ratio", Unit: "fraction", Better: "higher", On: []string{wServe}},
	{Name: "server.coalesced", Unit: "count", Better: "higher", On: []string{wServe}},
	{Name: "server.queue_wait_ms_avg", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "server.rejected_frac", Unit: "fraction", Better: "lower", On: []string{wServe}},
	{Name: "loadgen.lag_ms_p99", Unit: "ms", Better: "lower", On: []string{wServe}},
	{Name: "exact.solve_ms", Unit: "ms", Better: "lower", On: []string{wSearch}},
	{Name: "exact.nodes_expanded", Unit: "count", Better: "lower", On: []string{wSearch}},
	{Name: "exact.bound_pruned", Unit: "count", Better: "higher", On: []string{wSearch}},
	{Name: "exact.table_hits", Unit: "count", Better: "higher", On: []string{wSearch}},
	{Name: "exact.conflicts", Unit: "count", Better: "lower", On: []string{wSearch}},
	{Name: "exact.states_stored", Unit: "count", Better: "lower", On: []string{wSearch}},
	{Name: "exact.sat_refuted_ratio", Unit: "fraction", Better: "higher", On: []string{wSearch}},
	{Name: "astar.beam_ms", Unit: "ms", Better: "lower", On: []string{wSearch}},
	{Name: "astar.bnb_ms", Unit: "ms", Better: "lower", On: []string{wSearch}},
	{Name: "astar.bnb_nodes_expanded", Unit: "count", Better: "lower", On: []string{wSearch}},
	{Name: "astar.bnb_table_hits", Unit: "count", Better: "higher", On: []string{wSearch}},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower", On: workloadNames},
}

// specsFor returns the metrics of the list that the workload measures.
func specsFor(list []metricSpec, workload string) []metricSpec {
	var out []metricSpec
	for _, m := range list {
		for _, w := range m.On {
			if w == workload {
				out = append(out, m)
				break
			}
		}
	}
	return out
}
