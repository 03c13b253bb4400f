package main

import (
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkIAR/antlr-8   \t     100\t    241000 ns/op\t  1.21 makespan/LB\t       0 allocs/op", "repro")
	if !ok {
		t.Fatal("benchmark line not recognized")
	}
	if b.Name != "BenchmarkIAR/antlr" || b.Procs != 8 || b.Package != "repro" || b.Iterations != 100 {
		t.Fatalf("parsed header wrong: %+v", b)
	}
	want := map[string]float64{"ns/op": 241000, "makespan/LB": 1.21, "allocs/op": 0}
	for unit, v := range want {
		if b.Metrics[unit] != v {
			t.Errorf("metric %s = %v, want %v", unit, b.Metrics[unit], v)
		}
	}
}

func TestParseLineRejectsNonBench(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \trepro\t1.234s",
		"BenchmarkBroken notanumber ns/op",
		"",
	} {
		if _, ok := parseLine(line, ""); ok {
			t.Errorf("line %q accepted as a benchmark", line)
		}
	}
}

func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
		{[]float64{5, 1, 3, 2, 4}, 2, 3, 4},
	} {
		q1, med, q3 := quartiles(tc.v)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.v, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

// TestPairRows pairs the i-th result of each benchmark on both sides,
// counts a win as lower for times and higher for speed-ups, and leaves out
// what one side lacks.
func TestPairRows(t *testing.T) {
	bench := func(name string, ns, speedup float64) Benchmark {
		return Benchmark{Name: name, Package: "repro", Iterations: 1,
			Metrics: map[string]float64{"ns/op": ns, "replan-speedup": speedup}}
	}
	base := Document{Benchmarks: []Benchmark{
		bench("BenchmarkA", 100, 4), bench("BenchmarkOnlyBase", 1, 1),
		bench("BenchmarkA", 110, 4), bench("BenchmarkA", 90, 4),
	}}
	change := Document{Benchmarks: []Benchmark{
		bench("BenchmarkA", 80, 5), bench("BenchmarkA", 120, 3),
		// A third base run has no partner: two pairs.
	}}
	rows := pairRows(base, change)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2 (BenchmarkA's two units): %+v", len(rows), rows)
	}
	ns, sp := rows[0], rows[1]
	if ns.unit != "ns/op" || sp.unit != "replan-speedup" {
		t.Fatalf("units %q, %q; want ns/op, replan-speedup", ns.unit, sp.unit)
	}
	if len(ns.base) != 2 || ns.wins != 1 || sp.wins != 1 {
		t.Errorf("ns/op %d pairs, %d wins; speedup %d wins; want 2, 1, 1", len(ns.base), ns.wins, sp.wins)
	}
	var out strings.Builder
	writePairs(&out, base, change)
	if !strings.Contains(out.String(), "1/2") || strings.Contains(out.String(), "OnlyBase") {
		t.Errorf("unexpected comparison:\n%s", out.String())
	}
}
