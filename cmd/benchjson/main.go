// Command benchjson converts `go test -bench` output into a machine-readable
// JSON document. It reads the benchmark log from stdin and writes one JSON
// object with every benchmark's iteration count and metrics — the standard
// ns/op, B/op and allocs/op plus any custom b.ReportMetric units (the
// normalized make-span columns of the root benchmarks).
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem ./... | benchjson -o BENCH_core.json
//
// With -pair it compares two logs instead, a base and a change, written by
// running the two test binaries in alternation (make bench-pair): the i-th
// result of a benchmark in one log pairs with its i-th result in the other.
// For every benchmark and unit it prints both sides' median and quartiles
// and how many pairs the change won:
//
//	benchjson -pair base.txt change.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark (and sub-benchmark) name without the -P GOMAXPROCS
	// suffix.
	Name string `json:"name"`
	// Package is the import path from the preceding pkg: header, if any.
	Package string `json:"package,omitempty"`
	// Procs is the GOMAXPROCS suffix of the name (0 if absent).
	Procs int `json:"procs,omitempty"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// Metrics maps a unit (ns/op, allocs/op, makespan/LB, ...) to its value.
	Metrics map[string]float64 `json:"metrics"`
}

// Document is the emitted JSON root.
type Document struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parseLine parses one benchmark result line, or returns false for headers,
// PASS/ok trailers, and anything else go test prints.
func parseLine(line, pkg string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{
		Name:       fields[0],
		Package:    pkg,
		Iterations: iters,
		Metrics:    make(map[string]float64, (len(fields)-2)/2),
	}
	// Split the trailing -P GOMAXPROCS marker off the last name element.
	if i := strings.LastIndex(b.Name, "-"); i > 0 && !strings.Contains(b.Name[i:], "/") {
		if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], procs
		}
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// readLog parses a benchmark log into its document, echoing each line to
// echo when it is not nil.
func readLog(r io.Reader, echo io.Writer) (Document, error) {
	var doc Document
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		default:
			if b, ok := parseLine(line, pkg); ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return doc, err
	}
	if len(doc.Benchmarks) == 0 {
		return doc, fmt.Errorf("benchjson: no benchmark lines found")
	}
	return doc, nil
}

func run(out string) error {
	// go test writes the log to stdout too when it is piped; echo it so the
	// human-readable form still lands in the terminal or CI log.
	doc, err := readLog(os.Stdin, os.Stderr)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" || out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// higherIsBetter reports the units where a larger value wins a pair:
// speed-ups and rates. Every other unit (times, bytes, allocations,
// make-span ratios, counts) wins lower.
func higherIsBetter(unit string) bool {
	return strings.Contains(unit, "speedup") || strings.HasSuffix(unit, "/s")
}

// quartiles returns the 25th, 50th and 75th percentiles of v, linearly
// interpolated between order statistics; v is sorted in place.
func quartiles(v []float64) (q1, med, q3 float64) {
	slices.Sort(v)
	at := func(q float64) float64 {
		x := q * float64(len(v)-1)
		i := int(x)
		if i+1 >= len(v) {
			return v[len(v)-1]
		}
		return v[i] + (x-float64(i))*(v[i+1]-v[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// pairRow is one benchmark and unit of a paired comparison.
type pairRow struct {
	name, unit   string
	base, change []float64 // in run order, one per pair
	wins         int       // pairs the change won
}

// pairRows pairs the i-th result of each benchmark in base with its i-th
// result in change, per unit, in the base log's order of first appearance.
// A benchmark or unit missing from either side is left out.
func pairRows(base, change Document) []pairRow {
	key := func(b Benchmark) string { return b.Package + " " + b.Name }
	byName := func(doc Document) map[string][]Benchmark {
		m := make(map[string][]Benchmark)
		for _, b := range doc.Benchmarks {
			m[key(b)] = append(m[key(b)], b)
		}
		return m
	}
	bs, cs := byName(base), byName(change)
	var rows []pairRow
	seen := make(map[string]bool)
	for _, b := range base.Benchmarks {
		k := key(b)
		if seen[k] {
			continue
		}
		seen[k] = true
		bl, cl := bs[k], cs[k]
		n := min(len(bl), len(cl))
		if n == 0 {
			continue
		}
		units := make([]string, 0, len(b.Metrics))
		for u := range b.Metrics {
			units = append(units, u)
		}
		slices.Sort(units)
		for _, u := range units {
			r, higher := pairRow{name: b.Name, unit: u}, higherIsBetter(u)
			for i := 0; i < n; i++ {
				bv, bok := bl[i].Metrics[u]
				cv, cok := cl[i].Metrics[u]
				if !bok || !cok {
					continue
				}
				r.base, r.change = append(r.base, bv), append(r.change, cv)
				if higher && cv > bv || !higher && cv < bv {
					r.wins++
				}
			}
			if len(r.base) > 0 {
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// writePairs prints the paired comparison of two benchmark logs.
func writePairs(w io.Writer, base, change Document) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tunit\tbase median\t[q1, q3]\tchange median\t[q1, q3]\tdelta\twins/N")
	for _, r := range pairRows(base, change) {
		n := len(r.base)
		bq1, bm, bq3 := quartiles(slices.Clone(r.base))
		cq1, cm, cq3 := quartiles(slices.Clone(r.change))
		delta := "-"
		if bm != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(cm-bm)/bm)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t[%.4g, %.4g]\t%.4g\t[%.4g, %.4g]\t%s\t%d/%d\n",
			r.name, r.unit, bm, bq1, bq3, cm, cq1, cq3, delta, r.wins, n)
	}
	tw.Flush()
}

// runPair reads the two logs and prints their paired comparison.
func runPair(basePath, changePath string) error {
	var docs [2]Document
	for i, path := range []string{basePath, changePath} {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		docs[i], err = readLog(f, nil)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	writePairs(os.Stdout, docs[0], docs[1])
	return nil
}

func main() {
	out := flag.String("o", "-", "output file (- for stdout)")
	pair := flag.Bool("pair", false, "compare two logs, base and change, given as arguments")
	flag.Parse()
	var err error
	switch {
	case *pair && flag.NArg() == 2:
		err = runPair(flag.Arg(0), flag.Arg(1))
	case *pair:
		err = fmt.Errorf("benchjson: -pair needs two logs, base and change")
	default:
		err = run(*out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
