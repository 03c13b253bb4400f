package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"repro/internal/astar"
)

// The pinned references. The corpus-offline and online-stream inputs depend
// on the seed, so their references exist for the shipped seeds only (the
// first one was used while writing the benchmark; the second is held out so
// later claims can be confirmed on a seed nobody tuned against). The
// serve-mixed catalogue and the search-certify suite do not depend on the
// seed, so their references cover every run. Other seeds are checked by the
// invariants and by cross-checks inside the run.
//
// Regenerate with: go run . --pin testdata/expected.json 1 2

//go:embed testdata/expected.json
var expectedJSON []byte

type corpusPin struct {
	corpusEntry
	corpusRow
}

type searchPin struct {
	searchInstance
	// Optimum is computed by branch-and-bound under a large node budget,
	// not by the exact solver it checks.
	Optimum int64 `json:"optimum"`
}

type servePin struct {
	Ref string `json:"ref"`
	serveRef
}

type expectations struct {
	Seeds  []int64                     `json:"seeds"`
	Corpus map[string][]corpusPin      `json:"corpus"`
	Online map[string]map[string]int64 `json:"online"`
	Serve  []servePin                  `json:"serve"`
	Search []searchPin                 `json:"search"`
}

func loadExpectations() (*expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("pinned references: %w", err)
	}
	return &e, nil
}

func seedKey(seed int64) string { return strconv.FormatInt(seed, 10) }

// corpusPins returns the seed's pinned rows by entry, or nil.
func (e *expectations) corpusPins(seed int64) map[string]corpusRow {
	if e == nil {
		return nil
	}
	var out map[string]corpusRow
	for _, p := range e.Corpus[seedKey(seed)] {
		if out == nil {
			out = map[string]corpusRow{}
		}
		out[p.corpusEntry.String()] = p.corpusRow
	}
	return out
}

// onlinePins returns the seed's pinned make-spans by op name, or nil.
func (e *expectations) onlinePins(seed int64) map[string]int64 {
	if e == nil {
		return nil
	}
	return e.Online[seedKey(seed)]
}

func (e *expectations) servePins() map[string]serveRef {
	if e == nil || len(e.Serve) == 0 {
		return nil
	}
	out := map[string]serveRef{}
	for _, p := range e.Serve {
		out[p.Ref] = p.serveRef
	}
	return out
}

func (e *expectations) searchPins() map[string]searchPin {
	if e == nil {
		return nil
	}
	out := map[string]searchPin{}
	for _, p := range e.Search {
		out[p.searchInstance.String()] = p
	}
	return out
}

// pinOptimumNodes is the branch-and-bound budget for computing optima.
const pinOptimumNodes = 1 << 22

// computePins computes every reference for the seeds at the given size.
func computePins(seeds []int64, tiny bool) (*expectations, error) {
	e := &expectations{Seeds: seeds, Corpus: map[string][]corpusPin{}, Online: map[string]map[string]int64{}}
	for _, seed := range seeds {
		entries := corpusEntries(seed, tiny)
		ws, err := loadCorpus(entries, nil)
		if err != nil {
			return nil, err
		}
		for _, en := range entries {
			row, err := corpusOp(en, ws[en.load()], nil, noSpan)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", en, err)
			}
			e.Corpus[seedKey(seed)] = append(e.Corpus[seedKey(seed)], corpusPin{en, row})
		}

		in, err := setupOnline(onlineSpec(seed, tiny), nil)
		if err != nil {
			return nil, err
		}
		pins := map[string]int64{"lower_bound": in.lowerBound}
		for _, o := range onlineOps(tiny) {
			out, err := onlineRunOp(o, in, nil, noSpan)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", o.Name, err)
			}
			pins[o.Name] = out.res.Sim.MakeSpan
		}
		e.Online[seedKey(seed)] = pins
	}

	seen := map[string]bool{}
	for _, it := range serveCatalogue(tiny) {
		if seen[it.ref()] {
			continue
		}
		seen[it.ref()] = true
		r, err := directCompute(it, nil, noSpan, noSpan)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", it.ref(), err)
		}
		e.Serve = append(e.Serve, servePin{Ref: it.ref(), serveRef: r})
	}

	ins, err := setupSearch(searchInstances(tiny))
	if err != nil {
		return nil, err
	}
	for _, in := range ins {
		res, err := astar.BnBSearch(in.tr, in.p, astar.BnBOptions{MaxNodes: pinOptimumNodes, Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("%s: optimum: %w", in.inst, err)
		}
		e.Search = append(e.Search, searchPin{searchInstance: in.inst, Optimum: res.MakeSpan})
	}
	return e, nil
}

// writePins recomputes the references for the seeds and writes them.
func writePins(path string, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("--pin needs the seeds as arguments")
	}
	var seeds []int64
	for _, a := range args {
		s, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			return fmt.Errorf("seed %q: %w", a, err)
		}
		seeds = append(seeds, s)
	}
	e, err := computePins(seeds, false)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
