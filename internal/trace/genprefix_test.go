package trace

import (
	"hash/fnv"
	"reflect"
	"testing"
)

// prefixConfigs spans the generator's edge cases: warmup off and
// whole-trace warmup, no core set, single and many phases, bursts on and
// off, a length-0 trace, and a separate draw seed.
func prefixConfigs() []GenConfig {
	base := GenConfig{Name: "p", NumFuncs: 60, Length: 3000, Seed: 11,
		ZipfS: 1.4, Phases: 3, CoreFuncs: 6, CoreShare: 0.5, BurstMean: 3,
		WarmupFrac: 0.1, WarmupCoverage: 0.8}
	noWarm := base
	noWarm.WarmupFrac = 0
	allWarm := base
	allWarm.WarmupFrac = 1
	noCore := base
	noCore.CoreFuncs, noCore.CoreShare = 0, 0
	onePhase := base
	onePhase.Phases, onePhase.BurstMean = 1, 1
	manyPhases := base
	manyPhases.Phases, manyPhases.Length = 7, 1001
	empty := base
	empty.Length = 0
	drawn := base
	drawn.DrawSeed = 99
	return []GenConfig{base, noWarm, allWarm, noCore, onePhase, manyPhases, empty, drawn}
}

// prefixLens are the prefix lengths each test tries against a trace of
// length l: the extremes, a burst-sized cut, and past the end.
func prefixLens(l int) []int {
	return []int{0, 1, 7, l / 3, l - 1, l, l + 5}
}

func TestGeneratePrefixMatchesFull(t *testing.T) {
	for ci, cfg := range prefixConfigs() {
		full := mustGen(cfg)
		if full.Len() != cfg.Length {
			t.Fatalf("config %d: Generate made %d calls, want %d", ci, full.Len(), cfg.Length)
		}
		for _, n := range prefixLens(cfg.Length) {
			if n < 0 {
				continue // l-1 of a length-0 trace
			}
			got, err := GeneratePrefix(cfg, n)
			if err != nil {
				t.Fatalf("config %d, n=%d: %v", ci, n, err)
			}
			want := full.Calls[:min(n, full.Len())]
			if len(got.Calls) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got.Calls, want)) {
				t.Errorf("config %d, n=%d: prefix differs from the full trace's", ci, n)
			}
			if got.Name != full.Name {
				t.Errorf("config %d, n=%d: name %q, want %q", ci, n, got.Name, full.Name)
			}
		}
	}
	if _, err := GeneratePrefix(prefixConfigs()[0], -1); err == nil {
		t.Error("GeneratePrefix accepted a negative length")
	}
}

// TestGenerateFrozen pins Generate's output for the prefix configurations
// to the checksums of the generator before it learned to stop early, so the
// prefix test above cannot pass by both sides drifting together.
func TestGenerateFrozen(t *testing.T) {
	want := []uint64{
		0xb41ea5d85122097b, 0xd790c9c38dcf3ddd, 0xf28569e7b6047682, 0x19df7d9ec92f38ce,
		0xa44120e5276f9007, 0xf0aa94e4d707f2c8, 0xcbf29ce484222325, 0x662ca0c76156d543,
	}
	for ci, cfg := range prefixConfigs() {
		h := fnv.New64a()
		for _, c := range mustGen(cfg).Calls {
			h.Write([]byte{byte(c), byte(c >> 8), byte(c >> 16), byte(c >> 24)})
		}
		if got := h.Sum64(); got != want[ci] {
			t.Errorf("config %d: Generate checksum %#x, want %#x", ci, got, want[ci])
		}
	}
}

func TestInterleavePrefixMatchesFull(t *testing.T) {
	cfgs := prefixConfigs()
	threads := []*Trace{mustGen(cfgs[0]), mustGen(cfgs[1]), mustGen(cfgs[6]), mustGen(cfgs[5])}
	for _, ts := range [][]*Trace{threads, threads[:1], threads[2:3]} {
		full, err := Interleave(41, ts...)
		if err != nil {
			t.Fatal(err)
		}
		lens := make([]int, len(ts))
		for i, th := range ts {
			lens[i] = th.Len()
		}
		for _, n := range prefixLens(full.Len()) {
			if n < 0 {
				continue // l-1 of a length-0 trace
			}
			// Hand each thread only the calls the prefix may need.
			short := make([]*Trace, len(ts))
			for i, th := range ts {
				short[i] = th.Slice(0, min(n, th.Len()))
			}
			got, err := InterleavePrefix(41, lens, n, short...)
			if err != nil {
				t.Fatalf("%d threads, n=%d: %v", len(ts), n, err)
			}
			want := full.Calls[:min(n, full.Len())]
			if len(got.Calls) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got.Calls, want)) {
				t.Errorf("%d threads, n=%d: prefix differs from the full interleave's", len(ts), n)
			}
		}
	}
	lens := []int{threads[0].Len(), threads[1].Len(), threads[2].Len(), threads[3].Len()}
	if _, err := InterleavePrefix(41, lens, 10, threads[0].Slice(0, 3), threads[1], threads[2], threads[3]); err == nil {
		t.Error("InterleavePrefix accepted a thread shorter than the prefix needs")
	}
	if _, err := InterleavePrefix(41, lens[:2], 10, threads...); err == nil {
		t.Error("InterleavePrefix accepted mismatched lengths")
	}
}
