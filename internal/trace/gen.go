package trace

import (
	"fmt"
	"math/rand"
)

// GenConfig parameterizes the synthetic call-sequence generator.
//
// The generator substitutes for the paper's Jikes RVM profiling runs of the
// DaCapo suite. It reproduces the structural properties that make compilation
// scheduling interesting:
//
//   - a highly skewed (Zipf-like) invocation-frequency distribution, so a few
//     hot methods dominate and deserve deep optimization;
//   - a phased execution in which working sets of functions become live over
//     time (classes load as the program proceeds), so first appearances are
//     spread across the run rather than front-loaded;
//   - bursty, loop-driven locality (a function's calls cluster in time).
type GenConfig struct {
	// Name labels the produced trace.
	Name string
	// NumFuncs is the number of distinct functions that may appear.
	NumFuncs int
	// Length is the number of invocations to generate.
	Length int
	// Seed drives the deterministic pseudo-random generator. It determines
	// the program's *structure*: which functions are hot, which belong to
	// which phase working set, the first-appearance layout.
	Seed int64
	// DrawSeed, when non-zero, decouples the per-run stochastic draws (the
	// actual sampled call sequence) from the program structure: two configs
	// with the same Seed and different DrawSeeds model two runs of the SAME
	// program on different inputs — same hot functions, different call
	// interleavings. Zero means DrawSeed = Seed.
	DrawSeed int64
	// ZipfS is the Zipf skew parameter (must be > 1; larger = more skewed).
	ZipfS float64
	// Phases is how many working-set phases the run passes through (>= 1).
	Phases int
	// CoreFuncs is the number of always-live "runtime library" functions
	// shared across phases. They are drawn with probability CoreShare.
	CoreFuncs int
	// CoreShare is the probability a call targets the core set (0..1).
	CoreShare float64
	// BurstMean is the mean run length of back-to-back calls to the same
	// function (>= 1); bursts are geometrically distributed.
	BurstMean float64
	// WarmupFrac is the fraction of the trace (0..1) forming a warmup
	// segment that front-loads first appearances, the way Java class loading
	// touches most methods early in a run. Zero disables the segment.
	WarmupFrac float64
	// WarmupCoverage is the fraction of all functions (0..1) introduced
	// during the warmup segment. Ignored when WarmupFrac is zero.
	WarmupCoverage float64
}

// Validate reports the first configuration error, or nil.
func (c *GenConfig) Validate() error {
	switch {
	case c.NumFuncs <= 0:
		return fmt.Errorf("trace: GenConfig.NumFuncs must be positive, got %d", c.NumFuncs)
	case c.Length < 0:
		return fmt.Errorf("trace: GenConfig.Length must be non-negative, got %d", c.Length)
	case c.ZipfS <= 1:
		return fmt.Errorf("trace: GenConfig.ZipfS must exceed 1, got %g", c.ZipfS)
	case c.Phases < 1:
		return fmt.Errorf("trace: GenConfig.Phases must be at least 1, got %d", c.Phases)
	case c.CoreFuncs < 0 || c.CoreFuncs > c.NumFuncs:
		return fmt.Errorf("trace: GenConfig.CoreFuncs out of range: %d of %d", c.CoreFuncs, c.NumFuncs)
	case c.CoreShare < 0 || c.CoreShare > 1:
		return fmt.Errorf("trace: GenConfig.CoreShare out of [0,1]: %g", c.CoreShare)
	case c.BurstMean < 1:
		return fmt.Errorf("trace: GenConfig.BurstMean must be >= 1, got %g", c.BurstMean)
	case c.WarmupFrac < 0 || c.WarmupFrac > 1:
		return fmt.Errorf("trace: GenConfig.WarmupFrac out of [0,1]: %g", c.WarmupFrac)
	case c.WarmupCoverage < 0 || c.WarmupCoverage > 1:
		return fmt.Errorf("trace: GenConfig.WarmupCoverage out of [0,1]: %g", c.WarmupCoverage)
	}
	return nil
}

// Generate produces a deterministic synthetic trace for the configuration.
func Generate(cfg GenConfig) (*Trace, error) { return GeneratePrefix(cfg, cfg.Length) }

// GeneratePrefix returns the first n calls of Generate(cfg) — all of them
// when n >= cfg.Length — and stops drawing there, so a caller that keeps only
// a prefix pays only for the prefix. The warmup and phase lengths still
// derive from cfg.Length, which is what keeps the prefix bit-identical to the
// full trace's.
func GeneratePrefix(cfg GenConfig, n int) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("trace: prefix length must be non-negative, got %d", n)
	}
	if n > cfg.Length {
		n = cfg.Length
	}
	structRng := rand.New(rand.NewSource(cfg.Seed))
	drawSeed := cfg.DrawSeed
	if drawSeed == 0 {
		drawSeed = cfg.Seed
	}
	rng := rand.New(rand.NewSource(drawSeed))

	// A deterministic permutation decouples function IDs from hotness rank,
	// so the hottest function is not always ID 0. It comes from the
	// structure seed: the same program keeps the same hot functions across
	// runs.
	perm := structRng.Perm(cfg.NumFuncs)

	core := perm[:cfg.CoreFuncs]
	rest := perm[cfg.CoreFuncs:]

	// Partition the non-core functions into per-phase working sets.
	phaseSets := make([][]int, cfg.Phases)
	for i := range phaseSets {
		lo := len(rest) * i / cfg.Phases
		hi := len(rest) * (i + 1) / cfg.Phases
		phaseSets[i] = rest[lo:hi]
	}

	var coreZipf *rand.Zipf
	if len(core) > 0 {
		coreZipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(core)-1))
	}

	calls := make([]FuncID, 0, n)

	// Warmup segment: introduce most functions early, one or two calls
	// each, interleaved with draws from the core set — the first-appearance
	// profile of Java class loading and framework initialization.
	warmupLen := int(cfg.WarmupFrac * float64(cfg.Length))
	if warmupLen > 0 {
		introduce := perm[:int(cfg.WarmupCoverage*float64(len(perm)))]
		next := 0
		for emitted := 0; emitted < warmupLen && len(calls) < n; emitted++ {
			// Pace introductions evenly through the segment; the remaining
			// slots go to the already-live core set.
			due := len(introduce) * (emitted + 1) / warmupLen
			switch {
			case next < due && next < len(introduce):
				f := introduce[next]
				next++
				calls = append(calls, FuncID(f))
			case coreZipf != nil:
				calls = append(calls, FuncID(core[coreZipf.Uint64()]))
			default:
				calls = append(calls, FuncID(perm[rng.Intn(len(perm))]))
			}
		}
	}

	// Every warmup slot emits one call, and warmupLen <= cfg.Length, so the
	// full trace's steady part is exactly what the warmup leaves.
	steady := cfg.Length - warmupLen
	for p := 0; p < cfg.Phases && len(calls) < n; p++ {
		phaseLen := steady*(p+1)/cfg.Phases - steady*p/cfg.Phases
		set := phaseSets[p]
		var phaseZipf *rand.Zipf
		if len(set) > 0 {
			phaseZipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(set)-1))
		}
		for emitted := 0; emitted < phaseLen && len(calls) < n; {
			var f int
			switch {
			case coreZipf != nil && (phaseZipf == nil || rng.Float64() < cfg.CoreShare):
				f = core[coreZipf.Uint64()]
			case phaseZipf != nil:
				f = set[phaseZipf.Uint64()]
			default:
				f = perm[rng.Intn(len(perm))]
			}
			burst := 1
			if cfg.BurstMean > 1 {
				// Geometric with mean BurstMean: success prob 1/BurstMean.
				for float64(burst) < 64*cfg.BurstMean && rng.Float64() > 1/cfg.BurstMean {
					burst++
				}
			}
			for k := 0; k < burst && emitted < phaseLen && len(calls) < n; k++ {
				calls = append(calls, FuncID(f))
				emitted++
			}
		}
	}
	return &Trace{Name: cfg.Name, Calls: calls}, nil
}
