package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"repro/internal/astar"
	"repro/internal/core"
	"repro/internal/dacapo"
	"repro/internal/exact"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Input bounds for inline payloads. They keep a single request's work within
// what one worker can reasonably own; the HTTP body cap rejects most
// oversized payloads before they reach the decoder.
const (
	// MaxInlineCalls bounds an inline trace's call count.
	MaxInlineCalls = 1 << 20
	// MaxInlineFuncs bounds an inline profile's function count.
	MaxInlineFuncs = 1 << 16
	// MaxInlineLevels bounds an inline profile's level count (BnB packs a
	// function's compiled set into one byte, so 8 is also the search limit).
	MaxInlineLevels = 8
	// MaxScale bounds the corpus trace-length multiplier.
	MaxScale = 64.0
)

// customSamplePeriod is the Jikes sampler period assumed for inline
// workloads, matching the bring-your-own-measurements path of the CLI.
const customSamplePeriod = 400000

// Algorithms lists the schedulers a request may ask for, in the order the
// /algorithms endpoint reports them.
var Algorithms = []string{"iar", "astar", "beam", "bnb", "exact", "jikes", "v8", "online-iar"}

// TracePayload is an inline call sequence.
type TracePayload struct {
	// Name is an optional label, echoed back as the response's bench name.
	Name string `json:"name,omitempty"`
	// Calls is the call sequence as dense function IDs.
	Calls []trace.FuncID `json:"calls"`
}

// FuncPayload is one function's timing row of an inline profile.
type FuncPayload struct {
	Name string `json:"name,omitempty"`
	Size int64  `json:"size,omitempty"`
	// Compile[l] / Exec[l] are the per-level compile and per-call execution
	// times in ticks; both must have exactly Levels entries, with compile
	// times non-decreasing and execution times non-increasing across levels.
	Compile []int64 `json:"compile"`
	Exec    []int64 `json:"exec"`
}

// ProfilePayload is an inline timing profile.
type ProfilePayload struct {
	Levels int           `json:"levels"`
	Funcs  []FuncPayload `json:"funcs"`
}

// ScheduleRequest is the POST /schedule payload. Exactly one of Bench or the
// Trace+Profile pair selects the workload.
type ScheduleRequest struct {
	// Algo is the scheduler to run: iar, astar, beam, bnb, exact (the
	// threshold-escalation optimality oracle), jikes, v8, or online-iar (the
	// bounded-lookahead replanning variant).
	Algo string `json:"algo"`
	// Bench names a built-in corpus entry (the synthetic DaCapo suite).
	Bench string `json:"bench,omitempty"`
	// Scale multiplies the corpus trace length (corpus requests only;
	// 0 means 1.0).
	Scale float64 `json:"scale,omitempty"`
	// Trace and Profile carry an inline workload instead of a corpus name.
	Trace   *TracePayload   `json:"trace,omitempty"`
	Profile *ProfilePayload `json:"profile,omitempty"`
	// Model picks the cost-benefit model: "default" (estimated, Jikes-like)
	// or "oracle". Empty means default.
	Model string `json:"model,omitempty"`
	// MaxCalls, when positive, truncates the workload to its first MaxCalls
	// calls — the knob that makes the exact searches (astar, bnb) feasible
	// on corpus entries, as in the paper's §6.2.5 study.
	MaxCalls int `json:"max_calls,omitempty"`
	// TimeoutMS, when positive, bounds the request's wall time; the server
	// clamps it to its configured maximum and answers 504 when it expires.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxNodes, when positive, overrides the search node budget (astar,
	// bnb, and exact only).
	MaxNodes int `json:"max_nodes,omitempty"`
	// BeamWidth, when positive, overrides the beam width (beam only).
	BeamWidth int `json:"beam_width,omitempty"`
	// Window, when positive, bounds the online scheduler's lookahead to that
	// many calls (online-iar only; 0 means unbounded).
	Window int `json:"window,omitempty"`
	// Tenant attributes the request for admission control and per-tenant
	// accounting. The X-Tenant header overrides it; empty means the shared
	// "default" tenant. Tenants never share cache entries.
	Tenant string `json:"tenant,omitempty"`
}

// ScheduleEvent is one compilation event of a returned schedule.
type ScheduleEvent struct {
	Func  int32  `json:"func"`
	Level int    `json:"level"`
	Name  string `json:"name,omitempty"`
}

// SearchStats reports the tree-search counters for astar/beam/bnb/exact
// requests.
type SearchStats struct {
	NodesExpanded  int  `json:"nodes_expanded"`
	NodesAllocated int  `json:"nodes_allocated"`
	TableHits      int  `json:"table_hits,omitempty"`
	BoundPruned    int  `json:"bound_pruned,omitempty"`
	Complete       bool `json:"complete"`
}

// ScheduleResponse is the POST /schedule result.
type ScheduleResponse struct {
	Algo        string `json:"algo"`
	Bench       string `json:"bench"`
	Calls       int    `json:"calls"`
	UniqueFuncs int    `json:"unique_funcs"`
	// MakeSpan is the simulated finish time of the schedule; LowerBound the
	// §5.2 true-times lower bound on any schedule of the workload; Gap
	// their ratio (1 when the lower bound is zero).
	MakeSpan   int64   `json:"make_span"`
	LowerBound int64   `json:"lower_bound"`
	Gap        float64 `json:"gap"`
	// Bubbles is the total execution-worker stall time inside MakeSpan.
	Bubbles  int64           `json:"bubbles"`
	Schedule []ScheduleEvent `json:"schedule"`
	Search   *SearchStats    `json:"search,omitempty"`
}

// errorResponse is the JSON error body.
type errorResponse struct {
	Error string `json:"error"`
}

// requestError is a client-fault error carrying the HTTP status it maps to.
type requestError struct {
	status int
	msg    string
}

func (e *requestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &requestError{status: 400, msg: fmt.Sprintf(format, args...)}
}

// decodeScheduleRequest parses and validates a request body. Unknown fields
// are rejected so client typos fail loudly instead of silently running the
// default.
func decodeScheduleRequest(r io.Reader) (*ScheduleRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req ScheduleRequest
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, &requestError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
		}
		return nil, badRequest("malformed request: %v", err)
	}
	// A second document in the body is as malformed as a syntax error.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, badRequest("malformed request: trailing data after the JSON document")
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// validate checks every field against the request contract.
func (req *ScheduleRequest) validate() error {
	algoOK := false
	for _, a := range Algorithms {
		if req.Algo == a {
			algoOK = true
			break
		}
	}
	if !algoOK {
		return badRequest("unknown algorithm %q (want one of iar, astar, beam, bnb, exact, jikes, v8, online-iar)", req.Algo)
	}
	inline := req.Trace != nil || req.Profile != nil
	if inline && req.Bench != "" {
		return badRequest("use either bench or trace+profile, not both")
	}
	if !inline && req.Bench == "" {
		return badRequest("missing workload: set bench or an inline trace+profile pair")
	}
	if inline {
		if req.Trace == nil || req.Profile == nil {
			return badRequest("an inline workload needs both trace and profile")
		}
		if req.Scale != 0 {
			return badRequest("scale applies to corpus benchmarks only")
		}
		if len(req.Trace.Calls) > MaxInlineCalls {
			return badRequest("inline trace has %d calls, limit %d", len(req.Trace.Calls), MaxInlineCalls)
		}
		if len(req.Profile.Funcs) == 0 {
			return badRequest("inline profile has no functions")
		}
		if len(req.Profile.Funcs) > MaxInlineFuncs {
			return badRequest("inline profile has %d functions, limit %d", len(req.Profile.Funcs), MaxInlineFuncs)
		}
		if req.Profile.Levels < 1 || req.Profile.Levels > MaxInlineLevels {
			return badRequest("inline profile levels must be in [1,%d], got %d", MaxInlineLevels, req.Profile.Levels)
		}
	} else {
		if req.Scale < 0 || req.Scale > MaxScale {
			return badRequest("scale must be in (0,%g], got %g", MaxScale, req.Scale)
		}
	}
	if req.Model != "" && req.Model != "default" && req.Model != "oracle" {
		return badRequest("unknown model %q (want default or oracle)", req.Model)
	}
	if req.MaxCalls < 0 {
		return badRequest("max_calls must be non-negative, got %d", req.MaxCalls)
	}
	if req.TimeoutMS < 0 {
		return badRequest("timeout_ms must be non-negative, got %d", req.TimeoutMS)
	}
	if req.MaxNodes < 0 {
		return badRequest("max_nodes must be non-negative, got %d", req.MaxNodes)
	}
	if req.BeamWidth < 0 {
		return badRequest("beam_width must be non-negative, got %d", req.BeamWidth)
	}
	if req.Window < 0 {
		return badRequest("window must be non-negative, got %d", req.Window)
	}
	if req.Window > 0 && req.Algo != "online-iar" {
		return badRequest("window applies to online-iar only")
	}
	if err := validTenant(req.Tenant); err != nil {
		return err
	}
	return nil
}

// tenant resolves the request's effective tenant (DefaultTenant when unset).
func (req *ScheduleRequest) tenant() string {
	if req.Tenant == "" {
		return DefaultTenant
	}
	return req.Tenant
}

// timeout resolves the request's effective deadline against the server's
// default and cap.
func (req *ScheduleRequest) timeout(def, max time.Duration) time.Duration {
	d := def
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if d > max {
		d = max
	}
	return d
}

// fingerprint renders the request's cache identity through runner.Key, the
// engine's canonical job fingerprint. Corpus workloads are identified by
// name+scale; inline ones by an FNV-64a content hash over the exact trace
// and profile numbers, so equal payloads coalesce and any changed tick
// misses.
func (req *ScheduleRequest) fingerprint() string {
	k := runner.Key{
		Experiment: "serve",
		Benchmark:  req.Bench,
		Scheme:     req.Algo,
		Scale:      req.Scale,
		Detail: fmt.Sprintf("model=%s maxcalls=%d maxnodes=%d beam=%d window=%d tenant=%s inline=%x",
			req.Model, req.MaxCalls, req.MaxNodes, req.BeamWidth, req.Window, req.tenant(), req.contentHash()),
	}
	return k.Fingerprint()
}

// contentHash hashes an inline payload's content (0 for corpus requests).
func (req *ScheduleRequest) contentHash() uint64 {
	if req.Trace == nil || req.Profile == nil {
		return 0
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	h.Write([]byte(req.Trace.Name))
	put(int64(len(req.Trace.Calls)))
	for _, c := range req.Trace.Calls {
		put(int64(c))
	}
	put(int64(req.Profile.Levels))
	for _, f := range req.Profile.Funcs {
		h.Write([]byte(f.Name))
		put(f.Size)
		for _, v := range f.Compile {
			put(v)
		}
		for _, v := range f.Exec {
			put(v)
		}
	}
	return h.Sum64()
}

// workload materializes the request's trace and profile: a corpus entry
// loaded at the requested scale, or the inline payload validated into the
// library types. MaxCalls truncation happens here so everything downstream
// (fingerprint excepted — it already encodes MaxCalls) sees the final
// instance; a corpus entry generates only its first MaxCalls calls, and its
// profile is the benchmark's shared one.
func (req *ScheduleRequest) workload() (*dacapo.Workload, error) {
	var w *dacapo.Workload
	if req.Bench != "" {
		b, err := dacapo.ByName(req.Bench)
		if err != nil {
			return nil, &requestError{status: 404, msg: err.Error()}
		}
		scale := req.Scale
		if scale == 0 {
			scale = 1.0
		}
		w, err = b.LoadPrefix(scale, req.MaxCalls)
		if err != nil {
			return nil, badRequest("loading %s: %v", req.Bench, err)
		}
	} else {
		p := &profile.Profile{Levels: req.Profile.Levels, Funcs: make([]profile.FuncTimes, len(req.Profile.Funcs))}
		for i, f := range req.Profile.Funcs {
			size := f.Size
			if size == 0 {
				size = 1
			}
			p.Funcs[i] = profile.FuncTimes{Name: f.Name, Size: size, Compile: f.Compile, Exec: f.Exec}
		}
		if err := p.Validate(); err != nil {
			return nil, badRequest("inline profile: %v", err)
		}
		tr := trace.New(req.Trace.Name, req.Trace.Calls)
		if err := tr.Validate(p.NumFuncs()); err != nil {
			return nil, badRequest("inline trace: %v", err)
		}
		name := tr.Name
		if name == "" {
			name = "inline"
		}
		if req.MaxCalls > 0 && req.MaxCalls < tr.Len() {
			tr = tr.Slice(0, req.MaxCalls)
		}
		w = &dacapo.Workload{
			Bench:   dacapo.Benchmark{Name: name, Funcs: p.NumFuncs(), SamplePeriod: customSamplePeriod},
			Trace:   tr,
			Profile: p,
		}
	}
	return w, nil
}

// execute runs the requested algorithm on the workload under ctx and builds
// the response. Search algorithms observe ctx directly; simulator replays
// observe it through Options.Interrupt. Cancellation surfaces as a ctx-style
// error the handler maps to 504/503. pl backs the iar path (nil means a
// fresh planner); the schedule it produces aliases the planner but is
// consumed — simulated and marshalled — before execute's caller returns. m, which may
// be nil, receives the online scheduler's cost accounting.
func execute(ctx context.Context, req *ScheduleRequest, w *dacapo.Workload, pl *core.IARPlanner, m *obs.Metrics) (*ScheduleResponse, error) {
	tr, p := w.Trace, w.Profile
	var model profile.CostModel
	if req.Model == "oracle" {
		model = w.Oracle()
	} else {
		model = w.DefaultModel()
	}
	cfg := sim.Config{CompileWorkers: 1}
	opts := sim.Options{Interrupt: ctx.Done()}

	// The reported bound is always the §5.2 bound over the true times —
	// the model only steers the schedulers that consume it (iar, jikes);
	// reporting a bound computed from estimated times could place the gap
	// below 1 and mean nothing.
	resp := &ScheduleResponse{
		Algo:        req.Algo,
		Bench:       w.Bench.Name,
		Calls:       tr.Len(),
		UniqueFuncs: tr.UniqueFuncs(),
		LowerBound:  core.LowerBound(tr, p),
	}

	var (
		sched  sim.Schedule
		simRes *sim.Result
		err    error
	)
	switch req.Algo {
	case "iar":
		if pl == nil {
			pl = new(core.IARPlanner)
		}
		sched, err = pl.IAR(tr, p, core.IAROptions{Model: model})
		if err != nil {
			return nil, badRequest("iar: %v", err)
		}
	case "online-iar":
		var res *online.Result
		res, err = online.Run(tr, p, online.NewIAR(p, core.IAROptions{Model: model}, 0), online.Options{
			Window:    req.Window,
			Config:    cfg,
			Interrupt: ctx.Done(),
			Metrics:   m,
		})
		if err != nil {
			if errors.Is(err, sim.ErrInterrupted) {
				return nil, err
			}
			return nil, badRequest("online-iar: %v", err)
		}
		sched = res.Schedule
		simRes = res.Sim
	case "astar", "beam", "bnb":
		var sr *astar.Result
		switch req.Algo {
		case "astar":
			sr, err = astar.SearchContext(ctx, tr, p, astar.Options{MaxNodes: req.MaxNodes})
		case "beam":
			sr, err = astar.BeamSearchContext(ctx, tr, p, astar.BeamOptions{Width: req.BeamWidth, Workers: 1})
		case "bnb":
			sr, err = astar.BnBSearchContext(ctx, tr, p, astar.BnBOptions{MaxNodes: req.MaxNodes, Workers: 1})
		}
		if err != nil {
			if errors.Is(err, astar.ErrCancelled) {
				return nil, err
			}
			if errors.Is(err, astar.ErrBudgetExhausted) {
				return nil, &requestError{status: 422,
					msg: fmt.Sprintf("%s: %v (the instance is beyond the search budget; lower max_calls or raise max_nodes)", req.Algo, err)}
			}
			return nil, badRequest("%s: %v", req.Algo, err)
		}
		sched = sr.Schedule
		resp.Search = &SearchStats{
			NodesExpanded:  sr.NodesExpanded,
			NodesAllocated: sr.NodesAllocated,
			TableHits:      sr.TableHits,
			BoundPruned:    sr.BoundPruned,
			Complete:       sr.Complete,
		}
	case "exact":
		var er *exact.Result
		er, err = exact.SolveContext(ctx, tr, p, exact.Options{MaxNodes: req.MaxNodes})
		if err != nil {
			if errors.Is(err, exact.ErrCancelled) {
				return nil, err
			}
			if errors.Is(err, exact.ErrBudgetExhausted) {
				return nil, &requestError{status: 422,
					msg: fmt.Sprintf("exact: %v (the instance is beyond the search budget; lower max_calls or raise max_nodes)", err)}
			}
			return nil, badRequest("exact: %v", err)
		}
		sched = er.Schedule
		resp.Search = &SearchStats{
			NodesExpanded:  er.NodesExpanded,
			NodesAllocated: er.NodesAllocated,
			TableHits:      er.TableHits,
			BoundPruned:    er.BoundPruned,
			Complete:       er.Complete,
		}
	case "jikes":
		pol, perr := policy.NewJikes(model, p.NumFuncs(), w.Bench.SamplePeriod)
		if perr != nil {
			return nil, badRequest("jikes: %v", perr)
		}
		simRes, err = sim.RunPolicy(tr, p, pol, cfg, opts)
		if err != nil {
			return nil, err
		}
	case "v8":
		p2, perr := w.TwoLevelProfile()
		if perr != nil {
			return nil, badRequest("v8: %v", perr)
		}
		pol, perr := policy.NewV8(1)
		if perr != nil {
			return nil, badRequest("v8: %v", perr)
		}
		simRes, err = sim.RunPolicy(tr, p2, pol, cfg, opts)
		if err != nil {
			return nil, err
		}
		p = p2
		resp.LowerBound = core.LowerBound(tr, p2)
	}

	if simRes == nil {
		// Static schedules (iar and the searches) are replayed once to
		// report the make-span and stall breakdown.
		simRes, err = sim.Run(tr, p, sched, cfg, opts)
		if err != nil {
			return nil, err
		}
	}
	resp.MakeSpan = simRes.MakeSpan
	resp.Bubbles = simRes.TotalBubble
	if resp.LowerBound > 0 {
		resp.Gap = float64(resp.MakeSpan) / float64(resp.LowerBound)
	} else {
		resp.Gap = 1
	}
	if sched == nil {
		// Online policies produce their schedule as a side effect; report it
		// in compilation-start order.
		for _, c := range simRes.Compiles {
			sched = append(sched, c.Event)
		}
	}
	resp.Schedule = make([]ScheduleEvent, len(sched))
	for i, ev := range sched {
		e := ScheduleEvent{Func: int32(ev.Func), Level: int(ev.Level)}
		if int(ev.Func) < len(p.Funcs) {
			e.Name = p.Funcs[ev.Func].Name
		}
		resp.Schedule[i] = e
	}
	return resp, nil
}

// marshalResponse renders the response body exactly as it will be cached and
// served: canonical JSON plus a trailing newline, so every byte a cache hit
// serves matches the miss that filled it.
func marshalResponse(resp *ScheduleResponse) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
