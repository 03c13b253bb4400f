package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dacapo"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/sim"
)

// serve-mixed: POST /schedule to a fresh in-process server.Server on
// loopback, as an open loop over at most nproc connections. Requests are
// drawn from a seeded Zipf over a catalogue larger than the response cache,
// so hits, misses and evictions all occur. Each request is timed from when
// it was due; the generator also reports how late it dispatched.
const (
	// serveLowRPS and serveHighRPS are the two fixed offered rates, both
	// below the knee, so their latencies measure the server and not a
	// growing queue.
	serveLowRPS  = 150.0
	serveHighRPS = 300.0
	// serveP99LimitMS is the latency limit a ladder rate must meet.
	serveP99LimitMS = 200.0
	// serveMinAnswered is the share of a ladder rate that must be answered
	// per second, drain included: below it the backlog was growing.
	serveMinAnswered = 0.9
	// Each fixed rate is measured as serveWindows consecutive windows.
	serveWindows = 7
	// serveLagBoundMS bounds how late the generator may dispatch, at the
	// 99th percentile of a fixed rate; a run past it is invalid.
	serveLagBoundMS = 50.0
	serveCacheSize  = 128
	// serveZipfS is the popularity skew: YCSB's default Zipfian constant
	// (Cooper et al., "Benchmarking Cloud Serving Systems with YCSB", SoCC
	// 2010). Web proxy traces measured 0.64-0.83 (Breslau et al., "Web
	// Caching and Zipf-like Distributions", INFOCOM 1999), so this is the
	// more skewed, more cacheable end.
	serveZipfS  = 0.99
	serveWarmup = 200
	// serveBisections is how many times max_rps halves the bracket
	// between the last ladder rate that passed and the first that failed
	// (geometrically): three steps resolve it to 2^(1/8), about 9%.
	serveBisections = 3
	// serveOverheadSamples bounds the misses recomputed by direct library
	// calls in a traced run.
	serveOverheadSamples = 24
	// serveColdShare is the share of --seconds spent timing uncached
	// requests one at a time (at least one pass over the catalogue).
	serveColdShare = 0.3
	// serveColdCalibEvery is how many uncached requests run between two
	// calibration samples.
	serveColdCalibEvery = 8
)

// serveLadder is the fixed rate ladder max_rps climbs, in requests/second,
// before it bisects the bracket the climb ends in.
var serveLadder = []float64{200, 400, 800, 1600, 3200}

var serveAlgos = []string{"iar", "jikes", "v8", "online-iar"}

// serveItem is one catalogue request.
type serveItem struct {
	Algo     string  `json:"algo"`
	Bench    string  `json:"bench"`
	Scale    float64 `json:"scale,omitempty"`
	MaxCalls int     `json:"max_calls"`
	Window   int     `json:"window,omitempty"`
	Tenant   string  `json:"tenant,omitempty"`
}

// ref names the item's output, which does not depend on the tenant.
func (it serveItem) ref() string {
	return fmt.Sprintf("%s/%s/x%g/%d/w%d", it.Algo, it.Bench, it.Scale, it.MaxCalls, it.Window)
}

func serveCatalogue(tiny bool) []serveItem {
	// Scale 0.25 rather than the server's default 1.0: at 1.0 a miss costs
	// about 25 ms and the rates below the knee leave too few requests for a
	// steady p99 (README.md gives the measurements).
	maxCalls := []int{2000, 5000, 10000}
	scale, window := 0.25, 1024
	if tiny {
		maxCalls, scale, window = []int{200, 500, 1000}, 0.01, 128
	}
	var out []serveItem
	for _, tenant := range []string{"tenant-a", "tenant-b"} {
		for _, algo := range serveAlgos {
			for _, b := range dacapo.Names() {
				for _, mc := range maxCalls {
					it := serveItem{Algo: algo, Bench: b, Scale: scale, MaxCalls: mc, Tenant: tenant}
					if algo == "online-iar" {
						it.Window = window
					}
					out = append(out, it)
				}
			}
		}
	}
	return out
}

// serveRef is a catalogue item's expected response content.
type serveRef struct {
	MakeSpan   int64 `json:"make_span"`
	LowerBound int64 `json:"lower_bound"`
}

// directCompute answers a catalogue request by direct library calls, the
// way the service's execute does, without the service.
func directCompute(it serveItem, t *tracer, op, parent int32) (serveRef, error) {
	var ref serveRef
	b, err := dacapo.ByName(it.Bench)
	if err != nil {
		return ref, err
	}
	scale := it.Scale
	if scale == 0 {
		scale = 1
	}
	s := t.begin("dacapo.load", op, parent)
	w, err := b.Load(scale)
	t.end(s)
	if err != nil {
		return ref, err
	}
	tr, p := w.Trace, w.Profile
	if it.MaxCalls > 0 && it.MaxCalls < tr.Len() {
		tr = tr.Slice(0, it.MaxCalls)
	}
	model := w.DefaultModel()
	cfg := sim.Config{CompileWorkers: 1}
	s = t.begin("core.lower_bound", op, parent)
	ref.LowerBound = core.LowerBound(tr, p)
	t.end(s)
	var res *sim.Result
	switch it.Algo {
	case "iar":
		s = t.begin("core.iar", op, parent)
		sched, ierr := core.IAR(tr, p, core.IAROptions{Model: model})
		t.end(s)
		if ierr != nil {
			return ref, ierr
		}
		s = t.begin("sim.run", op, parent)
		res, err = sim.Run(tr, p, sched, cfg, sim.Options{})
		t.end(s)
	case "online-iar":
		s = t.begin("online.run", op, parent)
		var or *online.Result
		or, err = online.Run(tr, p, online.NewIAR(p, core.IAROptions{Model: model}, 0), online.Options{Window: it.Window, Config: cfg})
		t.end(s)
		if err == nil {
			res = or.Sim
		}
	case "jikes":
		s = t.begin("policy.jikes", op, parent)
		var pol *policy.Jikes
		if pol, err = policy.NewJikes(model, p.NumFuncs(), w.Bench.SamplePeriod); err == nil {
			res, err = sim.RunPolicy(tr, p, pol, cfg, sim.Options{})
		}
		t.end(s)
	case "v8":
		p2, rerr := p.Restrict(0, 1)
		if rerr != nil {
			return ref, rerr
		}
		s = t.begin("core.lower_bound", op, parent)
		ref.LowerBound = core.LowerBound(tr, p2)
		t.end(s)
		s = t.begin("policy.v8", op, parent)
		var pol *policy.V8
		if pol, err = policy.NewV8(1); err == nil {
			res, err = sim.RunPolicy(tr, p2, pol, cfg, sim.Options{})
		}
		t.end(s)
	default:
		return ref, fmt.Errorf("unknown algorithm %q", it.Algo)
	}
	if err != nil {
		return ref, err
	}
	ref.MakeSpan = res.MakeSpan
	return ref, nil
}

// serveHarness is one run's server plus the load generator's clients.
type serveHarness struct {
	srv     *server.Server
	m       *obs.Metrics
	url     string
	cancel  context.CancelFunc
	done    chan error
	clients []*http.Client
	cat     []serveItem
	bodies  [][]byte
	refs    map[string]serveRef
	t       *tracer
	ops     atomic.Int32

	mu        sync.Mutex
	requested map[int]int        // catalogue index -> requests sent
	hashes    map[int]uint64     // catalogue index -> body hash of the first 200
	iarGaps   map[string]float64 // iar item ref -> make-span / lower bound
	problems  []string
	failed    int
}

func conns() int {
	n := runtime.NumCPU()
	if n < 1 {
		n = 1
	}
	return n
}

// startServe builds a fresh server on a loopback port and its clients.
func startServe(cat []serveItem, refs map[string]serveRef, t *tracer) (*serveHarness, error) {
	h := &serveHarness{
		m: &obs.Metrics{}, cat: cat, refs: refs, t: t,
		requested: map[int]int{}, hashes: map[int]uint64{}, iarGaps: map[string]float64{},
		done: make(chan error, 1),
	}
	h.srv = server.New(server.Options{Workers: conns(), CacheSize: serveCacheSize, Metrics: h.m})
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	ready := make(chan net.Addr, 1)
	go func() {
		h.done <- h.srv.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { ready <- a })
	}()
	select {
	case a := <-ready:
		h.url = "http://" + a.String() + "/schedule"
	case err := <-h.done:
		cancel()
		h.srv.Shutdown()
		return nil, fmt.Errorf("server did not start: %w", err)
	}
	for i := 0; i < conns(); i++ {
		h.clients = append(h.clients, &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}
	for _, it := range cat {
		b, err := json.Marshal(it)
		if err != nil {
			h.stop()
			return nil, err
		}
		h.bodies = append(h.bodies, b)
	}
	return h, nil
}

// stop drains the server and waits for it and its connections to close.
func (h *serveHarness) stop() {
	for _, c := range h.clients {
		c.CloseIdleConnections()
	}
	h.cancel()
	<-h.done
}

// sample is one request's record.
type sample struct {
	item   int
	due    time.Time
	sent   time.Time
	done   time.Time
	lag    time.Duration
	status int
	cache  string
	err    error
	traced bool
	// tenant, when set, is sent as the X-Tenant header.
	tenant string
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

func (s *sample) rttMS() float64  { return float64(s.done.Sub(s.due).Nanoseconds()) / 1e6 }
func (s *sample) lagMS() float64  { return float64(s.lag.Nanoseconds()) / 1e6 }
func (s *sample) sendMS() float64 { return float64(s.done.Sub(s.sent).Nanoseconds()) / 1e6 }

// do sends one request and checks the response.
func (h *serveHarness) do(c *http.Client, s *sample) {
	h.mu.Lock()
	h.requested[s.item]++
	h.mu.Unlock()
	req, err := http.NewRequest(http.MethodPost, h.url, bytes.NewReader(h.bodies[s.item]))
	if err != nil {
		s.err = err
		s.done = time.Now()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if s.tenant != "" {
		req.Header.Set("X-Tenant", s.tenant)
	}
	s.sent = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		s.err = err
		s.done = time.Now()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	if s.traced {
		op := h.ops.Add(1) - 1
		root := h.t.add("loadgen.request", op, noSpan, s.due, s.done)
		h.t.add("server.schedule", op, root, s.sent, s.done)
	}
	s.status = resp.StatusCode
	s.cache = resp.Header.Get("X-Cache")
	if err != nil {
		s.err = err
		return
	}
	// A hit for a request nobody else sent to this fresh server could only
	// come from an earlier run's cache.
	h.mu.Lock()
	only := h.requested[s.item] == 1
	h.mu.Unlock()
	if only && s.cache == "hit" {
		h.problem("%s: the only request to a fresh server was answered by its cache", h.cat[s.item].ref())
	}
	h.check(s, body)
}

// check verifies a response: the first body of each item is decoded and
// compared with the item's reference; later bodies must hash the same.
func (h *serveHarness) check(s *sample, body []byte) {
	fh := fnv.New64a()
	fh.Write(body)
	sum := fh.Sum64()
	h.mu.Lock()
	want, seen := h.hashes[s.item]
	h.mu.Unlock()
	it := h.cat[s.item]
	if s.status != http.StatusOK {
		h.problem("%s: status %d: %s", it.ref(), s.status, bytes.TrimSpace(body))
		return
	}
	if seen {
		if sum != want {
			h.problem("%s: response differs from this run's earlier response", it.ref())
		}
		return
	}
	var resp server.ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		h.problem("%s: decoding response: %v", it.ref(), err)
		return
	}
	switch {
	case resp.Algo != it.Algo || resp.Bench != it.Bench:
		h.problem("%s: response is for %s/%s", it.ref(), resp.Algo, resp.Bench)
		return
	case resp.MakeSpan < resp.LowerBound || resp.LowerBound <= 0:
		h.problem("%s: make-span %d below the lower bound %d", it.ref(), resp.MakeSpan, resp.LowerBound)
		return
	}
	if ref, ok := h.refs[it.ref()]; ok && (ref.MakeSpan != resp.MakeSpan || ref.LowerBound != resp.LowerBound) {
		h.problem("%s: make-span/bound %d/%d differ from the reference %d/%d", it.ref(), resp.MakeSpan, resp.LowerBound, ref.MakeSpan, ref.LowerBound)
		return
	}
	h.mu.Lock()
	h.hashes[s.item] = sum
	if it.Algo == "iar" {
		h.iarGaps[it.ref()] = float64(resp.MakeSpan) / float64(resp.LowerBound)
	}
	h.mu.Unlock()
}

func (h *serveHarness) problem(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.failed++
	if len(h.problems) < 20 {
		h.problems = append(h.problems, fmt.Sprintf(format, args...))
	}
}

// picker draws catalogue items from a seeded Zipf. The popularity ranking
// is fixed, so every seed offers the same hot set and the same miss costs;
// the seed drives the draws and the arrival times.
type picker struct {
	rng  *rand.Rand
	cdf  []float64 // cdf[k]: probability of ranks 0..k
	perm []int
}

func newPicker(seed int64, n int) *picker {
	// math/rand's Zipf needs an exponent above 1, so the CDF is built here.
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(k+1), -serveZipfS)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &picker{rng: rand.New(rand.NewSource(seed)), cdf: cdf, perm: rand.New(rand.NewSource(1)).Perm(n)}
}

func (p *picker) next() int {
	k := sort.SearchFloat64s(p.cdf, p.rng.Float64())
	if k == len(p.cdf) {
		k--
	}
	return p.perm[k]
}

// warmup sends n requests closed-loop over every connection.
func (h *serveHarness) warmup(p *picker, n int) {
	items := make(chan int)
	var wg sync.WaitGroup
	for _, c := range h.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for it := range items {
				h.do(c, &sample{item: it})
			}
		}(c)
	}
	for i := 0; i < n; i++ {
		items <- p.next()
	}
	close(items)
	wg.Wait()
}

// phaseResult is one open-loop phase.
type phaseResult struct {
	rate    float64
	samples []sample
	backlog int64
}

// phase offers Poisson arrivals at rate for dur. The dispatcher hands each
// request to the connection workers when it is due; requests wait in order
// while every connection is busy, and their time is counted from when they
// were due. With stopWhenFailed, dispatching stops once enough requests
// have taken longer than serveP99LimitMS that the phase's p99 is past the
// limit whatever the rest would take, so an overloaded ladder rate does not
// build a backlog it then has to drain.
func (h *serveHarness) phase(p *picker, rate float64, dur time.Duration, traceEvery int, stopWhenFailed bool) *phaseResult {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	res := &phaseResult{rate: rate, samples: make([]sample, n)}
	offsets := make([]time.Duration, n)
	var at float64
	for i := range offsets {
		at += p.rng.ExpFloat64() / rate
		offsets[i] = time.Duration(at * 1e9)
		res.samples[i].item = p.next()
		res.samples[i].traced = traceEvery > 0 && i%traceEvery == traceEvery-1
	}
	// With more than 1% of n, plus the two ranks the p99 interpolates
	// between, over the limit, the p99 of any prefix is over it too.
	slowEnough := int64(n/100) + 2
	// Sized to the phase's request count, so the dispatcher never blocks.
	pending := make(chan int, n)
	var completed, slow atomic.Int64
	var wg sync.WaitGroup
	for _, c := range h.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range pending {
				h.do(c, &res.samples[i])
				if res.samples[i].rttMS() > serveP99LimitMS {
					slow.Add(1)
				}
				completed.Add(1)
			}
		}(c)
	}
	t0 := time.Now().Add(5 * time.Millisecond)
	sent := n
	for i := range res.samples {
		if stopWhenFailed && slow.Load() >= slowEnough {
			sent = i
			break
		}
		due := t0.Add(offsets[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.samples[i].due = due
		res.samples[i].lag = time.Since(due)
		pending <- i
	}
	res.backlog = int64(sent) - completed.Load()
	close(pending)
	wg.Wait()
	res.samples = res.samples[:sent]
	return res
}

// coldLoop measures what an uncached request costs. It sends each
// distinct catalogue request once per pass, in the seeded order, one at a
// time over one connection, every pass under a tenant of its own: tenants
// never share cache entries, so each request is computed. It returns the
// requests and each distinct item's process CPU times in milliseconds, and
// samples the calibration kernel between them into rep. With one request
// in flight, the process's CPU time over a request is that request's
// cost, generator and server together. It runs on one P, so the
// time is the request's work and not the Go scheduler spinning on the idle
// second CPU while the request waits on the loopback connection.
func (h *serveHarness) coldLoop(order []int, dur time.Duration, rep *report) (*phaseResult, map[int][]float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := &phaseResult{}
	byItem := make(map[int][]float64)
	c := h.clients[0]
	t0 := time.Now()
	for pass := 0; pass == 0 || time.Since(t0) < dur; pass++ {
		tenant := fmt.Sprintf("perfbench-cold-%d", pass)
		for i, it := range order {
			if i%serveColdCalibEvery == 0 {
				rep.sampleHost()
			}
			s := sample{item: it, tenant: tenant, due: time.Now()}
			c0 := cpuTime()
			h.do(c, &s)
			byItem[it] = append(byItem[it], float64((cpuTime()-c0).Nanoseconds())/1e6)
			if s.ok() && s.cache != "miss" {
				h.problem("%s: a request under a new tenant was answered %q, not computed", h.cat[it].ref(), s.cache)
			}
			res.samples = append(res.samples, s)
		}
	}
	return res, byItem
}

// coldOrder returns one index per distinct catalogue request (they differ
// only by tenant otherwise), in an order drawn from rng.
func coldOrder(cat []serveItem, rng *rand.Rand) []int {
	var out []int
	seen := map[string]bool{}
	for i, it := range cat {
		if !seen[it.ref()] {
			seen[it.ref()] = true
			out = append(out, i)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// values applies f to every sample.
func values(ss []sample, f func(*sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i := range ss {
		out[i] = f(&ss[i])
	}
	return out
}

// passes reports whether a ladder rung met the p99 limit with every request
// answered and no growing backlog.
func (r *phaseResult) passes() bool {
	for i := range r.samples {
		if !r.samples[i].ok() {
			return false
		}
	}
	p99 := quantile(values(r.samples, (*sample).rttMS), 0.99)
	return p99 <= serveP99LimitMS && r.achieved() >= serveMinAnswered*r.rate
}

// lagP99 is how late the generator dispatched, at the 99th percentile.
func (r *phaseResult) lagP99() float64 {
	return quantile(values(r.samples, (*sample).lagMS), 0.99)
}

// achieved is the rate at which the phase's requests were answered.
func (r *phaseResult) achieved() float64 {
	first, last := r.samples[0].due, r.samples[0].done
	for i := range r.samples {
		if r.samples[i].done.After(last) {
			last = r.samples[i].done
		}
	}
	return float64(len(r.samples)) / last.Sub(first).Seconds()
}

// serveRefs returns the pinned reference of every catalogue item.
func serveRefs(cfg config, cat []serveItem) (map[string]serveRef, error) {
	refs := cfg.Expect.servePins()
	for _, it := range cat {
		if _, ok := refs[it.ref()]; !ok {
			return nil, fmt.Errorf("no reference for %s", it.ref())
		}
	}
	return refs, nil
}

func snapshotDelta(a, b obs.Snapshot) (req, hits, coalesced, rejected int64, wait time.Duration) {
	return b.ServeRequests - a.ServeRequests, b.ServeCacheHits - a.ServeCacheHits,
		b.ServeCoalesced - a.ServeCoalesced, b.ServeRejected - a.ServeRejected, b.ServeQueueWait - a.ServeQueueWait
}

func runServe(cfg config, t *tracer) (*report, error) {
	rep := newReport()
	cat := serveCatalogue(cfg.Tiny)
	refs, err := serveRefs(cfg, cat)
	if err != nil {
		return nil, err
	}
	fixedDur := time.Duration(0.4 * cfg.Seconds * float64(time.Second))
	rungDur := time.Duration(0.1 * cfg.Seconds * float64(time.Second))
	if rungDur < 2*time.Second && !cfg.Tiny {
		rungDur = 2 * time.Second
	}
	warm := serveWarmup
	if cfg.Tiny {
		warm = 40
	}

	var h *serveHarness
	var pick *picker
	t.on = cfg.Trace
	setup, err := timeSetup(func() error {
		if h != nil {
			h.stop()
		}
		var err error
		if h, err = startServe(cat, refs, t); err != nil {
			return err
		}
		pick = newPicker(cfg.Seed, len(cat))
		h.warmup(pick, warm)
		return nil
	})
	if h != nil {
		defer h.stop()
	}
	if err != nil {
		return nil, err
	}
	rep.E2E["setup_s"] = setup
	before := h.m.Snapshot()

	traceEvery := 0
	if cfg.Trace {
		traceEvery = 2
	}
	// Every phase run is attempted and checked.
	var phases []*phaseResult
	run := func(rate float64, dur time.Duration, traceEvery int, stopWhenFailed bool) *phaseResult {
		r := h.phase(pick, rate, dur, traceEvery, stopWhenFailed)
		phases = append(phases, r)
		all := values(r.samples, (*sample).rttMS)
		fmt.Fprintf(os.Stderr, "perfbench: serve %4.0f rps: %d requests, p50 %.2f ms, p99 %.2f ms, backlog %d, lag p99 %.2f ms, answered at %.1f/s\n",
			rate, len(r.samples), median(all), quantile(all, 0.99), r.backlog, r.lagP99(), r.achieved())
		return r
	}
	// fixed measures a rate as serveWindows consecutive windows, every
	// one of them kept; it returns them and their pooled samples, and adds
	// the windows' CPU time to fixedCPU.
	var fixedCPU time.Duration
	fixed := func(rate float64) ([]*phaseResult, *phaseResult, error) {
		ws := make([]*phaseResult, serveWindows)
		pooled := &phaseResult{rate: rate}
		for i := range ws {
			c0 := cpuTime()
			ws[i] = run(rate, fixedDur/serveWindows, traceEvery, false)
			fixedCPU += cpuTime() - c0
			if err := rep.sampleRSS(); err != nil {
				return nil, nil, err
			}
			rep.sampleHost()
			pooled.samples = append(pooled.samples, ws[i].samples...)
		}
		return ws, pooled, nil
	}
	lowWs, low, err := fixed(serveLowRPS)
	if err != nil {
		return nil, err
	}
	highWs, high, err := fixed(serveHighRPS)
	if err != nil {
		return nil, err
	}
	after := h.m.Snapshot()
	// max_rps is a per-layer metric, so only a traced run climbs the
	// ladder.
	var maxRPS float64
	var ladderErr error
	if cfg.Trace {
		maxRPS, ladderErr = ladder(run, rungDur)
	}
	// The uncached requests come last: they flush the cache.
	order := coldOrder(cat, rand.New(rand.NewSource(cfg.Seed^0xc01d)))
	cold, coldCPU := h.coldLoop(order, time.Duration(serveColdShare*cfg.Seconds*float64(time.Second)), rep)
	phases = append(phases, cold)

	for _, ph := range phases {
		for i := range ph.samples {
			s := &ph.samples[i]
			rep.Attempted++
			if s.err != nil {
				rep.fail("%s: %v", cat[s.item].ref(), s.err)
			}
		}
	}
	rep.Problems = append(rep.Problems, h.problems...)
	rep.Failed += h.failed
	for _, ph := range []*phaseResult{low, high} {
		if lag := ph.lagP99(); lag > serveLagBoundMS {
			rep.Invalid = fmt.Sprintf("load generator lagged %.1f ms at p99 at %.0f rps, past the %.0f ms bound", lag, ph.rate, serveLagBoundMS)
		}
	}

	// A rate's latency quantile is the median over its windows of each
	// window's quantile: every window counts the same, and a stretch in
	// which the shared host stalled the process moves one window, not the
	// result.
	rttOf := func(ws []*phaseResult, q float64) float64 {
		var per []float64
		for _, w := range ws {
			per = append(per, quantile(values(w.samples, (*sample).rttMS), q))
		}
		return median(per)
	}
	// The wall-clock figures are per-layer metrics (see README.md): on a
	// shared host they spread past any bound an end-to-end metric may have.
	// The end-to-end costs are process CPU time, server and generator
	// together: requests per CPU second at the two fixed rates, hits and
	// misses as the traffic mixes them, and the quantiles of what an
	// uncached request costs, over each distinct request's median time (so
	// which request sits at a quantile does not depend on the passes made).
	rep.E2E["ops_per_s"] = float64(len(low.samples)+len(high.samples)) / fixedCPU.Seconds()
	// The calibration kernel follows the cost of computing a request, but
	// not that of the hits that make most of the fixed-rate traffic and
	// the warm-up (loopback HTTP, system calls, goroutine wake-ups): over
	// five seeds, scaling moved ops_per_s's IQR over median from 0.024 to
	// 0.084 and setup_s's from 0.19 to 0.28, while it brought op_ms_p50's
	// from 0.15 to 0.10 and op_ms_p90's from 0.21 to 0.16.
	rep.raw = map[string]bool{"ops_per_s": true, "setup_s": true}
	var perItem []float64
	for _, ds := range coldCPU {
		perItem = append(perItem, median(ds))
	}
	rep.E2E["op_ms_p50"] = median(perItem)
	rep.E2E["op_ms_p90"] = quantile(perItem, 0.9)
	var gaps []float64
	for _, g := range h.iarGaps {
		gaps = append(gaps, g)
	}
	rep.E2E["makespan_gap"] = geomean(gaps)
	rep.Layer["rtt_ms_p50.low"] = rttOf(lowWs, 0.5)
	rep.Layer["rtt_ms_p99.low"] = rttOf(lowWs, 0.99)
	rep.Layer["rtt_ms_p50.high"] = rttOf(highWs, 0.5)
	rep.Layer["rtt_ms_p99.high"] = rttOf(highWs, 0.99)
	if cfg.Trace {
		if ladderErr != nil {
			rep.Invalid = ladderErr.Error()
		}
		rep.Layer["max_rps"] = maxRPS
		if err := serveLayers(rep, t, h, low, high, before, after); err != nil {
			return nil, err
		}
	}
	return rep, rep.finish()
}

// ladder finds max_rps: it climbs serveLadder, then bisects the bracket
// the climb ends in, and returns the answered rate of the highest rate
// that passed.
func ladder(run func(rate float64, dur time.Duration, traceEvery int, stopWhenFailed bool) *phaseResult, rungDur time.Duration) (float64, error) {
	// rung reports whether a rate passes; it fails only when it fails twice
	// in a row: overload fails every time, a host stall seldom twice.
	var best *phaseResult
	rung := func(rate float64) bool {
		r := run(rate, rungDur, 0, true)
		if !r.passes() {
			r = run(rate, rungDur, 0, true)
		}
		if r.passes() {
			best = r
			return true
		}
		return false
	}
	failed := 0.0
	for _, rate := range serveLadder {
		if !rung(rate) {
			failed = rate
			break
		}
	}
	if best != nil && failed > 0 {
		lo, hi := best.rate, failed
		for i := 0; i < serveBisections; i++ {
			mid := math.Sqrt(lo * hi)
			if rung(mid) {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	if best == nil {
		return 0, errors.New("no ladder rate met the p99 limit")
	}
	return best.achieved(), nil
}

// serveLayers fills the traced run's per-layer metrics.
func serveLayers(rep *report, t *tracer, h *serveHarness, low, high *phaseResult, before, after obs.Snapshot) error {
	var traced, untraced []float64
	op := h.ops.Load()
	missBy := map[string][]float64{}
	var hit, miss []float64
	for _, ph := range []*phaseResult{low, high} {
		for i := range ph.samples {
			s := &ph.samples[i]
			if !s.traced {
				untraced = append(untraced, s.rttMS())
				continue
			}
			traced = append(traced, s.rttMS())
			switch s.cache {
			case "hit":
				hit = append(hit, s.sendMS())
			case "miss":
				miss = append(miss, s.sendMS())
				a := h.cat[s.item].Algo
				missBy[a] = append(missBy[a], s.sendMS())
			}
		}
	}
	// Recompute the low phase's first misses by direct library calls: the
	// difference is what the service adds on a miss.
	var overhead []float64
	done := map[string]bool{}
	for i := range low.samples {
		s := &low.samples[i]
		it := h.cat[s.item]
		if s.cache != "miss" || done[it.ref()] || len(overhead) == serveOverheadSamples {
			continue
		}
		done[it.ref()] = true
		root := t.begin("direct.compute", op, noSpan)
		t0 := time.Now()
		ref, err := directCompute(it, t, op, root)
		d := float64(time.Since(t0).Nanoseconds()) / 1e6
		t.end(root)
		op++
		if err != nil {
			return err
		}
		if want := h.refs[it.ref()]; want != ref {
			rep.fail("%s: direct computation %+v differs from the reference %+v", it.ref(), ref, want)
		}
		overhead = append(overhead, s.sendMS()-d)
	}
	req, hits, coalesced, rejected, wait := snapshotDelta(before, after)
	misses := req - hits - coalesced - rejected
	l := t.layers()
	rep.Layer["core.iar_ms"] = l["core.iar"].selfMS()
	rep.Layer["core.iar_alloc_kb"] = l["core.iar"].allocKB()
	rep.Layer["dacapo.load_ms"] = l["dacapo.load"].selfMS()
	rep.Layer["server.rtt_ms_p50.hit"] = median(hit)
	rep.Layer["server.rtt_ms_p50.miss"] = median(miss)
	rep.Layer["server.rtt_ms_p99.miss"] = quantile(miss, 0.99)
	for _, a := range serveAlgos {
		rep.Layer["server.miss_ms."+a] = mean(missBy[a])
	}
	rep.Layer["server.miss_overhead_ms_p50"] = median(overhead)
	rep.Layer["server.hit_ratio"] = ratio(float64(hits), float64(req))
	rep.Layer["server.coalesced"] = float64(coalesced)
	rep.Layer["server.queue_wait_ms_avg"] = ratio(float64(wait.Nanoseconds())/1e6, float64(misses))
	rep.Layer["server.rejected_frac"] = ratio(float64(rejected), float64(req))
	var lags []float64
	for _, ph := range []*phaseResult{low, high} {
		lags = append(lags, values(ph.samples, (*sample).lagMS)...)
	}
	rep.Layer["loadgen.lag_ms_p99"] = quantile(lags, 0.99)
	rep.Layer["trace.overhead_frac"] = median(traced)/median(untraced) - 1
	if len(hit) == 0 || len(miss) == 0 {
		return errors.New("traced run saw no cache hits or no misses")
	}
	return nil
}
