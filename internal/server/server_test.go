package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// newTestServer builds a Server plus an httptest front end and registers
// teardown in the right order (listener first, then the pool).
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Metrics == nil {
		// A private sink per test: assertions on counters must not see other
		// tests' traffic.
		opts.Metrics = &obs.Metrics{}
	}
	srv := New(opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	return srv, ts
}

// inlineRequest renders a §6.2.5-style random instance as a /schedule
// payload for the given algorithm.
func inlineRequest(t *testing.T, algo string, nf, calls int, seed int64, extra map[string]any) []byte {
	t.Helper()
	tr, p := experiments.AStarInstance(nf, calls, seed)
	funcs := make([]map[string]any, len(p.Funcs))
	for i, f := range p.Funcs {
		funcs[i] = map[string]any{"compile": f.Compile, "exec": f.Exec, "size": f.Size}
	}
	body := map[string]any{
		"algo":    algo,
		"trace":   map[string]any{"name": fmt.Sprintf("inline-%d-%d-%d", nf, calls, seed), "calls": tr.Calls},
		"profile": map[string]any{"levels": p.Levels, "funcs": funcs},
	}
	for k, v := range extra {
		body[k] = v
	}
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// post sends one /schedule request and returns status, headers, and body.
func post(t *testing.T, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /schedule: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, resp.Header, b
}

func decodeResponse(t *testing.T, b []byte) *ScheduleResponse {
	t.Helper()
	var resp ScheduleResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatalf("decoding response %q: %v", b, err)
	}
	return &resp
}

// TestScheduleHappyPathAllAlgorithms: every algorithm answers 200 with a
// consistent response — make-span at or above the lower bound, a non-empty
// schedule, and search counters for the tree searches.
func TestScheduleHappyPathAllAlgorithms(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, algo := range Algorithms {
		t.Run(algo, func(t *testing.T) {
			var body []byte
			switch algo {
			case "astar", "beam", "bnb", "exact":
				body = inlineRequest(t, algo, 6, 60, 3, nil)
			default:
				body, _ = json.Marshal(map[string]any{"algo": algo, "bench": "antlr", "max_calls": 300})
			}
			status, hdr, b := post(t, ts.URL, body)
			if status != http.StatusOK {
				t.Fatalf("status = %d, body %s", status, b)
			}
			if got := hdr.Get("X-Cache"); got != "miss" {
				t.Errorf("X-Cache = %q, want miss on first request", got)
			}
			resp := decodeResponse(t, b)
			if resp.Algo != algo {
				t.Errorf("algo echoed as %q", resp.Algo)
			}
			if resp.MakeSpan <= 0 || resp.LowerBound <= 0 {
				t.Errorf("make_span %d / lower_bound %d, want both positive", resp.MakeSpan, resp.LowerBound)
			}
			if resp.Gap < 1 {
				t.Errorf("gap %g < 1: make-span beat the lower bound", resp.Gap)
			}
			if len(resp.Schedule) == 0 {
				t.Error("empty schedule")
			}
			switch algo {
			case "astar", "beam", "bnb", "exact":
				if resp.Search == nil {
					t.Fatal("no search stats for a tree search")
				}
				if algo != "beam" && !resp.Search.Complete {
					t.Errorf("%s did not prove optimality on a 6-function instance", algo)
				}
			default:
				if resp.Search != nil {
					t.Errorf("unexpected search stats: %+v", resp.Search)
				}
			}
		})
	}
}

// TestScheduleCacheHitIsByteIdentical: the second identical request is served
// from cache (header flips to hit) with the exact same bytes.
func TestScheduleCacheHitIsByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := inlineRequest(t, "bnb", 6, 60, 4, nil)
	status1, hdr1, b1 := post(t, ts.URL, body)
	status2, hdr2, b2 := post(t, ts.URL, body)
	if status1 != 200 || status2 != 200 {
		t.Fatalf("statuses %d, %d", status1, status2)
	}
	if hdr1.Get("X-Cache") != "miss" || hdr2.Get("X-Cache") != "hit" {
		t.Errorf("X-Cache sequence = %q, %q; want miss, hit", hdr1.Get("X-Cache"), hdr2.Get("X-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("cache hit served different bytes:\n%s\n%s", b1, b2)
	}
}

func TestScheduleMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for name, body := range map[string]string{
		"syntax":        `{nope`,
		"empty":         ``,
		"trailing":      `{"algo":"iar","bench":"antlr"} garbage`,
		"second-doc":    `{"algo":"iar","bench":"antlr"}{"algo":"iar"}`,
		"unknown-field": `{"algo":"iar","bench":"antlr","frobnicate":1}`,
		"wrong-type":    `{"algo":"iar","bench":"antlr","max_calls":"many"}`,
	} {
		t.Run(name, func(t *testing.T) {
			status, _, b := post(t, ts.URL, []byte(body))
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s; want 400", status, b)
			}
			var e errorResponse
			if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
				t.Errorf("error body %q is not a JSON error document", b)
			}
		})
	}
}

func TestScheduleValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name   string
		body   string
		status int
		substr string
	}{
		{"unknown-algo", `{"algo":"quantum","bench":"antlr"}`, 400, "unknown algorithm"},
		{"no-workload", `{"algo":"iar"}`, 400, "missing workload"},
		{"both-workloads", `{"algo":"iar","bench":"antlr","trace":{"calls":[0]},"profile":{"levels":1,"funcs":[{"compile":[1],"exec":[1]}]}}`, 400, "not both"},
		{"trace-only", `{"algo":"iar","trace":{"calls":[0]}}`, 400, "both trace and profile"},
		{"unknown-bench", `{"algo":"iar","bench":"avrora"}`, 404, "unknown benchmark"},
		{"bad-scale", `{"algo":"iar","bench":"antlr","scale":-1}`, 400, "scale"},
		{"scale-on-inline", `{"algo":"iar","scale":2,"trace":{"calls":[0]},"profile":{"levels":1,"funcs":[{"compile":[1],"exec":[1]}]}}`, 400, "corpus benchmarks only"},
		{"bad-model", `{"algo":"iar","bench":"antlr","model":"psychic"}`, 400, "unknown model"},
		{"negative-timeout", `{"algo":"iar","bench":"antlr","timeout_ms":-5}`, 400, "timeout_ms"},
		{"call-out-of-range", `{"algo":"iar","trace":{"calls":[7]},"profile":{"levels":1,"funcs":[{"compile":[1],"exec":[1]}]}}`, 400, "inline trace"},
		{"decreasing-compile", `{"algo":"iar","trace":{"calls":[0]},"profile":{"levels":2,"funcs":[{"compile":[5,1],"exec":[2,1]}]}}`, 400, "inline profile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, b := post(t, ts.URL, []byte(tc.body))
			if status != tc.status {
				t.Fatalf("status = %d, body %s; want %d", status, b, tc.status)
			}
			var e errorResponse
			if err := json.Unmarshal(b, &e); err != nil {
				t.Fatalf("error body %q is not JSON", b)
			}
			if !strings.Contains(e.Error, tc.substr) {
				t.Errorf("error %q does not mention %q", e.Error, tc.substr)
			}
		})
	}
}

// TestScheduleOversizedPayload: bodies beyond MaxBodyBytes bounce with 413.
func TestScheduleOversizedPayload(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 2048})
	body := inlineRequest(t, "iar", 8, 4000, 1, nil)
	if len(body) <= 2048 {
		t.Fatalf("test payload is only %d bytes, need > 2048", len(body))
	}
	status, _, b := post(t, ts.URL, body)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, body %s; want 413", status, b)
	}
}

// TestScheduleInfeasibleSearch: a search instance beyond the node budget
// answers 422 with actionable guidance, not a 500.
func TestScheduleInfeasibleSearch(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body, _ := json.Marshal(map[string]any{"algo": "astar", "bench": "antlr", "max_calls": 300})
	status, _, b := post(t, ts.URL, body)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, body %s; want 422", status, b)
	}
	var e errorResponse
	if err := json.Unmarshal(b, &e); err != nil || !strings.Contains(e.Error, "max_calls") {
		t.Errorf("error body %q should suggest lowering max_calls", b)
	}
}

// TestScheduleTimeoutNoGoroutineLeak: a search that cannot finish inside its
// timeout_ms answers 504, and the worker goroutine actually abandons the
// search — the process's goroutine count settles back to its baseline.
func TestScheduleTimeoutNoGoroutineLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a deliberately oversized search")
	}
	_, ts := newTestServer(t, Options{Workers: 2})
	// Warm the HTTP client/server goroutine pools with a small request so
	// the baseline below is honest.
	warm := inlineRequest(t, "bnb", 5, 40, 1, nil)
	if status, _, b := post(t, ts.URL, warm); status != 200 {
		t.Fatalf("warm-up failed: %d %s", status, b)
	}
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	// ~10s of branch-and-bound if left alone (see the feasibility-frontier
	// study: 13 functions is past the knee), cancelled at 150ms.
	body := inlineRequest(t, "bnb", 13, 400, 7, map[string]any{
		"timeout_ms": 150,
		"max_nodes":  1 << 24,
	})
	start := time.Now()
	status, _, b := post(t, ts.URL, body)
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s; want 504", status, b)
	}
	if elapsed > 5*time.Second {
		t.Errorf("504 took %v; cancellation should land within a stride of the deadline", elapsed)
	}
	var e errorResponse
	if err := json.Unmarshal(b, &e); err != nil || !strings.Contains(e.Error, "deadline") {
		t.Errorf("error body %q should mention the deadline", b)
	}

	// The search goroutine must actually exit, not keep burning CPU.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: baseline %d, now %d — timed-out search leaked", baseline, runtime.NumGoroutine())
}

// TestScheduleQueueBackpressure: with one worker and a one-slot queue, a
// third concurrent distinct request bounces with 429 instead of buffering.
func TestScheduleQueueBackpressure(t *testing.T) {
	m := &obs.Metrics{}
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, Metrics: m})
	// 13-function instances run for >= 5s when left alone (past the
	// feasibility knee), so each reliably pins the single worker long past
	// the 100ms stagger below; the timeout reclaims them quickly afterwards.
	slow := func(seed int64) []byte {
		return inlineRequest(t, "bnb", 13, 400, seed, map[string]any{
			"timeout_ms": 1500, "max_nodes": 1 << 24,
		})
	}
	results := make(chan int, 2)
	for i := int64(0); i < 2; i++ {
		body := slow(100 + i)
		go func() {
			status, _, _ := post(t, ts.URL, body)
			results <- status
		}()
		time.Sleep(100 * time.Millisecond) // let it occupy the worker / the queue slot
	}
	status, _, b := post(t, ts.URL, slow(999))
	if status != http.StatusTooManyRequests {
		t.Fatalf("third request: status = %d, body %s; want 429", status, b)
	}
	for i := 0; i < 2; i++ {
		select {
		case s := <-results:
			if s != 200 && s != http.StatusGatewayTimeout {
				t.Errorf("slow request finished with %d, want 200 or 504", s)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("slow request never finished")
		}
	}
	if got := m.Snapshot().ServeRejected; got < 1 {
		t.Errorf("serve_rejected = %d, want >= 1", got)
	}
}

// TestScheduleDrainingReturns503: after Shutdown the handler refuses new
// work with 503 instead of hanging or panicking.
func TestScheduleDrainingReturns503(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	srv.Shutdown()
	status, _, b := post(t, ts.URL, inlineRequest(t, "iar", 4, 20, 1, nil))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, body %s; want 503", status, b)
	}
}

func TestScheduleWrongMethod(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /schedule = %d, want 405", resp.StatusCode)
	}
}

func TestAlgorithmsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Algorithms []string `json:"algorithms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Algorithms) != len(Algorithms) {
		t.Fatalf("got %v, want %v", out.Algorithms, Algorithms)
	}
}

func TestBenchmarksEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Benchmarks []string `json:"benchmarks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) != 9 {
		t.Fatalf("got %d benchmarks (%v), want the 9 synthetic DaCapo entries", len(out.Benchmarks), out.Benchmarks)
	}
}

// TestMetricsEndpointRidesAlong: the obs surface is mounted on the same
// listener and reflects serve traffic.
func TestMetricsEndpointRidesAlong(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/metrics", "/healthz", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestMetricsExposesArenaKeys: the /metrics document carries the IAR
// planner and exact-solver counters, and serving an iar request over this
// very server moves the run counters it reports.
func TestMetricsExposesArenaKeys(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	post(t, ts.URL, inlineRequest(t, "iar", 5, 30, 9, nil))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"iar_arenas", "iar_runs", "iar_warm_runs", "exact_solves",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("/metrics missing %q", key)
		}
	}
	// The iar request above ran on a worker's planner; the process-wide run
	// counter the endpoint snapshots must already include it.
	if runs, ok := doc["iar_runs"].(float64); !ok || runs < 1 {
		t.Errorf("iar_runs = %v, want >= 1 after an iar request", doc["iar_runs"])
	}
}

// TestServeMetricsAccounting: the serve counters add up for a simple
// miss + hit + reject-free sequence.
func TestServeMetricsAccounting(t *testing.T) {
	m := &obs.Metrics{}
	_, ts := newTestServer(t, Options{Metrics: m})
	body := inlineRequest(t, "iar", 5, 30, 9, nil)
	post(t, ts.URL, body)
	post(t, ts.URL, body)
	post(t, ts.URL, []byte(`{nope`))
	s := m.Snapshot()
	if s.ServeRequests != 3 || s.ServeOK != 2 || s.ServeErrors != 1 || s.ServeCacheHits != 1 {
		t.Errorf("snapshot = %+v, want requests=3 ok=2 errors=1 cache_hits=1", s)
	}
	if s.ServeQueueDepth != 0 {
		t.Errorf("queue depth gauge = %d after drain, want 0", s.ServeQueueDepth)
	}
}
