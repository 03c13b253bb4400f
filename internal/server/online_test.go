package server

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

func onlineBody(t *testing.T, extra map[string]any) []byte {
	t.Helper()
	body := map[string]any{"algo": "online-iar", "bench": "antlr", "max_calls": 2000}
	for k, v := range extra {
		body[k] = v
	}
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOnlineScheduleHappyPath: a bounded-window online-iar request answers
// 200 with a committed schedule and a make-span at or above the bound.
func TestOnlineScheduleHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, _, b := post(t, ts.URL, onlineBody(t, map[string]any{"window": 256}))
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, b)
	}
	resp := decodeResponse(t, b)
	if resp.Algo != "online-iar" {
		t.Errorf("algo echoed as %q", resp.Algo)
	}
	if resp.MakeSpan < resp.LowerBound || resp.LowerBound <= 0 {
		t.Errorf("make_span %d / lower_bound %d", resp.MakeSpan, resp.LowerBound)
	}
	if len(resp.Schedule) == 0 {
		t.Error("empty schedule")
	}
}

// TestOnlineWindowDistinctCache: the lookahead window is part of the cache
// identity — the same workload at a different window must be a fresh miss,
// not a hit on the other window's response.
func TestOnlineWindowDistinctCache(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, hdr, b1 := post(t, ts.URL, onlineBody(t, map[string]any{"window": 256}))
	if status != http.StatusOK {
		t.Fatalf("first request: %d %s", status, b1)
	}
	if got := hdr.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	status, hdr, b2 := post(t, ts.URL, onlineBody(t, nil)) // unbounded
	if status != http.StatusOK {
		t.Fatalf("second request: %d %s", status, b2)
	}
	if got := hdr.Get("X-Cache"); got != "miss" {
		t.Errorf("different window served from cache (X-Cache = %q)", got)
	}
	// And the repeat of the first window is a genuine hit.
	status, hdr, b3 := post(t, ts.URL, onlineBody(t, map[string]any{"window": 256}))
	if status != http.StatusOK {
		t.Fatalf("repeat request: %d %s", status, b3)
	}
	if got := hdr.Get("X-Cache"); got != "hit" {
		t.Errorf("repeat X-Cache = %q, want hit", got)
	}
	if string(b1) != string(b3) {
		t.Error("cache hit body differs from the miss that filled it")
	}
}

// TestOnlineWindowRejectedElsewhere: window is an online-iar knob; other
// algorithms must reject it instead of silently ignoring it.
func TestOnlineWindowRejectedElsewhere(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body, _ := json.Marshal(map[string]any{"algo": "iar", "bench": "antlr", "window": 256})
	status, _, b := post(t, ts.URL, body)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, body %s; want 400", status, b)
	}
	if !strings.Contains(string(b), "window") {
		t.Errorf("error body %s should mention window", b)
	}
}

// TestOnlineDeadlineMidWindowNoGoroutineLeak: an online run whose deadline
// expires mid-stream — between lookahead windows, with commits already made —
// answers 504, and the worker abandons the replay instead of leaking.
func TestOnlineDeadlineMidWindowNoGoroutineLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a deliberately oversized online replay")
	}
	_, ts := newTestServer(t, Options{Workers: 2})
	// Warm the HTTP client/server goroutine pools so the baseline is honest.
	if status, _, b := post(t, ts.URL, onlineBody(t, map[string]any{"window": 256})); status != 200 {
		t.Fatalf("warm-up failed: %d %s", status, b)
	}
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	// jython at scale 4 (~1.2M calls) at a narrow window replans offline IAR
	// thousands of times: about 1 s of work on a 2-CPU x86-64 machine, where
	// loading the trace takes ~40 ms, so the 150 ms deadline lands well
	// inside the stream. At scale 1 the run took 0.15-0.22 s there, too
	// close to the deadline to be sure of a 504.
	body, _ := json.Marshal(map[string]any{
		"algo": "online-iar", "bench": "jython", "scale": 4, "window": 256, "timeout_ms": 150,
	})
	start := time.Now()
	status, _, b := post(t, ts.URL, body)
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s; want 504", status, b)
	}
	if elapsed > 5*time.Second {
		t.Errorf("504 took %v; the interrupt should land within a stride of the deadline", elapsed)
	}
	var e errorResponse
	if err := json.Unmarshal(b, &e); err != nil || !strings.Contains(e.Error, "deadline") {
		t.Errorf("error body %q should mention the deadline", b)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: baseline %d, now %d — timed-out online run leaked", baseline, runtime.NumGoroutine())
}
