package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dacapo"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchServeReport is the BENCH_serve.json document: one load-driver run
// against an in-process scheduling service, with client-observed latency
// percentiles and the server's own accounting side by side.
type benchServeReport struct {
	Name                 string  `json:"name"`
	Preset               string  `json:"preset"`
	Requests             int     `json:"requests"`
	Concurrency          int     `json:"concurrency"`
	Workers              int     `json:"workers"`
	CacheSize            int     `json:"cache_size"`
	DistinctFingerprints int     `json:"distinct_fingerprints"`
	DurationMS           float64 `json:"duration_ms"`
	ThroughputRPS        float64 `json:"throughput_rps"`
	Latency              struct {
		P50 float64 `json:"p50"`
		P90 float64 `json:"p90"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`
	Status map[string]int `json:"status"`
	Cache  struct {
		Misses    int     `json:"misses"`
		Coalesced int     `json:"coalesced"`
		Hits      int     `json:"hits"`
		HitRate   float64 `json:"hit_rate"`
	} `json:"cache"`
	QueueWaitAvgMS float64                     `json:"queue_wait_avg_ms"`
	Tenants        map[string]benchServeTenant `json:"tenants"`
	Gates          struct {
		MaxP99MS   float64 `json:"max_p99_ms,omitempty"`
		MinHitRate float64 `json:"min_hit_rate,omitempty"`
	} `json:"gates"`
}

// benchServeTenant is one tenant's slice of the run.
type benchServeTenant struct {
	Requests int `json:"requests"`
	Rejected int `json:"rejected"`
}

// cmdBenchServe replays a streaming workload spec as HTTP load against an
// in-process scheduling service and writes a machine-readable record. The
// rendered call sequence drives tenant arrival order — each request is
// attributed to the cohort that produced its call, so the spec's mixing
// process (steady, poisson, bursty, phase shifts) shapes the traffic exactly
// as it shapes the workload study. -max-p99 and -min-hit-rate turn the
// driver into its own CI gate.
func cmdBenchServe(args []string) error {
	fs := flag.NewFlagSet("bench-serve", flag.ExitOnError)
	preset := fs.String("preset", "stream-mix", "workload preset replayed as load (stream-mix, stream-phased, stream-bursty)")
	requests := fs.Int("requests", 10000, "total requests to send")
	conc := fs.Int("concurrency", 32, "concurrent client connections")
	workers := fs.Int("workers", server.DefaultWorkers, "server scheduling workers")
	cacheSize := fs.Int("cache", server.DefaultCacheSize, "server response-cache entries")
	queue := fs.Int("queue", server.DefaultQueueDepth, "server queue depth before 429")
	variants := fs.Int("variants", 4, "max_calls variants per (tenant, algo) — bounds distinct fingerprints")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant sustained requests/second (0 disables admission control)")
	tenantBurst := fs.Int("tenant-burst", 0, "per-tenant token-bucket depth (default max(1, rate))")
	tenantInflight := fs.Int("tenant-inflight", 0, "per-tenant in-flight quota (0 disables)")
	out := fs.String("o", "BENCH_serve.json", "output file")
	maxP99 := fs.Duration("max-p99", 0, "fail when client-observed p99 latency exceeds this (0 disables the gate)")
	minHitRate := fs.Float64("min-hit-rate", 0, "fail when the cache hit rate falls below this fraction (0 disables the gate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("bench-serve: unexpected argument %q", fs.Arg(0))
	}
	if *requests < 1 || *conc < 1 {
		return fmt.Errorf("bench-serve: -requests and -concurrency must be positive")
	}

	var spec *workload.Spec
	for _, s := range experiments.OnlineSpecs() {
		if s.Name == *preset {
			spec = s
			break
		}
	}
	if spec == nil {
		names := make([]string, 0, 3)
		for _, s := range experiments.OnlineSpecs() {
			names = append(names, s.Name)
		}
		return fmt.Errorf("bench-serve: unknown preset %q (have %v)", *preset, names)
	}

	// Render the stream once; its call sequence is the traffic script. To map
	// a rendered call back to its cohort, rebuild the FuncID offset ranges the
	// renderer used (cohort profiles are concatenated in order).
	tr, _, err := spec.Render()
	if err != nil {
		return fmt.Errorf("bench-serve: render %s: %w", spec.Name, err)
	}
	offsets := make([]trace.FuncID, len(spec.Cohorts)+1)
	for i, c := range spec.Cohorts {
		b, err := dacapo.ByName(c.Bench)
		if err != nil {
			return fmt.Errorf("bench-serve: %w", err)
		}
		offsets[i+1] = offsets[i] + trace.FuncID(b.Funcs)
	}

	// Pre-build the request bodies. The cheap heuristic schedulers keep a
	// 10k-request replay laptop-fast; max_calls variants bound the distinct
	// fingerprints so the run exercises a realistic hit-dominated mix.
	algos := []string{"iar", "jikes", "v8"}
	type reqBody struct {
		body   []byte
		tenant string
	}
	distinct := make(map[string]int) // body -> index into bodies
	var bodies []reqBody
	script := make([]int, *requests)
	for i := range script {
		call := tr.Calls[i%tr.Len()]
		cohort := 0
		for call >= offsets[cohort+1] {
			cohort++
		}
		c := spec.Cohorts[cohort]
		scale := c.Scale
		if scale == 0 {
			scale = workload.DefaultCohortScale
		}
		req := server.ScheduleRequest{
			Algo:     algos[int(call)%len(algos)],
			Bench:    c.Bench,
			Scale:    scale,
			MaxCalls: 200 * (1 + int(call)%*variants),
			Tenant:   c.Bench,
		}
		b, err := json.Marshal(req)
		if err != nil {
			return fmt.Errorf("bench-serve: %w", err)
		}
		idx, ok := distinct[string(b)]
		if !ok {
			idx = len(bodies)
			distinct[string(b)] = idx
			bodies = append(bodies, reqBody{body: b, tenant: c.Bench})
		}
		script[i] = idx
	}

	m := &obs.Metrics{}
	srv := server.New(server.Options{
		Workers:           *workers,
		QueueDepth:        *queue,
		CacheSize:         *cacheSize,
		TenantRate:        *tenantRate,
		TenantBurst:       *tenantBurst,
		TenantMaxInFlight: *tenantInflight,
		Metrics:           m,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan net.Addr, 1)
	srvDone := make(chan error, 1)
	go func() {
		srvDone <- srv.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addrCh <- a })
	}()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-srvDone:
		return fmt.Errorf("bench-serve: server failed to start: %w", err)
	}
	url := fmt.Sprintf("http://%s/schedule", addr)
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *conc,
		MaxIdleConnsPerHost: *conc,
	}}

	// Drive: conc goroutines pull indices off a shared cursor, so the wire
	// order follows the script's mixing order up to client concurrency.
	type sample struct {
		latency time.Duration
		status  int
		cache   string
		tenant  string
	}
	samples := make([]sample, *requests)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= *requests {
					return
				}
				rb := bodies[script[i]]
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(rb.body))
				if err != nil {
					samples[i] = sample{latency: time.Since(t0), status: -1, tenant: rb.tenant}
					continue
				}
				_, _ = new(bytes.Buffer).ReadFrom(resp.Body)
				resp.Body.Close()
				samples[i] = sample{
					latency: time.Since(t0),
					status:  resp.StatusCode,
					cache:   resp.Header.Get("X-Cache"),
					tenant:  rb.tenant,
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cancel()
	if err := <-srvDone; err != nil {
		return fmt.Errorf("bench-serve: server: %w", err)
	}

	// Reduce.
	rep := &benchServeReport{
		Name:                 "bench-serve",
		Preset:               spec.Name,
		Requests:             *requests,
		Concurrency:          *conc,
		Workers:              *workers,
		CacheSize:            *cacheSize,
		DistinctFingerprints: len(bodies),
		DurationMS:           float64(elapsed.Nanoseconds()) / 1e6,
		ThroughputRPS:        float64(*requests) / elapsed.Seconds(),
		Status:               make(map[string]int),
		Tenants:              make(map[string]benchServeTenant),
	}
	lat := make([]time.Duration, 0, *requests)
	completed := 0
	for _, s := range samples {
		key := fmt.Sprintf("%d", s.status)
		if s.status == -1 {
			key = "transport-error"
		}
		rep.Status[key]++
		tn := rep.Tenants[s.tenant]
		tn.Requests++
		if s.status == http.StatusTooManyRequests {
			tn.Rejected++
		}
		rep.Tenants[s.tenant] = tn
		if s.status == http.StatusOK {
			completed++
			lat = append(lat, s.latency)
			switch s.cache {
			case "miss":
				rep.Cache.Misses++
			case "coalesced":
				rep.Cache.Coalesced++
			case "hit":
				rep.Cache.Hits++
			}
		}
	}
	if completed > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		pct := func(p float64) float64 {
			i := int(p * float64(len(lat)-1))
			return float64(lat[i].Nanoseconds()) / 1e6
		}
		rep.Latency.P50 = pct(0.50)
		rep.Latency.P90 = pct(0.90)
		rep.Latency.P99 = pct(0.99)
		rep.Latency.Max = float64(lat[len(lat)-1].Nanoseconds()) / 1e6
		rep.Cache.HitRate = float64(rep.Cache.Hits+rep.Cache.Coalesced) / float64(completed)
	}
	if snap := m.Snapshot(); rep.Cache.Misses > 0 {
		rep.QueueWaitAvgMS = float64(snap.ServeQueueWait.Nanoseconds()) / 1e6 / float64(rep.Cache.Misses)
	}
	rep.Gates.MaxP99MS = float64(maxP99.Nanoseconds()) / 1e6
	rep.Gates.MinHitRate = *minHitRate

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("bench-serve: %w", err)
	}
	doc = append(doc, '\n')
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		return fmt.Errorf("bench-serve: %w", err)
	}
	fmt.Fprintf(os.Stderr, "bench-serve: %d requests (%d fingerprints) in %v — p50 %.2fms p99 %.2fms, hit rate %.3f, %s\n",
		*requests, len(bodies), elapsed.Round(time.Millisecond),
		rep.Latency.P50, rep.Latency.P99, rep.Cache.HitRate, *out)

	// Self-gating: the Makefile's bench-json-serve target sets both flags, so
	// a latency or hit-rate regression fails CI without a separate checker.
	if errors := completed == 0; errors {
		return fmt.Errorf("bench-serve: no request completed (statuses %v)", rep.Status)
	}
	if *maxP99 > 0 && rep.Latency.P99 > float64(maxP99.Nanoseconds())/1e6 {
		return fmt.Errorf("bench-serve: p99 latency %.2fms exceeds the %.2fms gate", rep.Latency.P99, float64(maxP99.Nanoseconds())/1e6)
	}
	if *minHitRate > 0 && rep.Cache.HitRate < *minHitRate {
		return fmt.Errorf("bench-serve: cache hit rate %.3f below the %.3f gate", rep.Cache.HitRate, *minHitRate)
	}
	return nil
}
