// Package server exposes the scheduling engine as an HTTP service: POST a
// trace+profile payload (inline or a named corpus entry) plus an algorithm
// name, get back the schedule, its simulated make-span, and the gap to the
// §5 lower bound.
//
// The service is deliberately boring in shape — a bounded queue in front of
// a fixed worker pool, an LRU single-flight response cache keyed by the
// engine's canonical job fingerprint, and cooperative cancellation threaded
// through every search — because the point is to demonstrate that the
// engine's determinism survives concurrency: identical requests produce
// byte-identical response bodies whether they were computed, coalesced onto
// an in-flight leader, or served from cache.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/astar"
	"repro/internal/core"
	"repro/internal/dacapo"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Defaults for Options zero values.
const (
	DefaultWorkers        = 4
	DefaultQueueDepth     = 64
	DefaultCacheSize      = 256
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxTimeout     = 2 * time.Minute
	DefaultMaxBodyBytes   = 8 << 20
	DefaultMaxBatchItems  = 64
)

// errDeadline is the cancellation cause installed by the per-request timeout;
// requests that die of it answer 504.
var errDeadline = errors.New("server: request deadline exceeded")

// errDraining is the cancellation cause installed by Shutdown; requests that
// die of it answer 503.
var errDraining = errors.New("server: shutting down")

// Options configures a Server. Zero values take the package defaults.
type Options struct {
	// Workers is the number of goroutines computing schedules.
	Workers int
	// QueueDepth bounds the requests waiting for a worker; beyond it the
	// server answers 429 instead of buffering unboundedly.
	QueueDepth int
	// CacheSize is the LRU response-cache capacity in entries; negative
	// disables caching (zero means DefaultCacheSize).
	CacheSize int
	// DefaultTimeout applies when a request does not set timeout_ms;
	// MaxTimeout clamps whatever the request asks for.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes caps the request body; larger payloads answer 413.
	MaxBodyBytes int64
	// TenantRate, when positive, is the per-tenant sustained request rate in
	// requests/second (token bucket; TenantBurst is its depth, defaulting to
	// max(1, TenantRate)). TenantMaxInFlight, when positive, caps a tenant's
	// concurrently processing requests. Exceeding either answers 429 with a
	// Retry-After header. Zero values disable admission control.
	TenantRate        float64
	TenantBurst       int
	TenantMaxInFlight int
	// MaxBatchItems caps the items of one POST /schedule/batch envelope
	// (zero means DefaultMaxBatchItems).
	MaxBatchItems int
	// Metrics receives the service counters (nil is safe and means the
	// process-wide default sink).
	Metrics *obs.Metrics
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = DefaultWorkers
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	if o.CacheSize == 0 {
		o.CacheSize = DefaultCacheSize
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = DefaultRequestTimeout
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = DefaultMaxTimeout
	}
	if o.DefaultTimeout > o.MaxTimeout {
		o.DefaultTimeout = o.MaxTimeout
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if o.MaxBatchItems <= 0 {
		o.MaxBatchItems = DefaultMaxBatchItems
	}
	if o.Metrics == nil {
		o.Metrics = obs.Default()
	}
	return o
}

// job is one leader request handed to the worker pool.
type job struct {
	req      *ScheduleRequest
	key      string
	entry    *cacheEntry
	enqueued time.Time
}

// Server is the scheduling service: an http.Handler plus the worker pool
// behind it.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	cache   *shardedCache
	tenants *tenantGovernor
	// qmu guards enqueues against Shutdown's close: senders hold it shared
	// and re-check draining, Shutdown closes the channel holding it
	// exclusively, so a send can never race the close.
	qmu      sync.RWMutex
	queue    chan job
	wg       sync.WaitGroup
	draining atomic.Bool
	shutdown sync.Once
	rootCtx  context.Context
	cancel   context.CancelCauseFunc
	m        *obs.Metrics
}

// New builds a Server and starts its worker pool. Callers must Shutdown it
// to release the workers.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:  opts,
		mux:   http.NewServeMux(),
		cache: newShardedCache(opts.CacheSize),
		tenants: newTenantGovernor(tenantLimits{
			Rate:        opts.TenantRate,
			Burst:       opts.TenantBurst,
			MaxInFlight: opts.TenantMaxInFlight,
		}),
		queue: make(chan job, opts.QueueDepth),
		m:     opts.Metrics,
	}
	s.rootCtx, s.cancel = context.WithCancelCause(context.Background())
	s.mux.HandleFunc("POST /schedule", s.handleSchedule)
	s.mux.HandleFunc("POST /schedule/batch", s.handleBatch)
	s.mux.HandleFunc("GET /algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("GET /benchmarks", s.handleBenchmarks)
	// The observability surface rides along on the same listener. It is
	// mounted on its concrete paths, not "/": a catch-all would swallow
	// method mismatches (GET /schedule should be 405, not the obs 404).
	oh := obs.Handler()
	s.mux.Handle("GET /metrics", oh)
	s.mux.Handle("GET /healthz", oh)
	s.mux.Handle("GET /debug/", oh)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the service: new scheduling requests are bounced with 503,
// queued and running jobs are cancelled (their waiters get 503/504), and the
// worker pool is joined. It is idempotent and safe to call concurrently with
// requests.
func (s *Server) Shutdown() {
	s.shutdown.Do(func() {
		s.cancel(errDraining)
		s.qmu.Lock()
		s.draining.Store(true)
		close(s.queue)
		s.qmu.Unlock()
	})
	s.wg.Wait()
}

// worker is the pool loop: pop, compute under the request's deadline,
// publish into the cache entry. Each worker owns one IAR planner for the life
// of the pool — jobs run serially on the worker, so every IAR job after the
// first reuses warm buffers instead of allocating fresh working state.
func (s *Server) worker() {
	defer s.wg.Done()
	pl := new(core.IARPlanner)
	for j := range s.queue {
		s.m.ServeQueue(-1)
		s.m.ServeQueueWait(time.Since(j.enqueued))
		s.runJob(j, pl)
	}
}

// enqueue offers j to the worker pool without blocking, reporting whether it
// was accepted. It holds qmu shared so the send cannot race Shutdown's close.
func (s *Server) enqueue(j job) bool {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.draining.Load() {
		return false
	}
	select {
	case s.queue <- j:
		s.m.ServeQueue(1)
		return true
	default:
		return false
	}
}

// runJob computes one leader request and completes its cache entry.
func (s *Server) runJob(j job, pl *core.IARPlanner) {
	d := j.req.timeout(s.opts.DefaultTimeout, s.opts.MaxTimeout)
	// The deadline covers queue wait too — a request is a promise to answer
	// within its budget, not to start within it.
	d -= time.Since(j.enqueued)
	if d <= 0 {
		s.cache.complete(j.key, j.entry, nil, fmt.Errorf("%w: %w", astar.ErrCancelled, errDeadline))
		return
	}
	ctx, cancel := context.WithTimeoutCause(s.rootCtx, d, errDeadline)
	defer cancel()
	body, err := s.compute(ctx, j.req, pl)
	s.cache.complete(j.key, j.entry, body, err)
}

// compute runs the request and marshals the response body. The response is
// fully marshalled before compute returns, so a schedule aliasing the
// worker's planner never outlives its validity window.
func (s *Server) compute(ctx context.Context, req *ScheduleRequest, pl *core.IARPlanner) ([]byte, error) {
	w, err := req.workload()
	if err != nil {
		return nil, err
	}
	resp, err := execute(ctx, req, w, pl, s.m)
	if err != nil {
		// The simulator's interrupt sentinel does not carry the cause; graft
		// it on so the handler can tell a deadline from a drain.
		if errors.Is(err, sim.ErrInterrupted) {
			if c := context.Cause(ctx); c != nil {
				err = fmt.Errorf("%w: %w", err, c)
			}
		}
		return nil, err
	}
	return marshalResponse(resp)
}

// applyTenantHeader merges the X-Tenant header into the decoded request; the
// header wins over the body's tenant field.
func applyTenantHeader(req *ScheduleRequest, r *http.Request) error {
	if h := r.Header.Get("X-Tenant"); h != "" {
		if err := validTenant(h); err != nil {
			return err
		}
		req.Tenant = h
	}
	return nil
}

// admitTenant runs admission control for one request and writes the 429
// (with Retry-After) on rejection. The returned release must be called when
// the request finishes processing; ok=false means the response is written.
func (s *Server) admitTenant(w http.ResponseWriter, tenant string) (release func(), ok bool) {
	s.m.ServeTenant(tenant)
	release, retryAfter, ok := s.tenants.admit(tenant)
	if !ok {
		s.m.ServeRejected()
		s.m.ServeTenantRejected(tenant)
		w.Header().Set("Retry-After", retryAfterHeader(retryAfter))
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q is over its admission limits, retry later", tenant))
		return nil, false
	}
	return release, true
}

// lease runs one request through the single-flight cache and, when leading,
// the worker queue. It reports the entry to wait on and the begin state;
// ok=false means the queue bounced the leader (backpressure) and the
// stillborn entry was evicted so the next caller can lead.
func (s *Server) lease(req *ScheduleRequest) (entry *cacheEntry, state beginState, ok bool) {
	key := req.fingerprint()
	entry, state = s.cache.begin(key)
	switch state {
	case beginLead:
		if !s.enqueue(job{req: req, key: key, entry: entry, enqueued: time.Now()}) {
			s.cache.complete(key, entry, nil, errDraining)
			return nil, state, false
		}
	case beginHit:
		s.m.ServeCacheHit()
		s.m.ServeShardHit(s.cache.shardIndex(key))
	case beginCoalesced:
		s.m.ServeCoalesced()
		s.m.ServeShardHit(s.cache.shardIndex(key))
	}
	return entry, state, true
}

// handleSchedule is POST /schedule.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	s.m.ServeRequest()
	if s.draining.Load() {
		s.m.ServeRejected()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	req, err := decodeScheduleRequest(r.Body)
	if err == nil {
		err = applyTenantHeader(req, r)
	}
	if err != nil {
		s.m.ServeDone(false, false)
		writeError(w, statusFor(err), err.Error())
		return
	}
	release, admitted := s.admitTenant(w, req.tenant())
	if !admitted {
		return
	}
	defer release()

	entry, state, accepted := s.lease(req)
	if !accepted {
		s.m.ServeRejected()
		w.Header().Set("Retry-After", retryAfterHeader(time.Second))
		writeError(w, http.StatusTooManyRequests, "scheduling queue is full, retry later")
		return
	}

	select {
	case <-entry.ready:
	case <-r.Context().Done():
		// The client went away. The computation keeps running for any
		// coalesced followers; this response is dead either way — but it is
		// a client disconnect, not a timeout, and is counted as such.
		s.m.ServeClientGone()
		return
	}
	if entry.err != nil {
		if r.Context().Err() != nil {
			// 499-style: the computation died of cancellation and the client
			// is gone; there is nobody to answer, so write nothing.
			s.m.ServeClientGone()
			return
		}
		status := statusFor(entry.err)
		s.m.ServeDone(false, status == http.StatusGatewayTimeout)
		writeError(w, status, entry.err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// Cache status travels in a header, never the body: miss, coalesced, and
	// hit must serve byte-identical documents. A coalesced follower shared an
	// in-flight computation; only a completed entry reports hit.
	w.Header().Set("X-Cache", state.String())
	w.Header().Set("Content-Length", strconv.Itoa(len(entry.body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(entry.body) // a failed write means the client left mid-body
	s.m.ServeDone(true, false)
}

// handleAlgorithms is GET /algorithms.
func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"algorithms": Algorithms})
}

// handleBenchmarks is GET /benchmarks.
func (s *Server) handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"benchmarks": dacapo.Names()})
}

// statusFor maps a computation error to its HTTP status.
func statusFor(err error) int {
	var rerr *requestError
	switch {
	case errors.As(err, &rerr):
		return rerr.status
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, errDeadline),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// A deliberate cancellation is not a gateway timeout. When the
		// client is gone the handler writes nothing at all (499-style); a
		// cancel reaching a live client means the work was torn down under
		// it — the service's unavailability, not the upstream's slowness.
		return http.StatusServiceUnavailable
	case errors.Is(err, astar.ErrCancelled), errors.Is(err, sim.ErrInterrupted):
		// Cancelled with no recognizable cause attached: the per-request
		// deadline machinery is the only remaining source.
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON marshals v before touching the ResponseWriter: once a status
// line is committed an encoding failure could only be appended as body
// garbage, so the marshal must succeed first (and its error answers 500
// instead of being silently dropped).
func writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response")
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // nothing to do for a client that left mid-body
}

func writeError(w http.ResponseWriter, status int, msg string) {
	b, err := json.Marshal(errorResponse{Error: msg})
	if err != nil {
		// errorResponse is a plain string wrapper; Marshal cannot fail on
		// it. Keep the fallback anyway so the contract survives refactors.
		b = []byte(`{"error":"internal error"}`)
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b)
}

// ListenAndServe runs the service on addr until ctx is cancelled, then
// drains: the listener stops accepting, in-flight requests are answered
// (cancelled ones with 503/504), and the worker pool is joined before
// returning. The ready callback, if non-nil, receives the bound address once
// the listener is up (useful with ":0").
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr())
	}
	hs := &http.Server{Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		s.Shutdown()
		return err
	case <-ctx.Done():
	}
	// Drain order: flip the reject flag and cancel running searches first so
	// in-flight handlers finish fast, then let the HTTP server wait for them.
	s.Shutdown()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return hs.Shutdown(sctx)
}
