package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is a set of process-wide counters the runner (and any other
// subsystem) reports into. All methods are nil-safe and lock-free, so a
// disabled metrics sink costs one predictable branch.
type Metrics struct {
	jobsStarted   atomic.Int64
	jobsCompleted atomic.Int64
	jobsFailed    atomic.Int64
	jobsPanicked  atomic.Int64
	cacheHits     atomic.Int64
	deduped       atomic.Int64
	queueWaitNS   atomic.Int64
	jobWallNS     atomic.Int64
	maxJobWallNS  atomic.Int64
	jobsCancelled atomic.Int64
	simRuns       atomic.Int64
	simTicks      atomic.Int64

	onlineRuns        atomic.Int64
	onlineCommits     atomic.Int64
	onlineForced      atomic.Int64
	onlineReplans     atomic.Int64
	onlineDirtySkips  atomic.Int64
	onlineReplanNanos atomic.Int64

	searchRuns      atomic.Int64
	searchExpanded  atomic.Int64
	searchStored    atomic.Int64
	searchTableHits atomic.Int64
	searchPruned    atomic.Int64

	searchDispatchSerial   atomic.Int64
	searchDispatchParallel atomic.Int64
	searchSpeedupMilli     atomic.Int64

	exactSolves    atomic.Int64
	exactConflicts atomic.Int64
	exactLearned   atomic.Int64

	iarArenas   atomic.Int64
	iarRuns     atomic.Int64
	iarWarmRuns atomic.Int64

	serveRequests    atomic.Int64
	serveOK          atomic.Int64
	serveErrors      atomic.Int64
	serveCacheHits   atomic.Int64
	serveCoalesced   atomic.Int64
	serveCancelled   atomic.Int64
	serveClientGone  atomic.Int64
	serveRejected    atomic.Int64
	serveQueueDepth  atomic.Int64
	serveQueueWaitNS atomic.Int64
	serveBatches     atomic.Int64
	serveBatchItems  atomic.Int64

	// Labeled serve counters: per-tenant traffic and 429s, per-cache-shard
	// hits. Maps under a mutex rather than atomics — tenant names arrive at
	// runtime — on the rejection/accounting path, never the hot compute path.
	labeledMu      sync.Mutex
	tenantRequests map[string]int64
	tenantRejects  map[string]int64
	shardHits      map[int]int64
}

var (
	defaultMetrics Metrics
	publishOnce    sync.Once
)

// Default returns the process-wide Metrics instance — the one the shared
// runner reports into and Serve exposes.
func Default() *Metrics { return &defaultMetrics }

// JobStarted records that a job left the queue after waiting queueWait.
func (m *Metrics) JobStarted(queueWait time.Duration) {
	if m == nil {
		return
	}
	m.jobsStarted.Add(1)
	m.queueWaitNS.Add(int64(queueWait))
}

// JobCompleted records one finished job and its wall time.
func (m *Metrics) JobCompleted(wall time.Duration, failed, panicked bool) {
	if m == nil {
		return
	}
	m.jobsCompleted.Add(1)
	m.jobWallNS.Add(int64(wall))
	for {
		cur := m.maxJobWallNS.Load()
		if int64(wall) <= cur || m.maxJobWallNS.CompareAndSwap(cur, int64(wall)) {
			break
		}
	}
	if failed {
		m.jobsFailed.Add(1)
	}
	if panicked {
		m.jobsPanicked.Add(1)
	}
}

// JobCancelled records a job that ended because its batch's context was
// cancelled — counted separately from genuine failures.
func (m *Metrics) JobCancelled() {
	if m == nil {
		return
	}
	m.jobsCancelled.Add(1)
}

// CacheHit records jobs answered from the runner's result cache.
func (m *Metrics) CacheHit(n int64) {
	if m == nil {
		return
	}
	m.cacheHits.Add(n)
}

// Deduped records jobs that shared a batch-mate's in-flight computation.
func (m *Metrics) Deduped(n int64) {
	if m == nil {
		return
	}
	m.deduped.Add(n)
}

// SimRun records one completed simulation of ticks simulated make-span.
func (m *Metrics) SimRun(ticks int64) {
	if m == nil {
		return
	}
	m.simRuns.Add(1)
	m.simTicks.Add(ticks)
}

// OnlineRun records one completed online-harness run: how many compile
// events it committed and how many of those were forced on-demand
// fallbacks.
func (m *Metrics) OnlineRun(commits, forced int64) {
	if m == nil {
		return
	}
	m.onlineRuns.Add(1)
	m.onlineCommits.Add(commits)
	m.onlineForced.Add(forced)
}

// OnlineSched records one online run's scheduler-side cost accounting:
// how many replans the scheduler ran, how many of those took the warm-start
// fast path (dirty set empty under the plan-stability check), and the total
// time spent inside replans.
func (m *Metrics) OnlineSched(replans, dirtySkips, schedNanos int64) {
	if m == nil {
		return
	}
	m.onlineReplans.Add(replans)
	m.onlineDirtySkips.Add(dirtySkips)
	m.onlineReplanNanos.Add(schedNanos)
}

// SearchRun records one completed (or budget-aborted) tree search: nodes
// expanded and stored, plus how many candidates the transposition table and
// the admissible bound pruned.
func (m *Metrics) SearchRun(expanded, stored, tableHits, pruned int64) {
	if m == nil {
		return
	}
	m.searchRuns.Add(1)
	m.searchExpanded.Add(expanded)
	m.searchStored.Add(stored)
	m.searchTableHits.Add(tableHits)
	m.searchPruned.Add(pruned)
}

// SearchDispatch records one adaptive worker-count decision (Workers=0 auto
// mode on BnB): whether the dispatcher chose the parallel pipeline.
func (m *Metrics) SearchDispatch(parallel bool) {
	if m == nil {
		return
	}
	if parallel {
		m.searchDispatchParallel.Add(1)
	} else {
		m.searchDispatchSerial.Add(1)
	}
}

// SearchSpeedup records the dispatcher's latest observed serial/parallel
// speedup estimate for some instance-size bucket, in thousandths (1000 =
// parity). It is a gauge: the last write wins.
func (m *Metrics) SearchSpeedup(milli int64) {
	if m == nil {
		return
	}
	m.searchSpeedupMilli.Store(milli)
}

// ExactSolve records one exact-solver run (completed or aborted) and the
// CDCL work its CNF probes did: conflicts hit and clauses learned.
func (m *Metrics) ExactSolve(conflicts, learned int64) {
	if m == nil {
		return
	}
	m.exactSolves.Add(1)
	m.exactConflicts.Add(conflicts)
	m.exactLearned.Add(learned)
}

// IARPlannerCreated records one IAR planner sized by its first reset.
func (m *Metrics) IARPlannerCreated() {
	if m == nil {
		return
	}
	m.iarArenas.Add(1)
}

// IARRun records one one-shot IAR run on a planner; warm means the planner
// had run before and its buffers were already sized.
func (m *Metrics) IARRun(warm bool) {
	if m == nil {
		return
	}
	m.iarRuns.Add(1)
	if warm {
		m.iarWarmRuns.Add(1)
	}
}

// ServeRequest records one scheduling-service request received (before
// decoding or any queueing decision).
func (m *Metrics) ServeRequest() {
	if m == nil {
		return
	}
	m.serveRequests.Add(1)
}

// ServeDone records one finished scheduling-service request. Exactly one of
// the flags describes the outcome: ok (schedule returned), cancelled (the
// request's deadline or client cancellation won), or neither for any other
// error.
func (m *Metrics) ServeDone(ok, cancelled bool) {
	if m == nil {
		return
	}
	switch {
	case ok:
		m.serveOK.Add(1)
	case cancelled:
		m.serveCancelled.Add(1)
	default:
		m.serveErrors.Add(1)
	}
}

// ServeCacheHit records a request answered from a completed entry of the
// service's result cache. Followers coalesced onto a still-in-flight leader
// are counted by ServeCoalesced instead — they were deduplicated, not served
// from cache.
func (m *Metrics) ServeCacheHit() {
	if m == nil {
		return
	}
	m.serveCacheHits.Add(1)
}

// ServeCoalesced records a request that shared another request's in-flight
// computation (X-Cache: coalesced).
func (m *Metrics) ServeCoalesced() {
	if m == nil {
		return
	}
	m.serveCoalesced.Add(1)
}

// ServeClientGone records a request whose client disconnected before the
// response was ready — not a timeout, not an error: nobody was left to
// answer.
func (m *Metrics) ServeClientGone() {
	if m == nil {
		return
	}
	m.serveClientGone.Add(1)
}

// ServeQueueWait records the time one job spent queued before a worker
// picked it up.
func (m *Metrics) ServeQueueWait(d time.Duration) {
	if m == nil {
		return
	}
	m.serveQueueWaitNS.Add(int64(d))
}

// ServeBatch records one batch request carrying items entries.
func (m *Metrics) ServeBatch(items int64) {
	if m == nil {
		return
	}
	m.serveBatches.Add(1)
	m.serveBatchItems.Add(items)
}

// ServeTenant records one request attributed to tenant (after admission).
func (m *Metrics) ServeTenant(tenant string) {
	if m == nil {
		return
	}
	m.labeledMu.Lock()
	if m.tenantRequests == nil {
		m.tenantRequests = make(map[string]int64)
	}
	m.tenantRequests[tenant]++
	m.labeledMu.Unlock()
}

// ServeTenantRejected records one admission-control 429 for tenant.
func (m *Metrics) ServeTenantRejected(tenant string) {
	if m == nil {
		return
	}
	m.labeledMu.Lock()
	if m.tenantRejects == nil {
		m.tenantRejects = make(map[string]int64)
	}
	m.tenantRejects[tenant]++
	m.labeledMu.Unlock()
}

// ServeShardHit records a completed-entry hit or in-flight coalesce landing
// on cache shard (negative shards — caching disabled — are dropped).
func (m *Metrics) ServeShardHit(shard int) {
	if m == nil || shard < 0 {
		return
	}
	m.labeledMu.Lock()
	if m.shardHits == nil {
		m.shardHits = make(map[int]int64)
	}
	m.shardHits[shard]++
	m.labeledMu.Unlock()
}

// ServeRejected records a request bounced with backpressure (queue full or
// server draining).
func (m *Metrics) ServeRejected() {
	if m == nil {
		return
	}
	m.serveRejected.Add(1)
}

// ServeQueue adjusts the scheduling-service queue-depth gauge by delta
// (+1 on enqueue, -1 on dequeue).
func (m *Metrics) ServeQueue(delta int64) {
	if m == nil {
		return
	}
	m.serveQueueDepth.Add(delta)
}

// Snapshot is a point-in-time copy of the counters, safe to marshal.
type Snapshot struct {
	JobsStarted   int64 `json:"jobs_started"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsPanicked  int64 `json:"jobs_panicked"`
	// JobsCancelled counts jobs ended by their batch context's cancellation
	// (not genuine failures, not successes).
	JobsCancelled int64 `json:"jobs_cancelled"`
	CacheHits     int64 `json:"cache_hits"`
	Deduped       int64 `json:"deduped"`
	// QueueWait is the summed time jobs spent waiting for a worker;
	// JobWall the summed job wall time; MaxJobWall the slowest single job.
	QueueWait  time.Duration `json:"queue_wait_ns"`
	JobWall    time.Duration `json:"job_wall_ns"`
	MaxJobWall time.Duration `json:"max_job_wall_ns"`
	// SimRuns counts completed simulations; SimTicks sums their make-spans.
	SimRuns  int64 `json:"sim_runs"`
	SimTicks int64 `json:"sim_ticks"`
	// OnlineRuns counts online-harness runs; OnlineCommits sums their
	// committed compile events; OnlineForced the forced on-demand subset.
	OnlineRuns    int64 `json:"online_runs"`
	OnlineCommits int64 `json:"online_commits"`
	OnlineForced  int64 `json:"online_forced"`
	// OnlineReplans counts replanning-scheduler plans across online runs, of
	// which OnlineDirtySkips took the warm-start fast path (no structural
	// rebuild); OnlineReplanNanos sums the scheduler-side time spent planning.
	OnlineReplans     int64 `json:"online_replans"`
	OnlineDirtySkips  int64 `json:"online_dirty_skips"`
	OnlineReplanNanos int64 `json:"online_replan_nanos"`
	// SearchRuns counts tree searches; the others sum their per-run node and
	// prune counters.
	SearchRuns      int64 `json:"search_runs"`
	SearchExpanded  int64 `json:"search_expanded"`
	SearchStored    int64 `json:"search_stored"`
	SearchTableHits int64 `json:"search_table_hits"`
	SearchPruned    int64 `json:"search_pruned"`
	// SearchDispatchSerial/Parallel count the adaptive dispatcher's Workers=0
	// decisions; SearchSpeedupMilli is its latest observed serial/parallel
	// speedup estimate in thousandths (1000 = parity, 0 = no observation yet).
	SearchDispatchSerial   int64 `json:"search_dispatch_serial"`
	SearchDispatchParallel int64 `json:"search_dispatch_parallel"`
	SearchSpeedupMilli     int64 `json:"search_speedup_milli"`
	// ExactSolves counts exact-solver runs; ExactConflicts and ExactLearned
	// sum the CDCL conflicts hit and clauses learned across their CNF probes.
	ExactSolves    int64 `json:"exact_solves"`
	ExactConflicts int64 `json:"exact_conflicts"`
	ExactLearned   int64 `json:"exact_learned_clauses"`
	// IARArenas counts IAR planners created (the key predates the planner);
	// IARRuns the one-shot IAR runs served, of which IARWarmRuns reused an
	// already-sized planner. A high runs-to-planners ratio is the reuse
	// working.
	IARArenas   int64 `json:"iar_arenas"`
	IARRuns     int64 `json:"iar_runs"`
	IARWarmRuns int64 `json:"iar_warm_runs"`
	// ServeRequests counts scheduling-service requests accepted for
	// processing; ServeOK/ServeErrors/ServeCancelled/ServeClientGone split
	// their outcomes (client-gone: the client disconnected before the answer
	// was ready — distinct from a timeout); ServeCacheHits counts requests
	// answered from a completed cache entry and ServeCoalesced followers
	// deduplicated onto an in-flight leader; ServeRejected counts
	// backpressure bounces (429/503); ServeQueueDepth is the current
	// queue-depth gauge and ServeQueueWait the summed time jobs waited for a
	// worker; ServeBatches/ServeBatchItems count batch envelopes and the
	// items inside them.
	ServeRequests   int64         `json:"serve_requests"`
	ServeOK         int64         `json:"serve_ok"`
	ServeErrors     int64         `json:"serve_errors"`
	ServeCancelled  int64         `json:"serve_cancelled"`
	ServeClientGone int64         `json:"serve_client_gone"`
	ServeCacheHits  int64         `json:"serve_cache_hits"`
	ServeCoalesced  int64         `json:"serve_coalesced"`
	ServeRejected   int64         `json:"serve_rejected"`
	ServeQueueDepth int64         `json:"serve_queue_depth"`
	ServeQueueWait  time.Duration `json:"serve_queue_wait_ns"`
	ServeBatches    int64         `json:"serve_batches"`
	ServeBatchItems int64         `json:"serve_batch_items"`
	// ServeTenantRequests/ServeTenantRejects break serve traffic and
	// admission-control 429s down by tenant; ServeShardHits breaks cache
	// hits+coalesces down by cache shard. Empty maps are omitted.
	ServeTenantRequests map[string]int64 `json:"serve_tenant_requests,omitempty"`
	ServeTenantRejects  map[string]int64 `json:"serve_tenant_rejects,omitempty"`
	ServeShardHits      map[int]int64    `json:"serve_shard_hits,omitempty"`
}

// Snapshot returns a consistent-enough copy of the counters (each counter is
// read atomically; the set is not a transaction).
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	return Snapshot{
		JobsStarted:   m.jobsStarted.Load(),
		JobsCompleted: m.jobsCompleted.Load(),
		JobsFailed:    m.jobsFailed.Load(),
		JobsPanicked:  m.jobsPanicked.Load(),
		JobsCancelled: m.jobsCancelled.Load(),
		CacheHits:     m.cacheHits.Load(),
		Deduped:       m.deduped.Load(),
		QueueWait:     time.Duration(m.queueWaitNS.Load()),
		JobWall:       time.Duration(m.jobWallNS.Load()),
		MaxJobWall:    time.Duration(m.maxJobWallNS.Load()),
		SimRuns:       m.simRuns.Load(),
		SimTicks:      m.simTicks.Load(),

		OnlineRuns:        m.onlineRuns.Load(),
		OnlineCommits:     m.onlineCommits.Load(),
		OnlineForced:      m.onlineForced.Load(),
		OnlineReplans:     m.onlineReplans.Load(),
		OnlineDirtySkips:  m.onlineDirtySkips.Load(),
		OnlineReplanNanos: m.onlineReplanNanos.Load(),

		SearchRuns:      m.searchRuns.Load(),
		SearchExpanded:  m.searchExpanded.Load(),
		SearchStored:    m.searchStored.Load(),
		SearchTableHits: m.searchTableHits.Load(),
		SearchPruned:    m.searchPruned.Load(),

		SearchDispatchSerial:   m.searchDispatchSerial.Load(),
		SearchDispatchParallel: m.searchDispatchParallel.Load(),
		SearchSpeedupMilli:     m.searchSpeedupMilli.Load(),

		ExactSolves:    m.exactSolves.Load(),
		ExactConflicts: m.exactConflicts.Load(),
		ExactLearned:   m.exactLearned.Load(),

		IARArenas:   m.iarArenas.Load(),
		IARRuns:     m.iarRuns.Load(),
		IARWarmRuns: m.iarWarmRuns.Load(),

		ServeRequests:   m.serveRequests.Load(),
		ServeOK:         m.serveOK.Load(),
		ServeErrors:     m.serveErrors.Load(),
		ServeCancelled:  m.serveCancelled.Load(),
		ServeClientGone: m.serveClientGone.Load(),
		ServeCacheHits:  m.serveCacheHits.Load(),
		ServeCoalesced:  m.serveCoalesced.Load(),
		ServeRejected:   m.serveRejected.Load(),
		ServeQueueDepth: m.serveQueueDepth.Load(),
		ServeQueueWait:  time.Duration(m.serveQueueWaitNS.Load()),
		ServeBatches:    m.serveBatches.Load(),
		ServeBatchItems: m.serveBatchItems.Load(),

		ServeTenantRequests: m.copyLabeled(&m.tenantRequests),
		ServeTenantRejects:  m.copyLabeled(&m.tenantRejects),
		ServeShardHits:      m.copyLabeledInt(&m.shardHits),
	}
}

// copyLabeled snapshots one string-labeled counter map (nil when empty).
func (m *Metrics) copyLabeled(src *map[string]int64) map[string]int64 {
	m.labeledMu.Lock()
	defer m.labeledMu.Unlock()
	if len(*src) == 0 {
		return nil
	}
	out := make(map[string]int64, len(*src))
	for k, v := range *src {
		out[k] = v
	}
	return out
}

// copyLabeledInt snapshots one int-labeled counter map (nil when empty).
func (m *Metrics) copyLabeledInt(src *map[int]int64) map[int]int64 {
	m.labeledMu.Lock()
	defer m.labeledMu.Unlock()
	if len(*src) == 0 {
		return nil
	}
	out := make(map[int]int64, len(*src))
	for k, v := range *src {
		out[k] = v
	}
	return out
}

// String renders the snapshot as one log-friendly line.
func (s Snapshot) String() string {
	return fmt.Sprintf(
		"obs: %d jobs started, %d completed (%d failed, %d panicked, %d job-cancelled), %d cache hits, %d deduped, queue wait %v, job wall %v (max %v), %d sims (%d ticks), %d online runs (%d commits, %d forced, %d replans/%d dirty-skips in %v), %d searches (%d expanded, %d stored, %d table hits, %d pruned), dispatch %d serial/%d parallel (speedup %d‰), %d exact solves (%d conflicts, %d learned), %d IAR runs (%d warm) on %d planners, %d served (%d ok, %d cancelled, %d client-gone, %d errored, %d serve cache hits, %d coalesced, %d rejected, %d tenants throttled, depth %d, serve queue wait %v, %d batches/%d items)",
		s.JobsStarted, s.JobsCompleted, s.JobsFailed, s.JobsPanicked, s.JobsCancelled,
		s.CacheHits, s.Deduped,
		s.QueueWait.Round(time.Microsecond), s.JobWall.Round(time.Microsecond),
		s.MaxJobWall.Round(time.Microsecond), s.SimRuns, s.SimTicks,
		s.OnlineRuns, s.OnlineCommits, s.OnlineForced,
		s.OnlineReplans, s.OnlineDirtySkips, time.Duration(s.OnlineReplanNanos).Round(time.Microsecond),
		s.SearchRuns, s.SearchExpanded, s.SearchStored, s.SearchTableHits, s.SearchPruned,
		s.SearchDispatchSerial, s.SearchDispatchParallel, s.SearchSpeedupMilli,
		s.ExactSolves, s.ExactConflicts, s.ExactLearned,
		s.IARRuns, s.IARWarmRuns, s.IARArenas,
		s.ServeRequests, s.ServeOK, s.ServeCancelled, s.ServeClientGone, s.ServeErrors,
		s.ServeCacheHits, s.ServeCoalesced, s.ServeRejected, len(s.ServeTenantRejects),
		s.ServeQueueDepth, s.ServeQueueWait.Round(time.Microsecond),
		s.ServeBatches, s.ServeBatchItems)
}
