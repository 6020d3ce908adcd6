package eigen

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tridiag/internal/faultinject"
	"tridiag/internal/pool"
)

// Server is a multi-tenant solve service: many goroutines call Solve
// concurrently against one process-wide pool of workers and workspace.
// It wraps the task-flow solver with the arbitration a long-running service
// needs and a single library solve does not:
//
//   - Admission control: a bounded queue plus an explicit workspace budget.
//     A job whose queue slot, memory reservation, or deadline cannot be
//     honored is rejected immediately with ErrOverloaded instead of degrading
//     every other tenant.
//   - Watchdog: a per-solve goroutine observes task-completion heartbeats
//     (Options.Progress → quark.WithProgress) and aborts a solve that makes
//     no progress within the stall window through the normal context
//     cancellation path.
//   - Retries: transient failures (injected faults, stalls — classified by
//     faultinject.Transient) are retried on the primary tier with exponential
//     backoff and jitter; persistent numerical failures fall through to the
//     PR 2 degradation tiers (sequential DSTEDC → QR with validation).
//   - Circuit breaker: a kernel class that keeps failing stops being retried;
//     new jobs route straight to the fallback tier until a half-open probe
//     succeeds.
//   - Graceful drain: Shutdown stops admission, lets in-flight solves finish
//     (or cancels them at the drain deadline) and reports every job's
//     disposition.
type Server struct {
	cfg ServerConfig

	mu           sync.Mutex
	closed       bool
	queued       int   // admitted, waiting for a worker slot
	running      int   // holding a worker slot
	reserved     int64 // admitted-but-unfinished workspace reservations
	peakReserved int64
	avgNanos     float64 // EWMA of completed full-solve service time
	avgNanosVO   float64 // EWMA of completed values-only service time
	jobs         map[uint64]*serverJob
	idleTimer    *time.Timer // pending idle pool trim, nil when disarmed
	idleGen      uint64      // invalidates stale idle-trim timer firings

	nextID      atomic.Uint64
	slots       chan struct{}
	drainCtx    context.Context
	drainCancel context.CancelFunc

	breakers breakerSet
	counts   [dispositionCount]atomic.Int64
	retries  atomic.Int64
	stalls   atomic.Int64
	admitted atomic.Int64

	leakedBytes  atomic.Int64 // pooled bytes served jobs leaked to the GC
	corrDetected atomic.Int64 // silent-corruption detections across served jobs
	corrHealed   atomic.Int64 // detections healed by recompute, retry or fallback

	b   batcher // full-solve request-coalescing window (enabled by BatchWindow > 0)
	bVO batcher // values-only coalescing window: the two classes never mix in a batch

	voAdmitted     atomic.Int64 // values_only jobs past admission
	voCompleted    atomic.Int64 // values_only jobs served (completed/retried/degraded)
	batchesFlushed atomic.Int64
	coalesced      atomic.Int64
	batchServed    atomic.Int64
	direct         atomic.Int64
	flushTimer     atomic.Int64
	flushSize      atomic.Int64
	flushBytes     atomic.Int64
	batchHist      [batchHistBuckets]atomic.Int64
	batchTaskNanos atomic.Int64
}

// ServerConfig tunes a Server; zero values select the documented defaults.
type ServerConfig struct {
	// MaxConcurrent is the number of solves executing at once
	// (default GOMAXPROCS). Each admitted job beyond it waits in the queue.
	MaxConcurrent int
	// MaxQueue bounds how many admitted jobs may wait for a slot
	// (default 4×MaxConcurrent). Beyond it, Solve returns ErrOverloaded.
	MaxQueue int
	// MemoryBudget caps the summed workspace reservations of admitted jobs,
	// in bytes (estimated per job by EstimateSolveBytes from its n and
	// worker count, and tracked for real by the pool accountant). 0 means
	// unlimited. A job whose reservation would exceed the budget is
	// rejected with ErrOverloaded.
	MemoryBudget int64
	// StallWindow is the watchdog's no-progress abort threshold per attempt
	// (default 10s; negative disables the watchdog). It must cover the
	// longest sequential phase of a solve: only task-flow tiers emit
	// per-task heartbeats.
	StallWindow time.Duration
	// MaxRetries is how many same-tier retries a transient failure earns
	// before the job degrades to the fallback tier (default 2).
	MaxRetries int
	// RetryBase is the first backoff delay; attempt k waits
	// RetryBase·2^(k-1) with ±50% jitter, capped at 16×RetryBase
	// (default 10ms).
	RetryBase time.Duration
	// BreakerThreshold opens a failure class's circuit after this many
	// consecutive failures (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit routes jobs straight to
	// the fallback tier before one half-open probe may try the primary
	// tier again (default 2s).
	BreakerCooldown time.Duration
	// PoolRetainBytes, when positive, sets the scratch pool's retention
	// cap (pool.SetRetainLimit) for the whole process: the ceiling on idle
	// pooled workspace kept warm between solves. 0 leaves the pool's
	// default in place. The pool is process-global, so the last server
	// configured wins.
	PoolRetainBytes int64
	// PoolIdleTrimDelay is how long the server must be completely idle
	// (no queued or running jobs) before it releases ALL idle pooled
	// scratch back to the GC (default 2s; negative disables idle
	// trimming). Busy periods never trigger it: any admission re-arms the
	// timer.
	PoolIdleTrimDelay time.Duration
	// BatchWindow enables request coalescing when positive: eligible small
	// solves (MethodDC, n ≤ BatchMaxN, default tuning options) are held up
	// to this long and flushed as ONE SolveBatch on ONE worker slot, giving
	// the scheduler cross-matrix width that a single small solve cannot.
	// The window adapts to traffic like the solver's PanelSize does: a
	// window that keeps flushing near-empty (one waiter) halves, down to
	// BatchWindow/8, so sparse traffic pays almost no added latency; a
	// window that keeps filling by size doubles back toward BatchWindow.
	// 0 disables coalescing (the default — existing deployments are
	// unchanged). Each held request keeps its own deadline, retry/degrade
	// policy and disposition.
	BatchWindow time.Duration
	// BatchMaxSize flushes the window early when this many requests are
	// waiting (default 64). The queue bound still applies: coalesced
	// requests occupy queue slots while they wait, so the effective batch
	// size is also capped by MaxQueue.
	BatchMaxSize int
	// BatchMaxN is the largest matrix order admitted into the coalescing
	// window (default 256); larger solves have enough width of their own
	// and are served directly.
	BatchMaxN int
	// BatchMaxBytes flushes the window early when the batch-aware
	// workspace estimate (EstimateBatchSolveBytes) of the waiting requests
	// reaches this many bytes (default MemoryBudget/4 when a budget is
	// set, else unbounded).
	BatchMaxBytes int64
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.StallWindow == 0 {
		c.StallWindow = 10 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.PoolIdleTrimDelay == 0 {
		c.PoolIdleTrimDelay = 2 * time.Second
	}
	if c.BatchWindow > 0 {
		if c.BatchMaxSize <= 0 {
			c.BatchMaxSize = 64
		}
		if c.BatchMaxN <= 0 {
			c.BatchMaxN = 256
		}
		if c.BatchMaxBytes == 0 && c.MemoryBudget > 0 {
			c.BatchMaxBytes = c.MemoryBudget / 4
		}
	}
	return c
}

// Sentinel errors of the admission layer. ErrOverloaded is always wrapped
// with the specific reason (queue full, budget exceeded, deadline
// unserviceable); match with errors.Is.
var (
	ErrOverloaded   = errors.New("eigen: server overloaded")
	ErrServerClosed = errors.New("eigen: server closed")
)

// StallError is a watchdog abort: the solve made no task progress within
// the stall window. It is transient — the stall may have been an injected
// delay, a descheduled worker, or scheduler pathology — so the retry policy
// treats it like an injected fault.
type StallError struct {
	Window time.Duration
}

func (e *StallError) Error() string {
	return fmt.Sprintf("eigen: watchdog: no task progress within %v", e.Window)
}

// Transient marks stalls retryable (read by faultinject.Transient).
func (e *StallError) Transient() bool { return true }

// TaskClass attributes stalls to their own breaker class: a stall carries no
// kernel identity, but repeated stalls should trip a circuit all the same.
func (e *StallError) TaskClass() string { return "stall" }

// Disposition classifies how the server finished with a job. Every Solve
// call ends in exactly one disposition, reported in ServeResult and
// aggregated in ServerStats.
type Disposition int

const (
	// DispositionCompleted: served by the primary tier on the first attempt.
	DispositionCompleted Disposition = iota
	// DispositionRetried: served by the primary tier after at least one
	// transient-failure retry.
	DispositionRetried
	// DispositionDegraded: served by a fallback tier (validated result).
	DispositionDegraded
	// DispositionRejected: refused at admission (overload or closed server).
	DispositionRejected
	// DispositionCancelled: the job's context was cancelled, its deadline
	// expired, or the server drain cancelled it.
	DispositionCancelled
	// DispositionFailed: every tier failed persistently.
	DispositionFailed

	dispositionCount = int(DispositionFailed) + 1
)

func (d Disposition) String() string {
	switch d {
	case DispositionCompleted:
		return "completed"
	case DispositionRetried:
		return "retried-then-completed"
	case DispositionDegraded:
		return "degraded"
	case DispositionRejected:
		return "rejected"
	case DispositionCancelled:
		return "cancelled"
	case DispositionFailed:
		return "failed"
	}
	return fmt.Sprintf("Disposition(%d)", int(d))
}

// ServeResult is what the server reports for one job: the decomposition (nil
// when the job did not produce one) plus how it was served. It is non-nil
// even when Solve returns an error, so callers always get a classified
// disposition.
type ServeResult struct {
	*Result
	// Disposition classifies the outcome.
	Disposition Disposition
	// Attempts counts solve attempts (0 for rejected jobs).
	Attempts int
	// Stalls counts watchdog aborts this job suffered.
	Stalls int
	// Err is this job's error when served through Server.SolveBatch (nil
	// on success); single-job Solve reports its error through the return
	// value instead.
	Err error
}

// ServerStats is a snapshot of the service counters.
type ServerStats struct {
	// Admitted counts jobs that passed admission control.
	Admitted int64
	// Per-disposition totals. Completed+Retried+Degraded+Cancelled+Failed
	// equals the number of finished admitted jobs; Rejected counts
	// admission refusals.
	Completed, Retried, Degraded, Rejected, Cancelled, Failed int64
	// Retries is the total number of same-tier retry attempts.
	Retries int64
	// WatchdogAborts counts solves aborted for lack of progress.
	WatchdogAborts int64
	// BreakerOpens counts circuit-breaker open transitions.
	BreakerOpens int64
	// OpenBreakers lists the failure classes currently routed to fallback.
	OpenBreakers []string
	// Queued and Running are the current queue depth and in-flight count.
	Queued, Running int
	// ReservedBytes and PeakReservedBytes track the admission-control
	// workspace reservations (the pool accountant, pool.InUseBytes, tracks
	// actual checked-out bytes).
	ReservedBytes, PeakReservedBytes int64
	// PoolInUseBytes is the scratch currently checked out of the pool;
	// PoolRetainedBytes is the idle scratch kept warm for the next solve
	// (bounded by the retention cap and dropped after idle trimming).
	PoolInUseBytes, PoolRetainedBytes int64
	// BatchesFlushed counts coalescing-window flushes; FlushByTimer,
	// FlushBySize and FlushByBytes break them down by trigger.
	BatchesFlushed                          int64
	FlushByTimer, FlushBySize, FlushByBytes int64
	// CoalescedJobs counts jobs that entered a coalescing batch;
	// BatchServedJobs those served by their batch (the rest fell back to
	// the solo path); DirectJobs counts jobs served without a batch.
	CoalescedJobs, BatchServedJobs, DirectJobs int64
	// BatchSizeHist is a power-of-two histogram of flushed batch sizes:
	// bucket i counts batches of size in (2^(i-1), 2^i] (bucket 0 = size
	// 1, last bucket = everything larger).
	BatchSizeHist []int64
	// BatchTaskNanos totals the task-kernel time executed inside coalesced
	// batches (the per-batch task-time totals, summed over batches).
	BatchTaskNanos int64
	// ValuesOnlyAdmitted and ValuesOnlyCompleted are the values_only request
	// class's share of Admitted and of the served dispositions
	// (completed + retried + degraded). The class has its own admission
	// estimate (EstimateValuesOnlySolveBytes), coalescing window and
	// service-time EWMA, so these counters are what capacity planning needs
	// to see the two classes separately.
	ValuesOnlyAdmitted, ValuesOnlyCompleted int64
	// LeakedBytes totals the pooled workspace served jobs leaked to the GC
	// through failed or cancelled merges (the per-solve
	// SolveStats.LeakedBytes ledgers, summed). Steady growth means retries
	// or corruption heals are abandoning workspace — expected under fault
	// injection, a red flag in production.
	LeakedBytes int64
	// CorruptionsDetected counts silent-corruption detections across all
	// jobs: ABFT checksum mismatches, violated merge invariants, failed
	// result audits, and corruption-classified attempt failures.
	// CorruptionsHealed is how many of them were contained — the job was
	// still served a verified result (task recompute, same-tier retry, or
	// tier fallback). Detected > Healed means corrupted jobs failed outright;
	// detections NEVER ship: a result that failed its audit is not returned.
	CorruptionsDetected, CorruptionsHealed int64
	// AvgServiceNanos and ValuesOnlyAvgServiceNanos are the per-class
	// service-time EWMAs feeding the deadline-aware admission check
	// (0 until a job of that class completes).
	AvgServiceNanos, ValuesOnlyAvgServiceNanos int64
	// BatchWindow is the coalescer's current adaptive flush window
	// (0 when coalescing is disabled).
	BatchWindow time.Duration
}

// JobReport is one job's final disposition in a drain report.
type JobReport struct {
	ID          uint64
	N           int
	Disposition Disposition
}

// DrainReport lists the dispositions of the jobs that were in flight when
// Shutdown was called.
type DrainReport struct {
	Jobs []JobReport
}

type serverJob struct {
	id          uint64
	n           int
	done        chan struct{}
	disposition Disposition // written before close(done)
}

// NewServer starts a solve service. Call Shutdown to drain it.
func NewServer(cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	if cfg.PoolRetainBytes > 0 {
		pool.SetRetainLimit(cfg.PoolRetainBytes)
	}
	drainCtx, drainCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		jobs:        make(map[uint64]*serverJob),
		slots:       make(chan struct{}, cfg.MaxConcurrent),
		drainCtx:    drainCtx,
		drainCancel: drainCancel,
		breakers: breakerSet{
			threshold: cfg.BreakerThreshold,
			cooldown:  cfg.BreakerCooldown,
			m:         make(map[string]*breaker),
		},
	}
	s.b.window.Store(int64(cfg.BatchWindow))
	s.bVO.window.Store(int64(cfg.BatchWindow))
	return s
}

// batcherFor returns the coalescing window of a request class. Values-only
// and full solves never share a batch: one SolveBatch runs with one Options,
// and the two classes differ in workspace shape, runtime and result payload.
func (s *Server) batcherFor(valuesOnly bool) *batcher {
	if valuesOnly {
		return &s.bVO
	}
	return &s.b
}

// batchReq is one job waiting in (or flushed from) the coalescing window.
// The flusher writes exactly one of res/err and then closes done; the
// waiting Solve call reads them only after done.
type batchReq struct {
	t    Tridiagonal
	res  *Result
	err  error
	done chan struct{}
}

// batcher is the request-coalescing window: eligible jobs accumulate in
// pending and are flushed as one SolveBatch when the adaptive window timer
// fires, the size cap is reached, or the batch-aware workspace estimate hits
// the bytes cap.
type batcher struct {
	mu      sync.Mutex
	pending []*batchReq
	bytes   int64        // telescoped batch-aware estimate of pending
	gen     uint64       // invalidates stale timer firings
	timer   *time.Timer  // armed while pending is non-empty, nil otherwise
	window  atomic.Int64 // current adaptive flush window, nanoseconds
}

// takeLocked removes and returns the pending window; the caller holds b.mu.
func (b *batcher) takeLocked() []*batchReq {
	reqs := b.pending
	b.pending = nil
	b.bytes = 0
	b.gen++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return reqs
}

// EstimateSolveBytes is the admission-control estimate of the pooled
// workspace one task-flow solve of order n with the given worker count can
// have checked out at once, in pool size-class bytes (pool.ClassBytes): the
// root merge's secular matrix, compressed operands, staged deflated columns
// and packed GEMM panels, doubled because the concurrently-live lower tree
// levels sum to at most one more root merge, plus per-worker small scratch.
// It deliberately over-reserves — the budget bounds the worst case, and the
// pool accountant reports what solves actually use.
func EstimateSolveBytes(n, workers int) int64 {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return 2*estimateMergeBytes(n) + int64(workers+1)*poolClassBytes(int64(8*n)+1)
}

// poolClassBytes rounds a float64-element count up to its pool size class in
// bytes, falling back to the plain allocation size beyond the largest class.
func poolClassBytes(f int64) int64 {
	if f > int64(int(^uint(0)>>1)) { // overflow guard for huge n
		return f * 8
	}
	if b := pool.ClassBytes(int(f)); b > 0 {
		return b
	}
	return f * 8 // beyond the largest pool class: plain allocation
}

// estimateMergeBytes is the pooled footprint of one order-n root merge:
// S (k×k ≤ n²) + Q2Top/Q2Bot (≤ n²/2 each) + Q2Defl (≤ n²/2: deflated
// vectors stay in their columns, only the at most min(k, n−k) that sit in
// the secular block [0, k) are staged) + packed panels (≈ Q2 again).
// EstimateSolveBytes doubles it for the concurrently-live lower tree levels.
func estimateMergeBytes(n int) int64 {
	nn := int64(n) * int64(n)
	return poolClassBytes(nn) + 5*poolClassBytes(nn/2+1)
}

// EstimateBatchSolveBytes is the admission-control estimate for a coalesced
// batch of task-flow solves of the given orders sharing one runtime. A
// per-job EstimateSolveBytes sum over-reserves a batch severely: the
// per-worker small scratch is pooled across the batch (one set per runtime,
// not per matrix), and with every matrix sharing one worker pool at most
// ~workers matrices can sit at their peak (doubled, lower-levels-live)
// footprint at once — the rest hold at most one live root merge each. The
// estimate is exact for a single matrix (it equals EstimateSolveBytes) and
// never exceeds the sum of the per-job singles; adding a matrix to a batch
// never decreases it, so marginal (telescoped) reservations are safe.
func EstimateBatchSolveBytes(ns []int, workers int) int64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sorted := make([]int, 0, len(ns))
	for _, n := range ns {
		if n > 0 {
			sorted = append(sorted, n)
		}
	}
	if len(sorted) == 0 {
		return 0
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	var total int64
	for i, n := range sorted {
		m := estimateMergeBytes(n)
		if i < workers {
			m *= 2 // concurrently-live lower levels, as in the single estimate
		}
		total += m
	}
	// One set of per-worker O(n) scratch for the shared runtime, sized by
	// the largest matrix.
	total += int64(workers+1) * poolClassBytes(int64(8*sorted[0])+1)
	return total
}

// voLeafCutoff is the default D&C leaf size (core.Options.MinPartition's
// default): values-only leaves solve on a pooled m×m scratch with m bounded
// by it, the only super-linear term of the lane's footprint.
const voLeafCutoff = 48

// estimateValuesOnlyJobBytes is the per-job part of the values-only
// admission estimate, without the shared per-worker scratch: the 2×n carrier
// rows plus O(n) merge slices (g2, weights, secular roots, gathered carrier
// rows, sort scratch) on each of the ~log₂(n/leaf) concurrently-live tree
// levels.
func estimateValuesOnlyJobBytes(n int) int64 {
	if n <= 0 {
		return 0
	}
	depth := bits.Len(uint((n + voLeafCutoff - 1) / voLeafCutoff))
	return poolClassBytes(int64(2*n)) + int64(depth+1)*poolClassBytes(int64(8*n)+1)
}

// EstimateValuesOnlySolveBytes is the admission-control estimate for one
// values-only task-flow solve of order n: O(n·depth) merge state plus
// per-worker leaf and secular scratch, instead of the full solve's O(n²)
// eigenvector workspace. It is monotone in n and never exceeds
// EstimateSolveBytes, so a values_only job always reserves no more than the
// same job with vectors — the property that lets one memory budget admit far
// more values-only concurrency.
func EstimateValuesOnlySolveBytes(n, workers int) int64 {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	leaf := int64(voLeafCutoff * voLeafCutoff)
	if nn := int64(n) * int64(n); nn < leaf {
		leaf = nn
	}
	est := estimateValuesOnlyJobBytes(n) +
		int64(workers+1)*(poolClassBytes(leaf)+poolClassBytes(int64(4*n)+1))
	if full := EstimateSolveBytes(n, workers); est > full {
		return full
	}
	return est
}

// EstimateBatchValuesOnlySolveBytes is the batch-aware analogue for a
// coalesced values-only window: per-job carrier and merge slices summed over
// the members, one set of shared per-worker scratch sized by the largest
// member. Exact for a single member (it equals EstimateValuesOnlySolveBytes)
// and monotone in the member set, so marginal (telescoped) reservations are
// safe.
func EstimateBatchValuesOnlySolveBytes(ns []int, workers int) int64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var total int64
	maxN := 0
	for _, n := range ns {
		if n <= 0 {
			continue
		}
		total += estimateValuesOnlyJobBytes(n)
		if n > maxN {
			maxN = n
		}
	}
	if maxN == 0 {
		return 0
	}
	leaf := int64(voLeafCutoff * voLeafCutoff)
	if nn := int64(maxN) * int64(maxN); nn < leaf {
		leaf = nn
	}
	total += int64(workers+1) * (poolClassBytes(leaf) + poolClassBytes(int64(4*maxN)+1))
	if full := EstimateBatchSolveBytes(ns, workers); total > full {
		return full
	}
	return total
}

// Solve runs one job through the service: admission, queueing, the
// watchdog-guarded attempt/retry loop, and disposition accounting. It blocks
// until the job is served, rejected, or cancelled. The returned ServeResult
// is non-nil even on error and always carries the job's disposition.
//
// opts follows SolveContext semantics except that Fallback and Progress are
// owned by the server (the retry and degradation policy replaces them).
func (s *Server) Solve(ctx context.Context, t Tridiagonal, opts *Options) (*ServeResult, error) {
	sr := &ServeResult{Disposition: DispositionRejected}
	var o Options
	if opts != nil {
		o = *opts
	}
	n := t.N()
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eligible := s.batchEligible(n, &o)
	var est int64
	switch {
	case eligible:
		// A coalesced job shares the batch's workspace: reserve only its
		// marginal contribution to the batch-aware estimate, not a full
		// per-job footprint (which would starve admission ~Nx under floods
		// of small solves).
		est = s.batchMarginalEstimate(n, workers, o.ValuesOnly)
	case o.ValuesOnly:
		// The values-only lane never materializes the n×n eigenvector
		// block: charge its O(n·depth) footprint so one memory budget
		// admits far more values-only concurrency.
		est = EstimateValuesOnlySolveBytes(n, workers)
	default:
		est = EstimateSolveBytes(n, workers)
	}

	// Admission: all-or-nothing under the server lock.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.counts[DispositionRejected].Add(1)
		return sr, ErrServerClosed
	}
	if s.queued >= s.cfg.MaxQueue {
		q := s.queued
		s.mu.Unlock()
		s.counts[DispositionRejected].Add(1)
		return sr, fmt.Errorf("%w: queue full (%d jobs waiting)", ErrOverloaded, q)
	}
	if s.cfg.MemoryBudget > 0 && s.reserved+est > s.cfg.MemoryBudget {
		have := s.cfg.MemoryBudget - s.reserved
		s.mu.Unlock()
		s.counts[DispositionRejected].Add(1)
		return sr, fmt.Errorf("%w: workspace budget exceeded (job n=%d needs %d bytes, %d available)",
			ErrOverloaded, n, est, have)
	}
	if dl, ok := ctx.Deadline(); ok {
		if wait := s.expectedLatencyLocked(o.ValuesOnly); wait > 0 && time.Until(dl) < wait {
			s.mu.Unlock()
			s.counts[DispositionRejected].Add(1)
			return sr, fmt.Errorf("%w: deadline %v away, expected service latency %v",
				ErrOverloaded, time.Until(dl).Round(time.Millisecond), wait.Round(time.Millisecond))
		}
	}
	job := &serverJob{id: s.nextID.Add(1), n: n, done: make(chan struct{})}
	s.queued++
	// The server is no longer idle: a pending idle pool trim must not fire
	// under this job's feet.
	s.idleGen++
	if s.idleTimer != nil {
		s.idleTimer.Stop()
		s.idleTimer = nil
	}
	s.reserved += est
	if s.reserved > s.peakReserved {
		s.peakReserved = s.reserved
	}
	s.jobs[job.id] = job
	s.mu.Unlock()
	s.admitted.Add(1)
	if o.ValuesOnly {
		s.voAdmitted.Add(1)
	}

	start := time.Now()
	ran := false
	defer func() {
		s.mu.Lock()
		s.reserved -= est
		delete(s.jobs, job.id)
		if ran {
			// Per-class EWMA of service time feeds the deadline-aware
			// admission check (values-only jobs are far faster; mixing the
			// classes would reject short-deadline values_only requests on
			// full-solve history).
			d := float64(time.Since(start))
			avg := &s.avgNanos
			if o.ValuesOnly {
				avg = &s.avgNanosVO
			}
			if *avg == 0 {
				*avg = d
			} else {
				*avg = 0.8**avg + 0.2*d
			}
		}
		s.mu.Unlock()
		s.counts[sr.Disposition].Add(1)
		if o.ValuesOnly && sr.Disposition <= DispositionDegraded {
			s.voCompleted.Add(1)
		}
		job.disposition = sr.Disposition
		close(job.done)
	}()

	// Every stochastic delay of this job draws from its own seeded stream:
	// concurrent jobs sharing the process-global RNG would contend on its
	// lock under load, and their backoff schedules would be irreproducible —
	// with the job ID as seed, a replayed job jitters identically.
	rng := rand.New(rand.NewSource(int64(job.id)))
	// jobCorrupt counts this job's corruption-classified attempt failures;
	// they are healed if a later attempt (or the fallback tier) serves.
	var jobCorrupt int64

	// Coalescing: an eligible job joins the batch window and waits for its
	// flush; only members whose batched attempt fails fall through to the
	// solo ladder below (keeping their queue slot, with the batch attempt
	// counted against their retry budget).
	var lastErr error
	if eligible {
		out, oerr := s.awaitBatched(ctx, t, est, sr, o.ValuesOnly)
		switch out {
		case batchServed:
			ran = true
			return sr, nil
		case batchCancelled:
			sr.Disposition = DispositionCancelled
			return sr, oerr
		case batchFailed:
			lastErr = oerr
			if faultinject.Corruption(oerr) {
				s.corrDetected.Add(1)
				jobCorrupt++
			}
		}
	}

	// Queue for a worker slot.
	var slotErr error
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		slotErr = ctx.Err()
	case <-s.drainCtx.Done():
		slotErr = fmt.Errorf("%w: drained while queued", ErrServerClosed)
	}
	s.mu.Lock()
	s.queued--
	if slotErr == nil {
		s.running++
	}
	s.mu.Unlock()
	if slotErr != nil {
		sr.Disposition = DispositionCancelled
		return sr, slotErr
	}
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
		<-s.slots
		s.afterJob()
	}()
	ran = true
	s.direct.Add(1)

	// Primary-tier attempts with transient retries.
	for {
		probe, primary := s.breakers.route()
		if !primary {
			break // every new job routes straight to the fallback tier
		}
		po := o
		po.Fallback = false
		sr.Attempts++
		res, err := s.attempt(ctx, t, &po)
		if err == nil {
			s.breakers.success(probe)
			s.absorb(res)
			s.corrHealed.Add(jobCorrupt)
			sr.Result = res
			if sr.Attempts > 1 {
				sr.Disposition = DispositionRetried
			} else {
				sr.Disposition = DispositionCompleted
			}
			return sr, nil
		}
		lastErr = err
		if ctx.Err() != nil || s.drainCtx.Err() != nil {
			sr.Disposition = DispositionCancelled
			return sr, cancelCause(ctx, s.drainCtx)
		}
		var stall *StallError
		if errors.As(err, &stall) {
			sr.Stalls++
			s.stalls.Add(1)
		}
		if faultinject.Corruption(err) {
			s.corrDetected.Add(1)
			jobCorrupt++
		}
		s.breakers.failure(faultinject.ClassOf(err), probe)
		if !faultinject.Transient(err) || sr.Attempts > s.cfg.MaxRetries {
			break // persistent, or retries exhausted: degrade
		}
		s.retries.Add(1)
		if !s.backoff(ctx, rng, sr.Attempts) {
			sr.Disposition = DispositionCancelled
			return sr, cancelCause(ctx, s.drainCtx)
		}
	}

	// Fallback tier: the PR 2 degradation chain, injected-fault free
	// (sequential tiers bypass the task runtime) and validated.
	fo := o
	fo.Method = fallbackMethod(o.Method)
	fo.Fallback = true
	sr.Attempts++
	res, err := s.attempt(ctx, t, &fo)
	if err == nil {
		s.absorb(res)
		s.corrHealed.Add(jobCorrupt)
		sr.Result = res
		sr.Disposition = DispositionDegraded
		return sr, nil
	}
	if ctx.Err() != nil || s.drainCtx.Err() != nil {
		sr.Disposition = DispositionCancelled
		return sr, cancelCause(ctx, s.drainCtx)
	}
	sr.Disposition = DispositionFailed
	if lastErr != nil && !errors.Is(err, lastErr) {
		err = fmt.Errorf("%w (primary tier: %v)", err, lastErr)
	}
	return sr, fmt.Errorf("eigen: server: job n=%d failed on every tier: %w", n, err)
}

// startWatchdog arms the per-attempt no-progress watchdog: the returned
// heartbeat is plugged into Options.Progress, and the watchdog cancels the
// attempt (setting stalled) when no heartbeat lands within the stall window.
// stop must be called when the attempt returns; a nil heartbeat means the
// watchdog is disabled.
func (s *Server) startWatchdog(actx context.Context, cancel context.CancelFunc) (heartbeat, stop func(), stalled *atomic.Bool) {
	window := s.cfg.StallWindow
	stalled = new(atomic.Bool)
	if window <= 0 {
		return nil, func() {}, stalled
	}
	var last atomic.Int64
	last.Store(time.Now().UnixNano())
	wdDone := make(chan struct{})
	go func() {
		tick := window / 4
		if tick < time.Millisecond {
			tick = time.Millisecond
		}
		tk := time.NewTicker(tick)
		defer tk.Stop()
		for {
			select {
			case <-wdDone:
				return
			case <-actx.Done():
				return
			case <-tk.C:
				if time.Duration(time.Now().UnixNano()-last.Load()) > window {
					stalled.Store(true)
					cancel()
					return
				}
			}
		}
	}()
	return func() { last.Store(time.Now().UnixNano()) },
		func() { close(wdDone) },
		stalled
}

// attempt runs one watchdog-guarded SolveContext. A solve that emits no
// progress heartbeat within the stall window is cancelled and the error
// rewritten to *StallError (unless the caller's context was the cause).
func (s *Server) attempt(ctx context.Context, t Tridiagonal, o *Options) (*Result, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	stopDrain := context.AfterFunc(s.drainCtx, cancel)
	defer stopDrain()

	heartbeat, stop, stalled := s.startWatchdog(actx, cancel)
	defer stop()
	if heartbeat != nil {
		ao := *o
		ao.Progress = heartbeat
		o = &ao
	}
	res, err := SolveContext(actx, t, o)
	if stalled.Load() && ctx.Err() == nil && s.drainCtx.Err() == nil {
		// The watchdog declared a stall and cancelled the attempt. The solve
		// may still have raced to a clean finish (cancellation unblocks
		// injected delays, and quark only aborts between tasks), but the
		// attempt exceeded its no-progress window either way: report the
		// stall so the retry policy — and the abort-to-retry latency bound —
		// stays deterministic instead of depending on who wins that race.
		return nil, &StallError{Window: s.cfg.StallWindow}
	}
	return res, err
}

// batchOutcome is how a coalesced job left the batch window.
type batchOutcome int

const (
	// batchServed: the batched attempt produced this member's result.
	batchServed batchOutcome = iota
	// batchCancelled: the member's context, deadline, or the drain fired.
	batchCancelled
	// batchFailed: the batched attempt failed for this member; the job
	// continues on the solo retry/degrade ladder.
	batchFailed
)

// batchEligible reports whether a job may be served through the coalescing
// window: small MethodDC solves with default tuning. A batch runs with one
// shared adaptive configuration, so jobs pinning their own panel size, leaf
// cutoff, workspace mode or worker count are served directly. Values-only
// jobs are eligible too — they coalesce in their own window (batcherFor), so
// a flushed batch is always single-class.
func (s *Server) batchEligible(n int, o *Options) bool {
	return s.cfg.BatchWindow > 0 && o.Method == MethodDC &&
		n > 0 && n <= s.cfg.BatchMaxN &&
		o.PanelSize <= 0 && o.MinPartition <= 0 && !o.ExtraWorkspace && o.Workers <= 0
}

// batchMarginalEstimate is the admission reservation for a job joining its
// class's coalescing window: the increase of the class's batch-aware
// workspace estimate over the currently-pending window. Both batch estimates
// are monotone in their member set, so the marginal is always positive, and
// the telescoped sum of the members' reservations equals the batch estimate
// instead of N full per-job estimates.
func (s *Server) batchMarginalEstimate(n, workers int, valuesOnly bool) int64 {
	b := s.batcherFor(valuesOnly)
	b.mu.Lock()
	ns := make([]int, len(b.pending), len(b.pending)+1)
	for i, r := range b.pending {
		ns[i] = r.t.N()
	}
	b.mu.Unlock()
	estimate := EstimateBatchSolveBytes
	if valuesOnly {
		estimate = EstimateBatchValuesOnlySolveBytes
	}
	return estimate(append(ns, n), workers) - estimate(ns, workers)
}

// awaitBatched enqueues an admitted job into the coalescing window, flushes
// the window if this job tripped the size or bytes cap, and waits for the
// member's outcome. The job keeps its queue slot throughout; it is released
// here for outcomes that end the job (served, cancelled) and kept for
// batchFailed, whose caller proceeds to the solo slot wait.
func (s *Server) awaitBatched(ctx context.Context, t Tridiagonal, est int64, sr *ServeResult, valuesOnly bool) (batchOutcome, error) {
	req := &batchReq{t: t, done: make(chan struct{})}
	b := s.batcherFor(valuesOnly)
	b.mu.Lock()
	b.pending = append(b.pending, req)
	b.bytes += est
	var flush []*batchReq
	reason := ""
	switch {
	case len(b.pending) >= s.cfg.BatchMaxSize:
		flush, reason = b.takeLocked(), "size"
	case s.cfg.BatchMaxBytes > 0 && b.bytes >= s.cfg.BatchMaxBytes:
		flush, reason = b.takeLocked(), "bytes"
	case len(b.pending) == 1:
		b.gen++
		gen := b.gen
		w := time.Duration(b.window.Load())
		b.timer = time.AfterFunc(w, func() { s.timerFlush(gen, valuesOnly) })
	}
	b.mu.Unlock()
	s.coalesced.Add(1)
	if flush != nil {
		go s.runBatch(flush, reason, valuesOnly)
	}

	select {
	case <-req.done:
	case <-ctx.Done():
		// The member abandons; if its matrix is already mid-flush the
		// flusher's write lands on a req nobody reads. Its queue slot and
		// reservation are released now (the finalize deferred in Solve).
		s.unqueue()
		return batchCancelled, ctx.Err()
	case <-s.drainCtx.Done():
		s.unqueue()
		return batchCancelled, fmt.Errorf("%w: drained while queued", ErrServerClosed)
	}
	sr.Attempts++
	if req.err == nil {
		s.unqueue()
		s.batchServed.Add(1)
		s.breakers.success("")
		s.absorb(req.res)
		sr.Result = req.res
		sr.Disposition = DispositionCompleted
		return batchServed, nil
	}
	if ctx.Err() != nil || s.drainCtx.Err() != nil {
		s.unqueue()
		return batchCancelled, cancelCause(ctx, s.drainCtx)
	}
	var stall *StallError
	if errors.As(req.err, &stall) {
		sr.Stalls++
	}
	s.breakers.failure(faultinject.ClassOf(req.err), "")
	return batchFailed, req.err
}

// unqueue releases a coalesced job's queue slot.
func (s *Server) unqueue() {
	s.mu.Lock()
	s.queued--
	s.mu.Unlock()
}

// timerFlush fires from the window timer: if no size/bytes flush got there
// first (the generation still matches), the pending window runs as a batch
// on this (timer) goroutine.
func (s *Server) timerFlush(gen uint64, valuesOnly bool) {
	b := s.batcherFor(valuesOnly)
	b.mu.Lock()
	if gen != b.gen || len(b.pending) == 0 {
		b.mu.Unlock()
		return
	}
	flush := b.takeLocked()
	b.mu.Unlock()
	s.runBatch(flush, "timer", valuesOnly)
}

// runBatch executes one flushed window as a single SolveBatch on ONE worker
// slot (the members keep their queue slots while it runs) and delivers each
// member's result or error.
func (s *Server) runBatch(reqs []*batchReq, reason string, valuesOnly bool) {
	s.batchesFlushed.Add(1)
	switch reason {
	case "timer":
		s.flushTimer.Add(1)
	case "size":
		s.flushSize.Add(1)
	case "bytes":
		s.flushBytes.Add(1)
	}
	s.batchHist[batchHistBucket(len(reqs))].Add(1)
	s.adaptWindow(reason, len(reqs), valuesOnly)

	deliverAll := func(err error) {
		for _, r := range reqs {
			r.err = err
			close(r.done)
		}
	}
	select {
	case s.slots <- struct{}{}:
	case <-s.drainCtx.Done():
		deliverAll(fmt.Errorf("%w: drained while queued", ErrServerClosed))
		return
	}
	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
		<-s.slots
		s.afterJob()
	}()

	results, err := s.attemptBatch(reqs, valuesOnly)
	if results == nil {
		// Batch-level abort: a watchdog stall or the drain — every member
		// gets the same classified error and decides its own next step
		// (retry solo, degrade, or report cancellation).
		var stall *StallError
		if errors.As(err, &stall) {
			s.stalls.Add(1)
		}
		deliverAll(err)
		return
	}
	var be *BatchError
	errors.As(err, &be)
	counted := false
	for i, r := range reqs {
		switch {
		case results[i] != nil:
			r.res = results[i]
			if !counted {
				counted = true
				if st := results[i].Stats; st != nil {
					s.batchTaskNanos.Add(st.BatchTaskNanos)
				}
			}
		case be != nil && be.Errs[i] != nil:
			r.err = be.Errs[i]
		default:
			r.err = err
		}
		close(r.done)
	}
	if counted {
		s.breakers.success("")
	}
}

// attemptBatch runs one watchdog-guarded SolveBatch over a flushed window,
// mirroring attempt: no task progress within the stall window cancels the
// whole batch and rewrites the outcome to *StallError. The batch is bounded
// by the drain, not by any single member's context — each member enforces
// its own deadline while waiting.
func (s *Server) attemptBatch(reqs []*batchReq, valuesOnly bool) ([]*Result, error) {
	actx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stopDrain := context.AfterFunc(s.drainCtx, cancel)
	defer stopDrain()

	heartbeat, stop, stalled := s.startWatchdog(actx, cancel)
	defer stop()
	o := Options{Method: MethodDC, ValuesOnly: valuesOnly, Progress: heartbeat}
	tris := make([]Tridiagonal, len(reqs))
	for i, r := range reqs {
		tris[i] = r.t
	}
	results, err := SolveBatch(actx, tris, &o)
	if results == nil && stalled.Load() && s.drainCtx.Err() == nil {
		return nil, &StallError{Window: s.cfg.StallWindow}
	}
	return results, err
}

// adaptWindow tunes the flush window the way PanelSize adapts per merge:
// timer flushes that caught at most one waiter mean traffic is too sparse
// for the current window — halve it (down to BatchWindow/8) so lone requests
// stop paying coalescing latency for nothing; size- or bytes-capped flushes
// mean the window over-fills — double it back toward the configured ceiling
// so the timer, not the cap, paces the batches.
func (s *Server) adaptWindow(reason string, size int, valuesOnly bool) {
	b := s.batcherFor(valuesOnly)
	cur := b.window.Load()
	ceil := int64(s.cfg.BatchWindow)
	switch {
	case reason == "timer" && size <= 1:
		if nw := cur / 2; nw >= ceil/8 {
			b.window.Store(nw)
		}
	case reason == "size" || reason == "bytes":
		if nw := cur * 2; nw <= ceil {
			b.window.Store(nw)
		} else if cur < ceil {
			b.window.Store(ceil)
		}
	}
}

// batchHistBuckets sizes the flushed-batch-size histogram: bucket i counts
// batches of size in (2^(i-1), 2^i] (bucket 0 = singletons, the last bucket
// open-ended).
const batchHistBuckets = 8

func batchHistBucket(size int) int {
	b := 0
	for s := 1; s < size && b < batchHistBuckets-1; s <<= 1 {
		b++
	}
	return b
}

// SolveBatch serves many matrices through the service in one call: each
// member is admitted, accounted and classified exactly like a Solve job
// (deadline via ctx, watchdog, retries, degradation, its own disposition),
// and eligible members coalesce into shared batch flushes — a full window
// arriving at once flushes immediately on the size cap, as one SolveBatch.
// The result slice is indexed like ts; every entry is non-nil and carries
// its member's disposition, with Err set for members that failed.
func (s *Server) SolveBatch(ctx context.Context, ts []Tridiagonal, opts *Options) []*ServeResult {
	out := make([]*ServeResult, len(ts))
	var wg sync.WaitGroup
	for i := range ts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sr, err := s.Solve(ctx, ts[i], opts)
			sr.Err = err
			out[i] = sr
		}(i)
	}
	wg.Wait()
	return out
}

// absorb folds one served result's per-solve ledgers (leaked workspace,
// corruption detections and heals) into the service counters.
func (s *Server) absorb(res *Result) {
	if res == nil || res.Stats == nil {
		return
	}
	s.leakedBytes.Add(res.Stats.LeakedBytes)
	s.corrDetected.Add(res.Stats.CorruptionsDetected)
	s.corrHealed.Add(res.Stats.CorruptionsHealed)
}

// backoff sleeps the exponential-with-jitter retry delay for the given
// attempt number, drawing the jitter from the job's own seeded stream; false
// means the job's context (or the drain) fired first.
func (s *Server) backoff(ctx context.Context, rng *rand.Rand, attempt int) bool {
	d := s.cfg.RetryBase << uint(min(attempt-1, 4)) // cap at 16×base
	d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-ctx.Done():
		return false
	case <-s.drainCtx.Done():
		return false
	}
}

// expectedLatencyLocked estimates a new job's time-to-completion from its
// class's service-time EWMA and the current occupancy; 0 when there is no
// history. A values-only job with no class history falls back to the full
// EWMA — conservative, since the lane is strictly cheaper.
func (s *Server) expectedLatencyLocked(valuesOnly bool) time.Duration {
	avg := s.avgNanos
	if valuesOnly && s.avgNanosVO != 0 {
		avg = s.avgNanosVO
	}
	if avg == 0 {
		return 0
	}
	waves := 1 + (s.queued+s.running)/s.cfg.MaxConcurrent
	return time.Duration(avg * float64(waves))
}

// fallbackMethod maps a job's method to its degradation route: the most
// capable injected-fault-free tier chain below it.
func fallbackMethod(m Method) Method {
	switch m {
	case MethodDC, MethodDCSequential:
		return MethodDCSequential // dstedc → qr chain under Fallback
	default:
		return MethodQR
	}
}

// cancelCause picks the context error a cancelled job reports: the job's own
// context if it fired, else the server drain.
func cancelCause(ctx, drain context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return fmt.Errorf("%w: drained mid-solve", ErrServerClosed)
}

// afterJob runs once per finished job, after its worker slot is released:
// it enforces the pool's retention cap (covering the sequential and
// fork-join tiers, which have no task-runtime shutdown of their own) and,
// when the server just went idle, arms the idle trim that drops all pooled
// scratch after PoolIdleTrimDelay of quiet.
func (s *Server) afterJob() {
	pool.TrimToCap()
	d := s.cfg.PoolIdleTrimDelay
	if d < 0 {
		return
	}
	s.mu.Lock()
	if s.queued == 0 && s.running == 0 {
		s.idleGen++
		gen := s.idleGen
		if s.idleTimer != nil {
			s.idleTimer.Stop()
		}
		s.idleTimer = time.AfterFunc(d, func() { s.idleTrim(gen) })
	}
	s.mu.Unlock()
}

// idleTrim fires from the idle timer: if no job arrived since it was armed
// (the generation still matches and the server is still quiet), every idle
// pooled buffer is released so a quiet process holds no solver memory.
func (s *Server) idleTrim(gen uint64) {
	s.mu.Lock()
	stale := gen != s.idleGen || s.queued != 0 || s.running != 0
	if !stale {
		s.idleTimer = nil
	}
	s.mu.Unlock()
	if stale {
		return
	}
	pool.TrimAll()
}

// Draining reports whether Shutdown has been called: the readiness signal
// that tells load balancers and cluster coordinators to stop routing work
// here while in-flight jobs finish.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// QueueFull reports whether a new job would be rejected right now for queue
// depth — the readiness probe's backpressure signal.
func (s *Server) QueueFull() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued >= s.cfg.MaxQueue
}

// Stats returns a snapshot of the service counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Admitted:       s.admitted.Load(),
		Completed:      s.counts[DispositionCompleted].Load(),
		Retried:        s.counts[DispositionRetried].Load(),
		Degraded:       s.counts[DispositionDegraded].Load(),
		Rejected:       s.counts[DispositionRejected].Load(),
		Cancelled:      s.counts[DispositionCancelled].Load(),
		Failed:         s.counts[DispositionFailed].Load(),
		Retries:        s.retries.Load(),
		WatchdogAborts: s.stalls.Load(),
	}
	st.PoolInUseBytes = pool.InUseBytes()
	st.PoolRetainedBytes = pool.RetainedBytes()
	st.BreakerOpens, st.OpenBreakers = s.breakers.snapshot()
	st.BatchesFlushed = s.batchesFlushed.Load()
	st.FlushByTimer = s.flushTimer.Load()
	st.FlushBySize = s.flushSize.Load()
	st.FlushByBytes = s.flushBytes.Load()
	st.CoalescedJobs = s.coalesced.Load()
	st.BatchServedJobs = s.batchServed.Load()
	st.DirectJobs = s.direct.Load()
	st.BatchTaskNanos = s.batchTaskNanos.Load()
	st.ValuesOnlyAdmitted = s.voAdmitted.Load()
	st.ValuesOnlyCompleted = s.voCompleted.Load()
	st.LeakedBytes = s.leakedBytes.Load()
	st.CorruptionsDetected = s.corrDetected.Load()
	st.CorruptionsHealed = s.corrHealed.Load()
	if s.cfg.BatchWindow > 0 {
		st.BatchWindow = time.Duration(s.b.window.Load())
		st.BatchSizeHist = make([]int64, batchHistBuckets)
		for i := range st.BatchSizeHist {
			st.BatchSizeHist[i] = s.batchHist[i].Load()
		}
	}
	s.mu.Lock()
	st.Queued, st.Running = s.queued, s.running
	st.ReservedBytes, st.PeakReservedBytes = s.reserved, s.peakReserved
	st.AvgServiceNanos = int64(s.avgNanos)
	st.ValuesOnlyAvgServiceNanos = int64(s.avgNanosVO)
	s.mu.Unlock()
	return st
}

// Shutdown drains the server: admission stops immediately (new jobs get
// ErrServerClosed), in-flight and queued jobs run to completion, and jobs
// still unfinished when ctx fires are cancelled. It returns every affected
// job's disposition, and ctx.Err() when the drain deadline forced
// cancellations. Shutdown is idempotent; later calls return an empty report.
func (s *Server) Shutdown(ctx context.Context) (*DrainReport, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return &DrainReport{}, nil
	}
	s.closed = true
	inflight := make([]*serverJob, 0, len(s.jobs))
	for _, j := range s.jobs {
		inflight = append(inflight, j)
	}
	s.mu.Unlock()
	sort.Slice(inflight, func(i, j int) bool { return inflight[i].id < inflight[j].id })

	done := make(chan struct{})
	go func() {
		for _, j := range inflight {
			<-j.done
		}
		close(done)
	}()
	var ctxErr error
	select {
	case <-done:
	case <-ctx.Done():
		ctxErr = ctx.Err()
		s.drainCancel()
		// Cancellation aborts each solve within one task granularity (and
		// unblocks queued jobs immediately), so this second wait is short.
		<-done
	}
	s.drainCancel()
	// A drained server runs nothing again: release the warm scratch too.
	s.mu.Lock()
	if s.idleTimer != nil {
		s.idleTimer.Stop()
		s.idleTimer = nil
	}
	s.idleGen++
	s.mu.Unlock()
	pool.TrimAll()

	rep := &DrainReport{Jobs: make([]JobReport, 0, len(inflight))}
	for _, j := range inflight {
		rep.Jobs = append(rep.Jobs, JobReport{ID: j.id, N: j.n, Disposition: j.disposition})
	}
	return rep, ctxErr
}

// breaker tracks one failure class. States: closed (fails < threshold),
// open (fails ≥ threshold, cooling down), half-open (cooldown expired, one
// probe in flight).
type breaker struct {
	fails     int
	openUntil time.Time
	probing   bool
}

type breakerSet struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	m         map[string]*breaker
	opens     int64
}

// route decides the tier for a new job: primary when every breaker is
// closed, or when an open breaker's cooldown has expired and this job wins
// its half-open probe (probe = the class being probed). Otherwise the job
// goes straight to the fallback tier.
func (bs *breakerSet) route() (probe string, primary bool) {
	now := time.Now()
	bs.mu.Lock()
	defer bs.mu.Unlock()
	open := false
	for class, b := range bs.m {
		if b.fails < bs.threshold {
			continue
		}
		open = true
		if !b.probing && !now.Before(b.openUntil) {
			b.probing = true
			return class, true
		}
	}
	return "", !open
}

// success closes the probed breaker (if any) and resets the consecutive-
// failure counters of every still-closed class.
func (bs *breakerSet) success(probe string) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if probe != "" {
		delete(bs.m, probe)
	}
	for class, b := range bs.m {
		if b.fails < bs.threshold {
			delete(bs.m, class)
		}
	}
}

// failure records a classified failure ("" → "unclassified"): the class's
// consecutive-failure count grows and opens the circuit at the threshold. A
// failed half-open probe re-opens its breaker for another cooldown.
func (bs *breakerSet) failure(class, probe string) {
	now := time.Now()
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if probe != "" {
		if b := bs.m[probe]; b != nil {
			b.probing = false
			b.openUntil = now.Add(bs.cooldown)
		}
	}
	if class == "" {
		class = "unclassified"
	}
	b := bs.m[class]
	if b == nil {
		b = &breaker{}
		bs.m[class] = b
	}
	b.fails++
	if b.fails == bs.threshold {
		b.openUntil = now.Add(bs.cooldown)
		bs.opens++
	}
}

func (bs *breakerSet) snapshot() (opens int64, open []string) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	for class, b := range bs.m {
		if b.fails >= bs.threshold {
			open = append(open, class)
		}
	}
	sort.Strings(open)
	return bs.opens, open
}
