package eigen

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"tridiag/internal/faultinject"
)

// serverConfig is the suite's base configuration: small and fast, with the
// watchdog effectively disabled unless a test arms it.
func serverConfig() ServerConfig {
	return ServerConfig{
		MaxConcurrent: 2,
		MaxQueue:      8,
		StallWindow:   time.Minute,
		MaxRetries:    2,
		RetryBase:     time.Millisecond,
	}
}

func mustSolve(t *testing.T, s *Server, tri Tridiagonal, o *Options) *ServeResult {
	t.Helper()
	sr, err := s.Solve(context.Background(), tri, o)
	if err != nil {
		t.Fatalf("server solve n=%d: %v", tri.N(), err)
	}
	if sr.Result == nil {
		t.Fatalf("server solve n=%d: nil result without error", tri.N())
	}
	return sr
}

// TestServerBasic serves concurrent clean jobs: all complete on the primary
// tier, results verify, and the counters add up.
func TestServerBasic(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewServer(serverConfig())
	rng := rand.New(rand.NewSource(1))
	tris := make([]Tridiagonal, 8)
	for i := range tris {
		tris[i] = randomTridiag(rng, 60+rng.Intn(60))
	}
	var wg sync.WaitGroup
	for i := range tris {
		wg.Add(1)
		go func(tri Tridiagonal) {
			defer wg.Done()
			sr, err := s.Solve(context.Background(), tri, chaosOptions(false))
			if err != nil {
				t.Errorf("n=%d: %v", tri.N(), err)
				return
			}
			if sr.Disposition != DispositionCompleted || sr.Attempts != 1 {
				t.Errorf("n=%d: disposition=%v attempts=%d, want completed/1", tri.N(), sr.Disposition, sr.Attempts)
			}
			if r := Residual(tri, sr.Result); r > 1e-12 {
				t.Errorf("n=%d: residual %.3e", tri.N(), r)
			}
		}(tris[i])
	}
	wg.Wait()
	st := s.Stats()
	if st.Admitted != 8 || st.Completed != 8 || st.Rejected != 0 {
		t.Errorf("stats %+v, want 8 admitted and completed", st)
	}
	if st.Queued != 0 || st.Running != 0 || st.ReservedBytes != 0 {
		t.Errorf("server not quiescent after jobs: %+v", st)
	}
	if _, err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	checkGoroutines(t, before)
}

// TestServerQueueFull fills the single slot and the single queue seat with
// delay-stalled jobs; the next job must be rejected with ErrOverloaded and
// counted, without being admitted.
func TestServerQueueFull(t *testing.T) {
	defer faultinject.Disable()
	faultinject.Enable(1, faultinject.Probe{Class: "*", Kind: faultinject.KindDelay, P: 1, Delay: 10 * time.Second})
	cfg := serverConfig()
	cfg.MaxConcurrent, cfg.MaxQueue = 1, 1
	s := NewServer(cfg)
	rng := rand.New(rand.NewSource(2))
	tri := randomTridiag(rng, 80)

	var wg sync.WaitGroup
	submit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Solve(context.Background(), tri, chaosOptions(false))
		}()
	}
	// Admit the two jobs one after the other: a job holds its queue
	// position until it takes the worker slot, so two simultaneous
	// submissions would race for the single queue position.
	submit()
	waitFor(t, func() bool { return s.Stats().Running == 1 })
	submit()
	waitFor(t, func() bool {
		st := s.Stats()
		return st.Running == 1 && st.Queued == 1
	})

	if _, err := s.Solve(context.Background(), tri, chaosOptions(false)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third job: err=%v, want ErrOverloaded", err)
	}
	st := s.Stats()
	if st.Rejected != 1 || st.Admitted != 2 {
		t.Errorf("stats %+v, want 1 rejected / 2 admitted", st)
	}

	// Forced drain unblocks the stalled jobs (the delay probes are bounded
	// by the solve context — PR 5's faultinject change).
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rep, err := s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain err=%v, want DeadlineExceeded", err)
	}
	if len(rep.Jobs) != 2 {
		t.Fatalf("drain report has %d jobs, want 2", len(rep.Jobs))
	}
	wg.Wait()
	for _, j := range rep.Jobs {
		if j.Disposition != DispositionCancelled {
			t.Errorf("job %d: disposition %v, want cancelled", j.ID, j.Disposition)
		}
	}
}

// TestServerMemoryBudget rejects a job whose workspace estimate exceeds the
// remaining budget and admits it once the budget fits, tracking the peak.
func TestServerMemoryBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tri := randomTridiag(rng, 96)
	o := chaosOptions(false)
	est := EstimateSolveBytes(tri.N(), o.Workers)
	if est <= 0 {
		t.Fatalf("estimate for n=%d is %d", tri.N(), est)
	}

	cfg := serverConfig()
	cfg.MemoryBudget = est - 1
	s := NewServer(cfg)
	if _, err := s.Solve(context.Background(), tri, o); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("under-budget server: err=%v, want ErrOverloaded", err)
	}

	cfg.MemoryBudget = est
	s2 := NewServer(cfg)
	sr := mustSolve(t, s2, tri, o)
	if sr.Disposition != DispositionCompleted {
		t.Errorf("disposition %v, want completed", sr.Disposition)
	}
	st := s2.Stats()
	if st.PeakReservedBytes != est || st.ReservedBytes != 0 {
		t.Errorf("peak=%d reserved=%d, want peak=%d reserved=0", st.PeakReservedBytes, st.ReservedBytes, est)
	}
}

// TestServerDeadlineReject primes the service-time EWMA and then offers a job
// whose deadline cannot possibly be met: admission must reject it up front
// instead of letting it burn a slot and time out mid-solve.
func TestServerDeadlineReject(t *testing.T) {
	s := NewServer(serverConfig())
	rng := rand.New(rand.NewSource(4))
	tri := randomTridiag(rng, 120)
	mustSolve(t, s, tri, chaosOptions(false)) // primes avgNanos

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := s.Solve(ctx, tri, chaosOptions(false))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err=%v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("rejected=%d, want 1", st.Rejected)
	}
}

// TestServerWatchdogStallDegrades stalls every LAED4 task far beyond the
// stall window: the watchdog must abort each primary attempt within ~2× the
// window, the retries must be counted as stalls, and the job must still be
// served by the injection-free fallback tier.
func TestServerWatchdogStallDegrades(t *testing.T) {
	defer faultinject.Disable()
	faultinject.Enable(5, faultinject.Probe{Class: "LAED4", Kind: faultinject.KindDelay, P: 1, Delay: 10 * time.Second})
	const window = 150 * time.Millisecond
	cfg := serverConfig()
	cfg.StallWindow = window
	cfg.MaxRetries = 1
	s := NewServer(cfg)
	rng := rand.New(rand.NewSource(6))
	tri := randomTridiag(rng, 120)

	start := time.Now()
	sr := mustSolve(t, s, tri, chaosOptions(false))
	elapsed := time.Since(start)

	if sr.Disposition != DispositionDegraded {
		t.Errorf("disposition %v, want degraded", sr.Disposition)
	}
	if sr.Stalls < 1 {
		t.Errorf("stalls=%d, want >=1", sr.Stalls)
	}
	if sr.Attempts != 3 { // primary + 1 retry + fallback
		t.Errorf("attempts=%d, want 3", sr.Attempts)
	}
	if sr.Result.Stats.Tier == "task-flow" {
		t.Errorf("stalled job still credited to the task-flow tier")
	}
	if r := Residual(tri, sr.Result); r > 1e-12 {
		t.Errorf("residual %.3e", r)
	}
	// Acceptance bound: abort-to-retry latency ≤ 2× the stall window per
	// stalled attempt (ticker granularity is window/4), plus backoff and the
	// fast sequential fallback.
	if limit := 2*2*window + time.Second; elapsed > limit {
		t.Errorf("stalled job took %v, want < %v", elapsed, limit)
	}
	if st := s.Stats(); st.WatchdogAborts < 2 {
		t.Errorf("watchdog aborts=%d, want >=2", st.WatchdogAborts)
	}
}

// TestServerBreaker drives a kernel class to persistent failure: the breaker
// must open at the threshold, route subsequent jobs straight to the fallback
// tier (one attempt, no retries), and close again via a half-open probe once
// the fault clears and the cooldown expires.
func TestServerBreaker(t *testing.T) {
	defer faultinject.Disable()
	faultinject.Enable(7, faultinject.Probe{Class: "ComputeDeflation", Kind: faultinject.KindError, P: 1})
	cfg := serverConfig()
	cfg.MaxRetries = -1 // no same-tier retries: each job fails primary once
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 50 * time.Millisecond
	s := NewServer(cfg)
	rng := rand.New(rand.NewSource(8))

	for i := 0; i < 2; i++ {
		sr := mustSolve(t, s, randomTridiag(rng, 100), chaosOptions(false))
		if sr.Disposition != DispositionDegraded || sr.Attempts != 2 {
			t.Fatalf("job %d: disposition=%v attempts=%d, want degraded/2", i, sr.Disposition, sr.Attempts)
		}
	}
	st := s.Stats()
	if st.BreakerOpens != 1 || len(st.OpenBreakers) != 1 || st.OpenBreakers[0] != "ComputeDeflation" {
		t.Fatalf("breaker state %+v, want ComputeDeflation open", st)
	}

	// Open circuit: jobs skip the primary tier entirely.
	sr := mustSolve(t, s, randomTridiag(rng, 100), chaosOptions(false))
	if sr.Disposition != DispositionDegraded || sr.Attempts != 1 {
		t.Fatalf("open-circuit job: disposition=%v attempts=%d, want degraded/1", sr.Disposition, sr.Attempts)
	}

	// Fault clears, cooldown expires: the next job is the half-open probe,
	// succeeds on the primary tier and closes the circuit.
	faultinject.Disable()
	time.Sleep(cfg.BreakerCooldown + 10*time.Millisecond)
	sr = mustSolve(t, s, randomTridiag(rng, 100), chaosOptions(false))
	if sr.Disposition != DispositionCompleted || sr.Result.Stats.Tier != "task-flow" {
		t.Fatalf("probe job: disposition=%v tier=%s, want completed on task-flow", sr.Disposition, sr.Result.Stats.Tier)
	}
	if st := s.Stats(); len(st.OpenBreakers) != 0 {
		t.Errorf("breakers still open after successful probe: %v", st.OpenBreakers)
	}
}

// TestServerRetriedDisposition makes the first attempts fail with a transient
// injected error at low probability: some jobs should complete on a retry and
// be classified retried-then-completed.
func TestServerRetriedDisposition(t *testing.T) {
	defer faultinject.Disable()
	cfg := serverConfig()
	cfg.BreakerThreshold = 1000 // keep the circuit out of this test's way
	s := NewServer(cfg)
	rng := rand.New(rand.NewSource(9))
	retried := 0
	for i := 0; i < 12 && retried == 0; i++ {
		faultinject.Enable(int64(100+i), faultinject.Probe{Class: "*", Kind: faultinject.KindError, P: 0.02})
		sr := mustSolve(t, s, randomTridiag(rng, 90+rng.Intn(60)), chaosOptions(false))
		if sr.Disposition == DispositionRetried {
			retried++
			if sr.Attempts < 2 {
				t.Errorf("retried disposition with attempts=%d", sr.Attempts)
			}
		}
		faultinject.Disable()
	}
	if retried == 0 {
		t.Skip("no transient fault fired on a retryable attempt; nothing to assert")
	}
	if st := s.Stats(); st.Retries < 1 || st.Retried < 1 {
		t.Errorf("stats %+v, want >=1 retries and retried", s.Stats())
	}
}

// TestServerShutdownGraceful drains a busy server with a generous deadline:
// every in-flight job finishes normally and appears in the report.
func TestServerShutdownGraceful(t *testing.T) {
	// Each solve's Scale task stalls for a bounded 300ms, so the first two
	// jobs are still running when the other two queue behind them: the
	// drain snapshot below sees all four in flight, and they still finish.
	defer faultinject.Disable()
	faultinject.Enable(10, faultinject.Probe{Class: "Scale", Kind: faultinject.KindDelay, P: 1, Delay: 300 * time.Millisecond})
	s := NewServer(serverConfig())
	rng := rand.New(rand.NewSource(10))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		tri := randomTridiag(rng, 100+rng.Intn(60))
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr, err := s.Solve(context.Background(), tri, chaosOptions(false))
			if err != nil {
				t.Errorf("drained job failed: %v", err)
			} else if sr.Disposition != DispositionCompleted {
				t.Errorf("drained job disposition %v", sr.Disposition)
			}
		}()
	}
	// Wait until all four jobs are simultaneously in flight (not merely
	// admitted): a fast job that already completed would be gone from the
	// drain snapshot and flake the report-size assertion below.
	waitFor(t, func() bool {
		st := s.Stats()
		return st.Queued+st.Running == 4
	})
	rep, err := s.Shutdown(context.Background())
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if len(rep.Jobs) != 4 {
		t.Fatalf("report has %d jobs, want 4", len(rep.Jobs))
	}
	for _, j := range rep.Jobs {
		if j.Disposition != DispositionCompleted {
			t.Errorf("job %d: %v, want completed", j.ID, j.Disposition)
		}
	}
	if _, err := s.Solve(context.Background(), randomTridiag(rng, 50), nil); !errors.Is(err, ErrServerClosed) {
		t.Errorf("post-shutdown solve err=%v, want ErrServerClosed", err)
	}
	if rep2, err := s.Shutdown(context.Background()); err != nil || len(rep2.Jobs) != 0 {
		t.Errorf("second shutdown: rep=%+v err=%v, want empty/nil", rep2, err)
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
