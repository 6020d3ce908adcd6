package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"tridiag/eigen"
	"tridiag/eigen/cluster"
	"tridiag/internal/blas"
	"tridiag/internal/lapack"
	"tridiag/internal/pool"
)

// leafCutoff is the default MinPartition of core.Options: the largest leaf
// of the D&C tree.
const leafCutoff = 48

// coreTaskClasses are the core task classes reported per op.
var coreTaskClasses = []string{
	"STEDC", "UpdateVect", "LAED4", "ComputeVect", "ComputeLocalW", "PackV",
	"PermuteV", "CopyBackDeflated", "ComputeDeflation", "SortEigenvectors",
}

// runLadder passes every request through the ladder, at least once and for
// as long as the budget lasts.
func (r *run) runLadder(st *stack, reqs []request, budget time.Duration) {
	l := &ladder{st: st, chk: r.chk, tr: r.tr, q: map[int][]float64{}}
	start := time.Now()
	id := int64(1 << 40)
	for rep := 0; rep == 0 || time.Since(start) < budget; rep++ {
		for _, q := range reqs {
			rg, err := l.run(q.in, q.values, id)
			id++
			r.attempted++
			if err != nil {
				r.failed++
				r.noteErr(err)
				continue
			}
			r.rungs = append(r.rungs, rg)
		}
	}
}

// serverWatch holds the server and coordinator counters over a load phase,
// and the server's queue depth sampled during it.
type serverWatch struct {
	s0, s1 eigen.ServerStats
	c0, c1 cluster.Stats
	depth  []float64
}

// watchServer starts sampling st's queue depth; the returned func stops the
// sampler, waits for it and fills in the closing counters.
func watchServer(st *stack) (*serverWatch, func()) {
	w := &serverWatch{s0: st.server.Stats(), c0: st.coord.Stats()}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				w.depth = append(w.depth, float64(st.server.Stats().Queued))
			}
		}
	}()
	return w, func() {
		close(stop)
		<-done
		w.s1, w.c1 = st.server.Stats(), st.coord.Stats()
	}
}

// measureKernels times the lapack leaf solver on the inputs' leaf-sized
// diagonal blocks and a square 256 blas.Dgemm as the kernel ceiling.
func (r *run) measureKernels(reqs []request) {
	var leafTime time.Duration
	leaves := 0
	for _, q := range reqs {
		in := q.in
		n := in.n()
		off := 0
		for _, sz := range lapack.PartitionSizes(n, leafCutoff) {
			d := append([]float64(nil), in.tri.D[off:off+sz]...)
			e := append([]float64(nil), in.tri.E[off:min(off+sz-1, n-1)]...)
			z := make([]float64, sz*sz)
			t0 := time.Now()
			if err := lapack.Dsteqr(lapack.CompIdentity, sz, d, e, z, sz); err != nil {
				r.noteErr(err)
			}
			leafTime += time.Since(t0)
			leaves++
			off += sz
		}
	}
	if leaves > 0 {
		r.layer["lapack.dsteqr_us_per_leaf"] = float64(leafTime) / 1e3 / float64(leaves)
	}

	const m = 256
	rng := rand.New(rand.NewSource(1))
	a, b, c := make([]float64, m*m), make([]float64, m*m), make([]float64, m*m)
	for i := range a {
		a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	var ts []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		blas.Dgemm(false, false, m, m, m, 1, a, m, b, m, 0, c, m)
		ts = append(ts, time.Since(t0).Seconds())
	}
	r.layer["blas.dgemm_gflops"] = 2 * m * m * m / median(ts) / 1e9
}

// ladderMetrics derives the per-layer numbers from the ladder passes. The
// unsuffixed step differences and the core, quark, ABFT and blas numbers
// come from the full class; the cluster numbers are given per class.
func (r *run) ladderMetrics() {
	var full, vals []rung
	for _, rg := range r.rungs {
		if rg.valuesOnly {
			vals = append(vals, rg)
		} else {
			full = append(full, rg)
		}
	}
	L := r.layer
	fm := ladderMedians(full)
	fd := layerDeltas(fm)
	L["core.solve_ms"] = fm[stepCore]
	L["abft.overhead_ms"] = fd[stepCore]
	L["eigen.wrapper_ms"] = fd[stepEigenBare]
	L["eigen.audit_ms"] = fd[stepEigen]
	L["server.overhead_ms"] = fd[stepServer]
	for class, rs := range map[string][]rung{"full": full, "values": vals} {
		d := layerDeltas(ladderMedians(rs))
		L["cluster.worker_http_ms."+class] = d[stepWorker]
		L["cluster.coord_ms."+class] = d[stepCoord]
		var kb []float64
		for _, rg := range rs {
			kb = append(kb, float64(rg.wire[1].respBytes)/1024)
		}
		L["cluster.resp_kb."+class] = mean(kb)
	}

	nf := float64(max(len(full), 1))
	var taskNanos, wallCapacity, tasks, checks, detections, merges float64
	var mergeN, mergeDefl, gemmFlops, hits, misses float64
	perClass := map[string]float64{}
	for _, rg := range full {
		st := rg.stats
		workers := float64(runtime.GOMAXPROCS(0))
		wallCapacity += workers * float64(rg.steps[stepCore])
		for c, t := range st.TaskTimes() {
			taskNanos += float64(t)
			perClass[c] += float64(t)
		}
		for _, c := range coreTaskNames {
			tasks += float64(st.Tasks[c])
		}
		a := st.ABFT()
		checks += float64(a.Checksums + a.Invariants)
		detections += float64(a.ChecksumFailures + a.InvariantFailures)
		merges += float64(len(st.Merges))
		for _, m := range st.Merges {
			mergeN += float64(m.N)
			mergeDefl += float64(m.N - m.K)
		}
		for _, f := range st.OpsPerLevel() {
			gemmFlops += float64(f)
		}
		h, mi, _, _ := st.PackReuse()
		hits += float64(h)
		misses += float64(mi)
	}
	for _, c := range coreTaskClasses {
		L["core.task_ms."+c] = perClass[c] / 1e6 / nf
	}
	L["core.deflated_frac"] = ratio(mergeDefl, mergeN)
	L["core.merges"] = merges / nf
	L["quark.tasks"] = tasks / nf
	L["quark.busy_frac"] = ratio(taskNanos, wallCapacity)
	L["quark.idle_ms"] = (wallCapacity - taskNanos) / 1e6 / nf
	L["abft.checks"] = checks / nf
	L["abft.detections"] = detections
	L["blas.updatevect_gflops"] = ratio(gemmFlops, perClass["UpdateVect"])
	L["blas.pack_reuse"] = ratio(hits, hits+misses)
	L["lapack.leaf_share"] = ratio(perClass["STEDC"], taskNanos)
}

// coreTaskNames are the task classes whose executions core.Stats counts.
var coreTaskNames = []string{
	"Scale", "STEDC", "SortEigenvectors", "ComputeDeflation", "Redistribute",
	"PermuteV", "LAED4", "ComputeLocalW", "ReduceW", "CopyBackDeflated",
	"ComputeVect", "PackV", "UpdateVect", "Dlamrg", "UpdateZ", "SortEigenvalues",
}

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// serverMetrics fills the server, cluster-counter and pool numbers.
func (r *run) serverMetrics(w *serverWatch) {
	L := r.layer
	s0, s1 := w.s0, w.s1
	L["server.queue_depth_mean"] = mean(w.depth)
	L["server.coalesced_frac"] = ratio(float64(s1.CoalescedJobs-s0.CoalescedJobs), float64(s1.Admitted-s0.Admitted))
	L["server.batch_size_mean"] = ratio(float64(s1.BatchServedJobs-s0.BatchServedJobs), float64(s1.BatchesFlushed-s0.BatchesFlushed))
	L["server.retries"] = float64(s1.Retries - s0.Retries)
	L["server.rejected"] = float64(s1.Rejected - s0.Rejected)
	L["server.degraded"] = float64(s1.Degraded - s0.Degraded)
	L["server.failed"] = float64(s1.Failed - s0.Failed)
	c0, c1 := w.c0, w.c1
	L["cluster.failovers"] = float64(c1.FailedOver - c0.FailedOver)
	L["cluster.local_solves"] = float64(c1.LocalSolves - c0.LocalSolves)
	L["cluster.checksum_mismatches"] = float64(c1.ChecksumMismatches - c0.ChecksumMismatches)
}

// loadMetrics fills the pool numbers and the tracing overhead of a traced
// load phase that started at pool counters p0 and ran ops, of which traced
// tells the ones that recorded spans.
func (r *run) loadMetrics(p0 pool.CounterSnapshot, ops []sample, traced func(i int) bool) {
	L := r.layer
	p1 := pool.Counters()
	gets := float64(p1.Gets - p0.Gets)
	n := float64(max(len(ops), 1))
	L["pool.gets_per_op"] = gets / n
	L["pool.home_hit_frac"] = ratio(float64(p1.Hits-p0.Hits), gets)
	L["pool.steal_frac"] = ratio(float64(p1.Steals-p0.Steals), gets)
	L["pool.dropped_per_op"] = float64(p1.DroppedCap-p0.DroppedCap) / n
	L["pool.peak_inuse_mb"] = float64(r.peakInUse.Load()) / (1 << 20)
	L["pool.retained_mb"] = float64(p1.RetainedBytes) / (1 << 20)
	L["trace.overhead_pct"] = tracedOverhead(ops, traced)
	r.loopOps = len(ops)
}
