// Package core implements the paper's contribution: a symmetric tridiagonal
// divide & conquer eigensolver expressed as a sequential task flow and
// executed out of order by the quark runtime.
//
// Each merge of the D&C tree is decomposed into the paper's task kinds
// (Algorithm 1): Compute deflation, PermuteV, LAED4, ComputeLocalW, ReduceW,
// CopyBackDeflated, ComputeVect and UpdateVect, panelized over nb eigenvector
// columns. Tasks touching a panel carry one panel handle plus one Gatherv
// access on a merge-wide handle, so every task has a constant number of
// declared dependencies; the join tasks (Compute deflation, ReduceW, Dlamrg)
// take a single InOut on the merge-wide handle. The DAG is matrix
// independent: all panel tasks are submitted regardless of how much deflation
// occurs, and tasks that end up without work return immediately.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"tridiag/internal/blas"
	"tridiag/internal/faultinject"
	"tridiag/internal/lapack"
	"tridiag/internal/pool"
	"tridiag/internal/quark"
)

// Mode selects the execution model, used for the paper's baselines.
type Mode int

const (
	// ModeTaskFlow is the full task-flow algorithm (the paper's solver):
	// independent subproblems, panelized merges, no level barriers.
	ModeTaskFlow Mode = iota
	// ModeLevelSync keeps the panelized merge tasks but synchronizes
	// between tree levels (barriers only).
	ModeLevelSync
	// ModeScaLAPACK is the execution model of ScaLAPACK's PDSTEDC
	// (Figure 7 baseline): level synchronization plus per-merge data
	// redistribution — each merge physically copies its eigenvector block
	// in and out of a scratch area (the distributed-memory exchanges the
	// paper attributes ScaLAPACK's overhead to), measured for real.
	ModeScaLAPACK
	// ModeForkJoin runs the sequential LAPACK algorithm with only the
	// merge GEMMs multithreaded, the execution model of a sequential
	// DSTEDC on top of a multithreaded BLAS (Figure 6 baseline).
	ModeForkJoin
	// ModeSequential runs everything on one thread (LAPACK reference).
	ModeSequential
)

func (m Mode) String() string {
	switch m {
	case ModeTaskFlow:
		return "task-flow"
	case ModeLevelSync:
		return "level-sync"
	case ModeScaLAPACK:
		return "scalapack-model"
	case ModeForkJoin:
		return "fork-join"
	case ModeSequential:
		return "sequential"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Options tunes the solver. The zero value picks reasonable defaults.
type Options struct {
	// Workers is the number of worker goroutines (<=0: GOMAXPROCS).
	Workers int
	// PanelSize is nb, the number of eigenvector columns per panel task.
	// When <= 0 the scheduler picks nb adaptively per merge: panel counts
	// are sized from the merge width and worker count at submit time, and
	// the secular panel width is re-derived from the post-deflation k once
	// the deflation task has run (large panels for small k to avoid task
	// overhead, smaller panels for big k to feed all workers). The chosen
	// width per merge is recorded in Result.Stats (MergeStat.NB).
	PanelSize int
	// MinPartition is the leaf cutoff of the D&C tree (leaves at most this
	// size are solved by Dsteqr). The default (48) keeps the O(m³) QR
	// iteration on the leaves from dominating heavily-deflating solves —
	// with 128-wide leaves the leaf solves are over half the n=2000 wall
	// time, while the extra merge level costs only a few small GEMMs.
	// LAPACK's DSTEDC uses SMLSIZ=25 for the same reason.
	MinPartition int
	// ExtraWorkspace, as in the paper, permits PermuteV to overlap LAED4
	// and CopyBackDeflated to overlap ComputeVect on the same panel, at
	// the cost of extra buffering (here: fewer induced dependencies).
	ExtraWorkspace bool
	// CaptureGraph records the task DAG with per-task timings.
	CaptureGraph bool
	// Mode selects the execution model (default ModeTaskFlow).
	Mode Mode
	// Progress, when non-nil, is called after every executed task of a
	// task-flow solve (the quark WithProgress heartbeat). External watchdogs
	// use it to detect stalled solves. It runs on worker goroutines, so it
	// must be concurrency-safe and cheap.
	Progress func()
	// ValuesOnly computes eigenvalues only: q is never touched (it may be
	// nil, and ldq is ignored) and the task flow submits none of the
	// eigenvector task classes — each tree node carries just the first and
	// last rows of its notional eigenvector block, dropping workspace from
	// O(n²) to O(n·depth) (DESIGN.md §17). Supported for ModeTaskFlow;
	// ModeSequential and ModeForkJoin degrade to the root-free Dsterf
	// reference, and the level-synchronized baselines are rejected.
	ValuesOnly bool
	// DisableABFT turns off the always-on silent-corruption defenses of the
	// task-flow modes (DESIGN.md §18): ABFT checksum rows on the packed
	// UpdateVect operands with per-panel verification, the per-merge trace
	// and interlacing invariants, and the in-place re-execution of kernels
	// whose output failed a check. The checks cost O(n) per merge plus
	// O(m·n) per verified GEMM panel against the merge's O(m·n·k) work; they
	// are on by default and this switch exists for overhead measurement, not
	// production use.
	DisableABFT bool
}

func (o *Options) withDefaults() Options {
	var v Options
	if o != nil {
		v = *o
	}
	if v.PanelSize < 0 {
		v.PanelSize = 0 // adaptive
	}
	if v.MinPartition < 2 {
		v.MinPartition = 48
	}
	return v
}

// Result reports solver metadata: the captured task graph (if requested) and
// operation statistics for the cost-model experiments.
type Result struct {
	Graph *quark.Graph
	Stats *Stats
}

// SolveDC computes all eigenpairs of the symmetric tridiagonal matrix
// (d, e): on exit d holds the ascending eigenvalues and q (n×n, column
// leading dimension ldq) the corresponding orthonormal eigenvectors; e is
// destroyed. The entry contents of q are ignored — callers may hand the
// solver a dirty, reused workspace; the leaf tasks establish the zero
// structure the merge kernels depend on.
func SolveDC(n int, d, e []float64, q []float64, ldq int, opts *Options) (*Result, error) {
	return SolveDCContext(context.Background(), n, d, e, q, ldq, opts)
}

// SolveDCContext is SolveDC bounded by a context: an already-cancelled
// context returns ctx.Err() before any task runs, and a cancellation (or
// deadline expiry) during a task-flow solve aborts within one task
// granularity — the kernels currently executing finish, every remaining
// task is skipped, and ctx.Err() is returned. The sequential and fork-join
// modes check the context only between coarse phases. On a non-nil error
// the contents of d, e and q are unspecified.
func SolveDCContext(ctx context.Context, n int, d, e []float64, q []float64, ldq int, opts *Options) (*Result, error) {
	o := opts.withDefaults()
	if n < 0 {
		return nil, fmt.Errorf("core: negative n")
	}
	res := &Result{Stats: newStats()}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if n == 0 {
		return res, nil
	}
	if !o.ValuesOnly && ldq < n {
		return nil, fmt.Errorf("core: ldq=%d < n=%d", ldq, n)
	}
	if o.ValuesOnly {
		switch o.Mode {
		case ModeSequential, ModeForkJoin:
			// The values-only LAPACK reference: root-free QR iteration.
			return res, lapack.Dsterf(n, d, e)
		case ModeLevelSync, ModeScaLAPACK:
			return nil, fmt.Errorf("core: ValuesOnly supports the %s and sequential modes only (got %s)", ModeTaskFlow, o.Mode)
		}
		if n <= o.MinPartition {
			return res, lapack.Dsterf(n, d, e)
		}
	}

	switch o.Mode {
	case ModeSequential:
		err := lapack.Dstedc(n, d, e, q, ldq, &lapack.DCConfig{SmallSize: o.MinPartition})
		return res, err
	case ModeForkJoin:
		workers := o.Workers
		gemm := func(ta, tb bool, m, nn, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
			blas.DgemmParallel(workers, ta, tb, m, nn, k, alpha, a, lda, b, ldb, beta, c, ldc)
		}
		err := lapack.Dstedc(n, d, e, q, ldq, &lapack.DCConfig{SmallSize: o.MinPartition, Gemm: gemm})
		return res, err
	}

	if n <= o.MinPartition {
		// Single leaf: no tree, solve directly (with the QR retry net).
		fellBack, err := lapack.DsteqrRobust(n, d, e, q, ldq)
		if fellBack {
			res.Stats.count("STEDCFallback", 1)
		}
		return res, err
	}

	rtOpts := []quark.Option{quark.WithContext(ctx), quark.WithTaskTimer(res.Stats.addTaskTime)}
	if o.CaptureGraph {
		rtOpts = append(rtOpts, quark.WithGraphCapture())
	}
	if o.Progress != nil {
		rtOpts = append(rtOpts, quark.WithProgress(o.Progress))
	}
	if !o.DisableABFT {
		rtOpts = append(rtOpts, quark.WithTaskRetry(corruptionRetryPred))
	}
	rt := quark.New(o.Workers, rtOpts...)

	var merges []*mergeState
	var fl []float64
	var err error
	if o.ValuesOnly {
		// The 2×n eigenvector-row carrier, the lane's only O(n) shared
		// buffer; released once the runtime has stopped.
		fl = pool.Get(2 * n)
		err = submitTaskFlowVO(rt, n, d, e, fl, &o, res.Stats, &merges)
	} else {
		err = submitTaskFlow(rt, rt.Wait, n, d, e, q, ldq, &o, res.Stats, &merges)
	}
	werr := rt.Wait()
	res.Stats.setABFTRetries(rt.Retries())
	if o.CaptureGraph {
		res.Graph = rt.Graph()
	}
	// Shutdown joins the workers, so after it no task can touch a merge
	// state: sweep the workspaces that failed or cancelled merges abandoned
	// (their release chain was skipped) and write them off the pool
	// accountant so budget accounting stays honest.
	rt.Shutdown()
	var leaked int64
	for _, ms := range merges {
		leaked += ms.sweepLeaked()
	}
	res.Stats.addLeaked(leaked)
	pool.Put(fl)
	if err != nil {
		return res, err
	}
	return res, werr
}

// corruptionRetryPred is the WithTaskRetry policy of the ABFT layer: a kernel
// whose inline check detected silent corruption (a failed GEMM checksum or a
// secular root outside its interlacing bracket) is re-executed once in place.
// Only idempotent classes qualify — LAED4 reads read-only poles and fully
// overwrites its output panel, UpdateVect is a beta=0 full-overwrite GEMM —
// so the recompute replaces the corrupted output without double-applying
// anything. Classes that transform state in place (ComputeVect) or whose
// corruption is detected downstream of the writer (trace defects surface in
// Dlamrg) heal at the solve level instead, through the eigen retry ladder.
func corruptionRetryPred(class string, err error) bool {
	switch class {
	case "LAED4", "UpdateVect":
		return faultinject.Corruption(err)
	}
	return false
}

// corruptHook lets an armed KindCorrupt chaos probe flip a bit in a kernel's
// output buffer; one atomic load and a no-op unless probes are enabled.
func corruptHook(class string, data []float64) {
	if faultinject.Active() {
		faultinject.Corrupt(class, data)
	}
}

// kahanSum returns the compensated sum, the absolute-value sum, and the
// absolute maximum of v: the trace invariant compares Σd across a merge
// against a ~256·eps tolerance, which naive n-term summation noise
// (O(n·eps·Σ|d|)) would exceed for large one-signed spectra; compensation
// makes the summation error O(eps·Σ|d|) independent of n.
func kahanSum(v []float64) (sum, absSum, maxAbs float64) {
	var c float64
	for _, x := range v {
		a := math.Abs(x)
		absSum += a
		if a > maxAbs {
			maxAbs = a
		}
		y := x - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum, absSum, maxAbs
}

// node is one subtree of the D&C partition.
type node struct {
	start, size int
	hV, hD      *quark.Handle
}

// taskRuntime is the submission surface shared by *quark.Runtime and
// *quark.Scope. Single solves submit straight to the runtime; batched solves
// submit each matrix's task flow through its own scope, so a failure cascade
// attributes (and confines its skip accounting) to one matrix while every
// matrix shares the same worker pool.
type taskRuntime interface {
	Handle(name string) *quark.Handle
	Submit(class, label string, fn func(), accesses ...quark.Access)
	SubmitPrio(class, label string, priority int, fn func(), accesses ...quark.Access)
	Workers() int
}

// submitTaskFlow submits the whole task graph in sequential program order.
// Every merge's runtime state is appended to *merges so the caller can sweep
// abandoned workspaces after the runtime stops. barrier is the runtime's Wait,
// used only by the level-synchronized modes (ModeLevelSync, ModeScaLAPACK);
// batched solves always run ModeTaskFlow and pass nil.
func submitTaskFlow(rt taskRuntime, barrier func() error, n int, d, e []float64, q []float64, ldq int, o *Options, st *Stats, merges *[]*mergeState) error {
	sizes := lapack.PartitionSizes(n, o.MinPartition)
	starts := make([]int, len(sizes)+1)
	for i, s := range sizes {
		starts[i+1] = starts[i] + s
	}

	// The matrix may need scaling to the safe range; orgnrm is computed up
	// front on the master (O(n)), the scaling itself is the Scale task.
	orgnrm := lapack.Dlanst('M', n, d, e)
	if orgnrm == 0 {
		rt.Submit("LASET", "identity", func() {
			for j := 0; j < n; j++ {
				col := q[j*ldq : j*ldq+n]
				for i := range col {
					col[i] = 0
				}
				col[j] = 1
			}
		})
		return nil
	}

	hScale := rt.Handle("scale")
	rt.Submit("Scale", "scale+partition", func() {
		if orgnrm != 1 {
			lapack.Dlascl(n, 1, orgnrm, 1, d, n)
			lapack.Dlascl(n-1, 1, orgnrm, 1, e, n-1)
		}
		// Rank-one tear at every internal boundary.
		for _, b := range starts[1 : len(starts)-1] {
			ae := math.Abs(e[b-1])
			d[b-1] -= ae
			d[b] -= ae
		}
		st.count("Scale", int64(n))
		corruptHook("Scale", d[:n])
	}, quark.Write(hScale))

	indxq := make([]int, n)

	// Leaf solves (the paper's STEDC leaf tasks).
	level := make([]*node, len(sizes))
	for i := range sizes {
		st0, sz := starts[i], sizes[i]
		nd := &node{start: st0, size: sz,
			hV: rt.Handle(fmt.Sprintf("V[%d:%d]", st0, st0+sz)),
			hD: rt.Handle(fmt.Sprintf("d[%d:%d]", st0, st0+sz))}
		level[i] = nd
		rt.Submit("STEDC", fmt.Sprintf("leaf[%d:%d]", st0, st0+sz), func() {
			// The merge kernels (deflation rotations, deflated-column copies)
			// operate on full merge-window columns and rely on the
			// structurally-zero off-block rows of q holding exact zeros —
			// LAPACK's Z=I invariant. Establish it here so callers may pass q
			// with arbitrary entry contents (e.g. a reused workspace): every
			// merge rewrites its window densely, so leaf-time zeroing is
			// enough by induction up the tree.
			for j := st0; j < st0+sz; j++ {
				col := q[j*ldq : j*ldq+n]
				for i := range col[:st0] {
					col[i] = 0
				}
				for i := st0 + sz; i < n; i++ {
					col[i] = 0
				}
			}
			fellBack, err := lapack.DsteqrRobust(sz, d[st0:st0+sz], e[st0:st0+max(sz-1, 0)], q[st0+st0*ldq:], ldq)
			if err != nil {
				panic(err)
			}
			if fellBack {
				st.count("STEDCFallback", 1)
			}
			for j := 0; j < sz; j++ {
				indxq[st0+j] = j
			}
			st.count("STEDC", int64(sz)*int64(sz)*int64(sz))
			corruptHook("STEDC", d[st0:st0+sz])
		}, quark.Read(hScale), quark.Write(nd.hV), quark.Write(nd.hD))
	}

	// Merge levels, bottom-up.
	lvl := 0
	for len(level) > 1 {
		lvl++
		var next []*node
		for i := 0; i+1 < len(level); i += 2 {
			left, right := level[i], level[i+1]
			parent := &node{start: left.start, size: left.size + right.size,
				hV: rt.Handle(fmt.Sprintf("V[%d:%d]", left.start, left.start+left.size+right.size)),
				hD: rt.Handle(fmt.Sprintf("d[%d:%d]", left.start, left.start+left.size+right.size))}
			*merges = append(*merges, submitMerge(rt, parent, left, right, lvl, d, e, q, ldq, indxq, o, st))
			next = append(next, parent)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
		if o.Mode == ModeLevelSync || o.Mode == ModeScaLAPACK {
			// A real barrier between tree levels (the ScaLAPACK execution
			// model). The no-op barrier task also materializes the barrier
			// as graph edges so the replay simulator reproduces it.
			acc := make([]quark.Access, 0, 2*len(level))
			for _, nd := range level {
				acc = append(acc, quark.ReadWrite(nd.hV), quark.ReadWrite(nd.hD))
			}
			rt.Submit("Barrier", fmt.Sprintf("level%d", lvl), func() {}, acc...)
			if err := barrier(); err != nil {
				return err
			}
		}
	}

	// SortEigenvectors: the merges leave every deflated vector at its slot,
	// so the one real column permutation of the solve happens here. The plan
	// task decomposes the root's sorting permutation into cycles and permutes
	// d (O(n)); row-strip tasks then apply the cycles to disjoint row ranges
	// of q in parallel. Small matrices use one strip, folded into the plan
	// task, so batched small solves submit no extra tasks.
	root := level[0]
	var plan *lapack.SortPlan
	planSort := func() {
		plan = lapack.NewSortPlan(n, d, indxq)
		if orgnrm != 1 {
			lapack.Dlascl(n, 1, 1, orgnrm, d, n)
		}
		corruptHook("SortEigenvectors", d[:n])
	}
	applyRows := func(r0, r1 int) {
		buf := pool.Get(r1 - r0)
		plan.Apply(q, ldq, r0, r1, buf)
		pool.Put(buf)
		st.count("SortEigenvectors", int64(plan.Moved())*int64(r1-r0))
	}
	nstrips := sortStrips(n, rt.Workers())
	if nstrips == 1 {
		rt.Submit("SortEigenvectors", "sort", func() {
			planSort()
			applyRows(0, n)
		}, quark.ReadWrite(root.hV), quark.ReadWrite(root.hD))
		return nil
	}
	// The plan task's ReadWrite on root.hV closes the root merge's gather
	// group, so the strips (a new Gatherv group) wait for every writer of V.
	rt.Submit("SortEigenvectors", "sort-plan", planSort, quark.ReadWrite(root.hV), quark.ReadWrite(root.hD))
	for s := 0; s < nstrips; s++ {
		r0, r1 := s*n/nstrips, (s+1)*n/nstrips
		rt.Submit("SortEigenvectors", fmt.Sprintf("sort-rows[%d:%d]", r0, r1), func() {
			applyRows(r0, r1)
		}, quark.Gather(root.hV))
	}
	return nil
}

// sortStrips is the number of row strips the final eigenvector permutation
// is split into: one per worker for large n (each strip walks every cycle,
// so strips stay at least sortStripRows tall), one below that.
func sortStrips(n, workers int) int {
	return max(min(workers, n/sortStripRows), 1)
}

const sortStripRows = 512

// adaptivePanelNB picks the submit-time panel width for a merge of width nm:
// the DAG is matrix independent (submitted before deflation is known), so the
// panel count is sized to give each worker a few stealable panels while
// keeping panels wide enough to amortize per-task overhead. The clamp is
// deliberately tight (96–128): the submit-time width only fixes the panel
// COUNT, and too few panels would force the runtime secular width above its
// cache budget (see secularPanelNB), while panels narrower than ~96 columns
// measurably lose to task overhead on small merges.
func adaptivePanelNB(nm, workers int) int {
	nb := (nm + 4*workers - 1) / (4 * workers)
	return min(max(nb, 96), 128)
}

// secularPanelNB re-derives the secular panel width once the post-deflation k
// is known: small k gets a few wide panels (the surplus submitted panels
// no-op immediately), large k gets panels sized to feed every worker AND to
// keep an nb-wide, k-row eigenvector panel — the unit the UpdateVect packed
// GEMM streams — within a ~2 MiB cache footprint. The width never drops
// below ceil(k/npanels), so the panels submitted for the worst case (no
// deflation) always cover all k secular columns.
func secularPanelNB(k, npanels, workers int) int {
	if k == 0 {
		return 0
	}
	nb := (k + 4*workers - 1) / (4 * workers)
	nb = max(nb, 48)
	if cacheNB := max(2<<20/(8*k), 64); nb > cacheNB {
		nb = cacheNB
	}
	return max(nb, (k+npanels-1)/npanels)
}

// mergeState is the runtime-shared state of one merge: filled by the
// Compute-deflation task, consumed by the panel tasks.
type mergeState struct {
	df    *lapack.Deflation
	ws    *lapack.MergeWorkspace
	what  []float64   // stabilized ẑ (ReduceW output)
	wlocs [][]float64 // per-panel Gu partial products
	// nbSec is the panel width of the secular tasks (LAED4, ComputeLocalW,
	// ComputeVect, UpdateVect, PackV). With a fixed Options.PanelSize it
	// equals the submit-time nb; in adaptive mode the deflation task
	// recomputes it from the post-deflation k before any secular task runs
	// (every secular task depends on the deflation join through hS or the
	// parent handles, so the write is ordered before all reads).
	nbSec int
	// Values-only merge state (nil on the full path, and at the root of a
	// values-only solve, whose carrier has no consumer): the per-secular-j
	// Dlaed4 root representation (porg, ptau) for the O(k) eigenvector
	// reconstruction, and the children's rotated outer carrier rows in
	// grouped order (vgtop: row 0 over the C12 top-block columns, vgbot:
	// row nm-1 over the C23 bottom-block columns).
	porg, ptau   []float64
	vgtop, vgbot []float64
	// ABFT trace invariant (DESIGN.md §18), filled by the deflation join when
	// the defenses are on: the merged spectrum must sum to traceWant within
	// traceTol (checked by the Dlamrg join, which is ordered after every
	// eigenvalue writer of the merge). statIdx is the merge's MergeStat index
	// so the measured defect lands in the stats.
	traceWant, traceTol float64
	abft                bool
	statIdx             int
	// pending counts the merge's not-yet-finished workspace consumers
	// (UpdateVect and CopyBackDeflated panels plus PackV on the full path,
	// the UpdateZ panels on the values-only path); when the last one
	// finishes, the pooled workspace and packed operands are recycled.
	pending atomic.Int32
}

// done marks one workspace consumer finished; the last one returns the
// merge scratch to the pool. Skipped tasks (cancelled merges, successors of
// a failed task) never reach done, so a failing merge simply leaves its
// buffers to the GC instead of risking a recycle of live data; sweepLeaked
// accounts those abandoned buffers after the runtime stops.
func (ms *mergeState) done() {
	if ms.pending.Add(-1) == 0 {
		if ms.ws != nil {
			ms.ws.Release()
		}
		pool.Put(ms.what)
		ms.what = nil
		pool.Put(ms.porg)
		ms.porg = nil
		pool.Put(ms.ptau)
		ms.ptau = nil
		pool.Put(ms.vgtop)
		ms.vgtop = nil
		pool.Put(ms.vgbot)
		ms.vgbot = nil
	}
}

// sweepLeaked reports the pooled bytes an abandoned merge still holds: when
// any workspace consumer was skipped (pending never reached zero), the
// buffers were deliberately leaked to the GC, and their accounted bytes are
// written off the pool accountant (pool.Forget) so they do not read as
// checked-out workspace forever. Must only be called after the runtime has
// shut down, when no task can still touch ms.
func (ms *mergeState) sweepLeaked() int64 {
	if ms.pending.Load() <= 0 {
		return 0
	}
	var b int64
	if ms.ws != nil {
		b = ms.ws.PooledBytes()
	}
	b += pool.AccountedBytes(ms.what) + pool.AccountedBytes(ms.porg) + pool.AccountedBytes(ms.ptau) +
		pool.AccountedBytes(ms.vgtop) + pool.AccountedBytes(ms.vgbot)
	for _, wl := range ms.wlocs {
		b += pool.AccountedBytes(wl)
	}
	if b > 0 {
		pool.Forget(b)
	}
	return b
}

// Merge task priorities, as the paper does in QUARK: merges nearer the root
// of the D&C tree outrank lower levels (the root merge is the critical path),
// and within a merge the join tasks (ComputeDeflation, ReduceW, Dlamrg) and
// the secular chain (LAED4 → ComputeLocalW → ComputeVect) outrank the
// off-critical-path copies (CopyBackDeflated, Redistribute). The stride of 8
// leaves room for the per-kind offsets below.
const (
	prioStride    = 8
	prioJoin      = 6
	prioDlamrg    = 5
	prioSecular   = 4
	prioPermute   = 3
	prioUpdate    = 2
	prioCopy      = 1
	prioRedistrib = 1
)

// submitMerge submits the paper's Algorithm 1 for one merge node.
//
// Access-declaration order matters for locality (not for correctness): the
// quark scheduler hints a ready task onto the worker that last wrote the
// task's last-declared non-Gatherv handle, so each task lists its panel
// handle last (UpdateVect follows ComputeVect's hSec panel, CopyBackDeflated
// follows PermuteV's hPerm panel, and so on).
func submitMerge(rt taskRuntime, parent, left, right *node, lvl int, d, e []float64, q []float64, ldq int, indxq []int, o *Options, st *Stats) *mergeState {
	prio := lvl * prioStride
	start := parent.start
	nm := parent.size
	n1 := left.size
	nb := o.PanelSize
	if nb <= 0 {
		nb = adaptivePanelNB(nm, rt.Workers())
	}
	npanels := (nm + nb - 1) / nb
	ms := &mergeState{wlocs: make([][]float64, npanels), nbSec: nb}
	// Workspace consumers: every UpdateVect and CopyBackDeflated panel plus
	// the PackV task; the last to finish recycles the merge scratch.
	ms.pending.Store(int32(2*npanels + 1))

	dd := d[start : start+nm]
	qq := q[start+start*ldq:]
	ixq := indxq[start : start+nm]
	rhoAddr := start + n1 - 1 // e index of the coupling element

	hS := rt.Handle(fmt.Sprintf("ws[%d:%d]", start, start+nm))
	hPack := rt.Handle(fmt.Sprintf("pack[%d:%d]", start, start+nm))
	hPerm := make([]*quark.Handle, npanels)
	hSec := make([]*quark.Handle, npanels)
	for p := 0; p < npanels; p++ {
		hPerm[p] = rt.Handle(fmt.Sprintf("perm[%d]@%d", p, start))
		hSec[p] = rt.Handle(fmt.Sprintf("sec[%d]@%d", p, start))
	}

	name := func(kind string, p int) string {
		return fmt.Sprintf("%s[%d:%d]p%d", kind, start, start+nm, p)
	}

	// Compute deflation: the first join. Forms z, scans for deflation,
	// applies pair rotations on V, allocates the merge workspace.
	rt.SubmitPrio("ComputeDeflation", fmt.Sprintf("deflate[%d:%d]", start, start+nm), prio+prioJoin, func() {
		rho := e[rhoAddr]
		// Trace invariant: capture Σd over the block at merge entry; the
		// deflation rotations preserve it exactly and the rank-one update
		// adds df.Rho, so the merged spectrum must sum to traceIn + Rho
		// (checked by the Dlamrg join).
		var traceIn, absIn, dmaxIn float64
		if !o.DisableABFT {
			traceIn, absIn, dmaxIn = kahanSum(dd)
		}
		z := pool.Get(nm)
		defer pool.Put(z)
		blas.Dcopy(n1, qq[n1-1:], ldq, z, 1)
		blas.Dcopy(nm-n1, qq[n1+n1*ldq:], ldq, z[n1:], 1)
		df, err := lapack.Dlaed2Deflate(nm, n1, dd, qq, ldq, ixq, rho, z)
		if err != nil {
			panic(err)
		}
		ms.df = df
		ms.ws = lapack.NewMergeWorkspace(df)
		ms.what = pool.Get(df.K)
		if o.PanelSize <= 0 {
			ms.nbSec = secularPanelNB(df.K, npanels, rt.Workers())
		}
		if !o.DisableABFT {
			ms.traceWant, ms.traceTol = lapack.TraceBudget(traceIn, absIn, dmaxIn, df.Rho, nm)
			ms.abft = true
		}
		st.count("ComputeDeflation", int64(nm))
		ms.statIdx = st.recordMerge(lvl, nm, df.K, ms.nbSec)
		// A corrupted pole propagates into every secular root of the merge
		// and breaks the trace invariant; dd itself is fully overwritten by
		// the LAED4 and CopyBackDeflated panels, so Dlamda is the join's
		// output that actually ships.
		corruptHook("ComputeDeflation", df.Dlamda)
	}, quark.ReadWrite(parent.hV), quark.ReadWrite(parent.hD),
		quark.Read(left.hV), quark.Read(right.hV),
		quark.Read(left.hD), quark.Read(right.hD),
		quark.Write(hS))

	// Redistribution (ScaLAPACK model only): the distributed solver must
	// gather the block-cyclic eigenvector data before the merge; the copies
	// are performed for real so their cost is measured, not modelled. The
	// scratch target is not consumed — the overhead is the point.
	var redist []float64
	if o.Mode == ModeScaLAPACK {
		redist = make([]float64, nm*nm)
		for p := 0; p < npanels; p++ {
			g0, g1 := p*nb, min((p+1)*nb, nm)
			rt.SubmitPrio("Redistribute", name("RedistIn", p), prio+prioRedistrib, func() {
				for g := g0; g < g1; g++ {
					copy(redist[g*nm:g*nm+nm], qq[g*ldq:g*ldq+nm])
				}
				st.count("Redistribute", int64(g1-g0)*int64(nm))
			}, quark.Read(parent.hV), quark.ReadWrite(hPerm[p]))
		}
	}

	// PermuteV: copy grouped columns into compressed workspace, per panel.
	for p := 0; p < npanels; p++ {
		p := p
		g0, g1 := p*nb, min((p+1)*nb, nm)
		rt.SubmitPrio("PermuteV", name("PermuteV", p), prio+prioPermute, func() {
			copied := ms.df.PermutePanel(qq, ldq, ms.ws, g0, g1)
			st.count("PermuteV", int64(copied))
			// Corrupt only the first column this panel wrote — the other
			// panels' regions are being written concurrently.
			corruptHook("PermuteV", ms.df.PermutedColumn(ms.ws, g0, g1))
		}, quark.Read(parent.hV), quark.Gather(hS), quark.ReadWrite(hPerm[p]))
	}

	// LAED4: solve the secular equation per panel of eigenvalues. The panel
	// ranges of the secular tasks come from ms.nbSec at run time, not from
	// the submit-time nb: in adaptive mode the deflation task re-derives the
	// width from the post-deflation k.
	for p := 0; p < npanels; p++ {
		p := p
		acc := []quark.Access{quark.Gather(hS), quark.Gather(parent.hD)}
		if !o.ExtraWorkspace {
			// Without extra workspace the secular panel shares storage
			// with the permutation buffer: serialize after PermuteV.
			acc = append(acc, quark.Read(hPerm[p]))
		}
		acc = append(acc, quark.ReadWrite(hSec[p]))
		rt.SubmitPrio("LAED4", name("LAED4", p), prio+prioSecular, func() {
			k := ms.df.K
			j0 := p * ms.nbSec
			j1 := min(j0+ms.nbSec, k)
			if j0 >= j1 {
				return
			}
			nfb, err := ms.df.SecularPanel(ms.ws, dd, j0, j1)
			if err != nil {
				panic(err)
			}
			if nfb > 0 {
				st.count("LAED4Bisect", int64(nfb))
			}
			st.count("LAED4", int64(j1-j0)*int64(k))
			corruptHook("LAED4", dd[j0:j1])
			if !o.DisableABFT {
				// Interlacing invariant; a violation is panicked as a
				// corruption error, which re-executes this panel in place
				// (SecularPanel fully overwrites its outputs).
				st.count("ABFTInvariant", 1)
				if ierr := ms.df.CheckInterlacing(dd, j0, j1); ierr != nil {
					st.count("ABFTInvariantFail", 1)
					panic(ierr)
				}
			}
		}, acc...)
	}

	// ComputeLocalW: panel-local factors of Gu's stabilization product.
	for p := 0; p < npanels; p++ {
		p := p
		rt.SubmitPrio("ComputeLocalW", name("ComputeLocalW", p), prio+prioSecular, func() {
			k := ms.df.K
			j0 := p * ms.nbSec
			j1 := min(j0+ms.nbSec, k)
			if j0 >= j1 {
				return
			}
			wl := pool.Get(k)
			// Publish the buffer before running the kernel: if LocalWPanel
			// panics, sweepLeaked must see wl to write it off the accountant.
			ms.wlocs[p] = wl
			for i := range wl {
				wl[i] = 1
			}
			ms.df.LocalWPanel(ms.ws, wl, j0, j1)
			st.count("ComputeLocalW", int64(j1-j0)*int64(k))
			corruptHook("ComputeLocalW", wl)
		}, quark.Gather(hS), quark.ReadWrite(hSec[p]))
	}

	// ReduceW: the second join, combining the panel products into ẑ.
	rt.SubmitPrio("ReduceW", fmt.Sprintf("ReduceW[%d:%d]", start, start+nm), prio+prioJoin, func() {
		ms.df.FinishW(ms.what, ms.wlocs...)
		for p, wl := range ms.wlocs {
			pool.Put(wl)
			ms.wlocs[p] = nil
		}
		st.count("ReduceW", int64(ms.df.K))
		corruptHook("ReduceW", ms.what)
	}, quark.ReadWrite(hS))

	// CopyBackDeflated: move the staged deflated vectors into their slots of
	// the parent V and write every deflated eigenvalue to its slot of d. Runs
	// concurrently with ReduceW/ComputeLocalW (Figure 2), waiting only for
	// the PermuteV group through the Gatherv-vs-readers rule on hV.
	for p := 0; p < npanels; p++ {
		p := p
		c0 := p * nb
		acc := []quark.Access{quark.Gather(parent.hV), quark.Gather(parent.hD), quark.ReadWrite(hPerm[p])}
		rt.SubmitPrio("CopyBackDeflated", name("CopyBack", p), prio+prioCopy, func() {
			defer ms.done()
			k := ms.df.K
			j0, j1 := max(c0, k)-k, min(c0+nb, nm)-k
			if j0 >= j1 {
				return
			}
			copied := ms.df.CopyBackPanel(qq, ldq, dd, ms.ws, j0, j1)
			st.count("CopyBackDeflated", int64(copied))
			// Corrupt this panel's largest deflated eigenvalue: the trace
			// check in Dlamrg catches any drift in the merged spectrum.
			if faultinject.Active() {
				s := ms.df.Slot(j0)
				for j := j0 + 1; j < j1; j++ {
					if t := ms.df.Slot(j); math.Abs(dd[t]) > math.Abs(dd[s]) {
						s = t
					}
				}
				faultinject.Corrupt("CopyBackDeflated", dd[s:s+1])
			}
		}, acc...)
	}

	// ComputeVect: stabilize and form the updated eigenvectors X per panel.
	for p := 0; p < npanels; p++ {
		p := p
		acc := []quark.Access{quark.Read(hS)}
		if !o.ExtraWorkspace {
			// Without extra workspace the deflated copy-back must vacate
			// the buffer first: serialize after CopyBackDeflated.
			acc = append(acc, quark.Read(hPerm[p]))
		}
		acc = append(acc, quark.ReadWrite(hSec[p]))
		rt.SubmitPrio("ComputeVect", name("ComputeVect", p), prio+prioSecular, func() {
			k := ms.df.K
			j0 := p * ms.nbSec
			j1 := min(j0+ms.nbSec, k)
			if j0 >= j1 {
				return
			}
			ms.df.VectorsPanel(ms.ws, ms.what, j0, j1)
			st.count("ComputeVect", int64(j1-j0)*int64(k))
			corruptHook("ComputeVect", ms.ws.S[j0*k:j1*k])
		}, acc...)
	}

	// PackV: repack the compressed GEMM operands Q2Top/Q2Bot into blocked
	// form once per merge; every UpdateVect panel then reuses the packed
	// operands instead of re-streaming (and re-packing) Q2 per panel. The
	// Gatherv on the parent V orders it after every PermuteV reader (which
	// fill Q2Top/Q2Bot) while leaving it concurrent with the UpdateVect
	// gather group; the hPack write→read edge orders it before each use.
	rt.SubmitPrio("PackV", fmt.Sprintf("PackV[%d:%d]", start, start+nm), prio+prioSecular, func() {
		defer ms.done()
		k := ms.df.K
		if k == 0 {
			return
		}
		pack := ms.df.PackV
		if !o.DisableABFT {
			pack = ms.df.PackVChecked
		}
		if bytes := pack(ms.ws, min(ms.nbSec, k)); bytes > 0 {
			st.count("PackV", int64(bytes))
		}
		// Corrupt the packed operand itself, after its checksum rows were
		// computed from the clean data: every UpdateVect GEMM through it must
		// then fail verification.
		if faultinject.Active() {
			if ms.ws.PackTop != nil {
				faultinject.Corrupt("PackV", ms.ws.PackTop.PackedData())
			} else if ms.ws.PackBot != nil {
				faultinject.Corrupt("PackV", ms.ws.PackBot.PackedData())
			}
		}
	}, quark.Gather(parent.hV), quark.Write(hPack))

	// UpdateVect: V = Ṽ × X, two compressed GEMMs per panel (through the
	// shared packed operands where PackV judged the shape worthwhile). The
	// merge-done bookkeeping runs through a sync.Once on the success path —
	// not a defer — so a panel panicking on a failed ABFT checksum does not
	// release the shared workspace its in-place re-execution is about to
	// read, and the retry's own completion still releases it exactly once.
	for p := 0; p < npanels; p++ {
		p := p
		var once sync.Once
		rt.SubmitPrio("UpdateVect", name("UpdateVect", p), prio+prioUpdate, func() {
			k := ms.df.K
			j0 := p * ms.nbSec
			j1 := min(j0+ms.nbSec, k)
			if j0 >= j1 {
				once.Do(ms.done)
				return
			}
			hits, misses := ms.df.UpdatePanel(qq, ldq, ms.ws, j0, j1, nil)
			if hits > 0 {
				st.count("UpdateVectPackHit", int64(hits))
			}
			if misses > 0 {
				st.count("UpdateVectPackMiss", int64(misses))
			}
			st.count("UpdateVect", 2*int64(j1-j0)*int64(nm)*int64(k))
			corruptHook("UpdateVect", qq[j0*ldq:j0*ldq+nm])
			if !o.DisableABFT {
				checked, cerr := ms.df.VerifyUpdatePanel(qq, ldq, ms.ws, j0, j1)
				if checked > 0 {
					st.count("ABFTChecksum", int64(checked))
				}
				if cerr != nil {
					st.count("ABFTChecksumFail", 1)
					panic(cerr)
				}
			}
			once.Do(ms.done)
		}, quark.Gather(parent.hV), quark.Read(hPack), quark.Read(hSec[p]))
	}

	// Redistribution back to block-cyclic layout (ScaLAPACK model only).
	if o.Mode == ModeScaLAPACK {
		for p := 0; p < npanels; p++ {
			g0, g1 := p*nb, min((p+1)*nb, nm)
			rt.SubmitPrio("Redistribute", name("RedistOut", p), prio+prioRedistrib, func() {
				for g := g0; g < g1; g++ {
					copy(redist[g*nm:g*nm+nm], qq[g*ldq:g*ldq+nm])
				}
				st.count("Redistribute", int64(g1-g0)*int64(nm))
			}, quark.Read(parent.hV), quark.ReadWrite(hPerm[p]), quark.Read(hSec[p]))
		}
	}

	// Dlamrg: build the sorting permutation for the merged spectrum through
	// the slot map (Deflation.MergeOrder). Its ReadWrite on the parent
	// d-handle orders it after every eigenvalue writer of the merge, so this
	// is where the trace invariant is checked.
	rt.SubmitPrio("Dlamrg", fmt.Sprintf("Dlamrg[%d:%d]", start, start+nm), prio+prioDlamrg, func() {
		k := ms.df.K
		corruptHook("Dlamrg", dd)
		if ms.abft {
			st.count("ABFTInvariant", 1)
			defect, terr := lapack.CheckTrace(dd, nm, ms.traceWant, ms.traceTol)
			st.setMergeTraceDefect(ms.statIdx, defect)
			if terr != nil {
				st.count("ABFTInvariantFail", 1)
				panic(terr)
			}
		}
		ms.df.MergeOrder(dd, ixq)
		if k > 0 {
			st.count("Dlamrg", int64(nm))
		}
	}, quark.ReadWrite(parent.hD))
	return ms
}
