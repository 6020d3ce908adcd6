package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"tridiag/internal/blas"
	"tridiag/internal/core"
	"tridiag/internal/pool"
)

// PerfWorkerPoint is one task-flow timing: the median of Reps solves of an
// n×n random tridiagonal at the given worker count, with the GC behaviour
// observed across those solves.
type PerfWorkerPoint struct {
	Workers  int     `json:"workers"`
	MedianMS float64 `json:"median_ms"`
	GCStats
}

// GCStats summarizes allocator/GC pressure over one timed run: collection
// count and total stop-the-world pauses, the fraction of CPU the GC
// consumed, and the heap-sys high-water mark sampled after each solve.
type GCStats struct {
	GCCycles      uint32  `json:"gc_cycles"`
	GCPauseMS     float64 `json:"gc_pause_ms"`
	GCCPUFraction float64 `json:"gc_cpu_frac"`
	HeapSysPeakMB float64 `json:"heap_sys_peak_mb"`
}

// SteadyPoint is one worker count's steady-state result: medians of the
// first quarter and last half of the in-process solve sequence (their ratio
// is the drift detector), GC behaviour over the whole sequence, and the
// pool's idle retention when the sequence ended.
type SteadyPoint struct {
	Workers              int     `json:"workers"`
	MedianFirstQuarterMS float64 `json:"median_first_quarter_ms"`
	MedianLastHalfMS     float64 `json:"median_last_half_ms"`
	SteadyRatio          float64 `json:"steady_ratio"`
	GCStats
	PoolRetainedMB float64 `json:"pool_retained_mb"`
}

// SteadyRecord is the `dcbench perf -steady N` summary: N solves per worker
// count in one process, the regression detector for the in-process slowdown
// this repo once shipped.
type SteadyRecord struct {
	N      int           `json:"n"`
	Solves int           `json:"solves"`
	Points []SteadyPoint `json:"points"`
}

// PerfRecord is the machine-readable performance snapshot emitted by
// `dcbench perf -json`: the scheduler acceptance numbers (task-flow medians
// at several worker counts), the GEMM kernel throughput, the UpdateVect
// pack-reuse counters of the timed solves, the GEMM micro-kernel the host
// dispatched to, and — with -steady N — the steady-state record.
type PerfRecord struct {
	N             int               `json:"n"`
	Reps          int               `json:"reps"`
	TaskFlow      []PerfWorkerPoint `json:"taskflow"`
	Steady        *SteadyRecord     `json:"steady,omitempty"`
	GemmN         int               `json:"gemm_n"`
	GemmGFLOPS    float64           `json:"gemm_gflops"`
	GemmKernel    string            `json:"gemm_kernel"`
	PackHits      int64             `json:"pack_hits"`
	PackMisses    int64             `json:"pack_misses"`
	PackedBytes   int64             `json:"packed_bytes"`
	PackReuseRate float64           `json:"pack_reuse_rate"`
}

// gcProbe samples the GC counters needed for before/after deltas.
type gcProbe struct {
	cycles     uint32
	pauseNs    uint64
	gcCPU      float64
	totalCPU   float64
	heapSysMax uint64
}

func readGCProbe() gcProbe {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var p gcProbe
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		p.totalCPU = samples[1].Value.Float64()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.cycles = ms.NumGC
	p.pauseNs = ms.PauseTotalNs
	p.heapSysMax = ms.HeapSys
	return p
}

// sampleHeapSys updates the probe's heap-sys high-water mark (called
// between solves; cheap relative to a solve).
func (p *gcProbe) sampleHeapSys() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapSys > p.heapSysMax {
		p.heapSysMax = ms.HeapSys
	}
}

// delta summarizes the GC activity between two probes.
func (p *gcProbe) delta(start gcProbe) GCStats {
	st := GCStats{
		GCCycles:      p.cycles - start.cycles,
		GCPauseMS:     float64(p.pauseNs-start.pauseNs) / 1e6,
		HeapSysPeakMB: float64(p.heapSysMax) / (1 << 20),
	}
	if dt := p.totalCPU - start.totalCPU; dt > 0 {
		st.GCCPUFraction = (p.gcCPU - start.gcCPU) / dt
	}
	return st
}

// Perf measures the performance snapshot: median-of-reps task-flow solve
// times at 1/4/8 workers (overridden by cfg.Workers), the square Dgemm
// throughput, and the pack-reuse statistics accumulated over the timed runs.
func Perf(cfg *Config) (*PerfRecord, error) {
	n := 2000
	reps := 3
	if cfg.Quick {
		n, reps = 500, 1
	}
	if len(cfg.Sizes) > 0 {
		n = cfg.Sizes[0]
	}
	workers := cfg.Workers
	if len(workers) == 0 {
		workers = []int{1, 4, 8}
	}

	rng := rand.New(rand.NewSource(cfg.seed()))
	d0 := make([]float64, n)
	e0 := make([]float64, n-1)
	for i := range d0 {
		d0[i] = rng.NormFloat64()
	}
	for i := range e0 {
		e0[i] = rng.NormFloat64()
	}

	rec := &PerfRecord{N: n, Reps: reps}
	q := make([]float64, n*n)
	fmt.Fprintf(cfg.out(), "task-flow solve, n=%d, median of %d:\n", n, reps)
	for _, w := range workers {
		times := make([]float64, 0, reps)
		probe := readGCProbe()
		start := probe
		for r := 0; r < reps; r++ {
			d := append([]float64(nil), d0...)
			e := append([]float64(nil), e0...)
			t0 := time.Now()
			res, err := core.SolveDC(n, d, e, q, n, &core.Options{Workers: w})
			if err != nil {
				return nil, fmt.Errorf("perf n=%d w=%d: %w", n, w, err)
			}
			times = append(times, float64(time.Since(t0).Microseconds())/1000)
			hits, misses, bytes, _ := res.Stats.PackReuse()
			rec.PackHits += hits
			rec.PackMisses += misses
			rec.PackedBytes += bytes
			probe.sampleHeapSys()
		}
		end := readGCProbe()
		if probe.heapSysMax > end.heapSysMax {
			end.heapSysMax = probe.heapSysMax
		}
		sort.Float64s(times)
		med := times[len(times)/2]
		pt := PerfWorkerPoint{Workers: w, MedianMS: med, GCStats: end.delta(start)}
		rec.TaskFlow = append(rec.TaskFlow, pt)
		fmt.Fprintf(cfg.out(), "  W%-2d  %8.1f ms   gc=%d pause=%.2fms gc-cpu=%.1f%% heap-sys≤%.0fMB\n",
			w, med, pt.GCCycles, pt.GCPauseMS, 100*pt.GCCPUFraction, pt.HeapSysPeakMB)
	}
	if rec.PackHits+rec.PackMisses > 0 {
		rec.PackReuseRate = float64(rec.PackHits) / float64(rec.PackHits+rec.PackMisses)
	}
	fmt.Fprintf(cfg.out(), "UpdateVect pack: hits=%d misses=%d packed=%d B reuse=%.1f%%\n",
		rec.PackHits, rec.PackMisses, rec.PackedBytes, 100*rec.PackReuseRate)

	if cfg.Steady > 0 {
		st, err := steady(cfg, n, cfg.Steady, workers, d0, e0)
		if err != nil {
			return nil, err
		}
		rec.Steady = st
	}

	// Square GEMM throughput at the reference size.
	gn := 256
	if cfg.Quick {
		gn = 128
	}
	a := make([]float64, gn*gn)
	b := make([]float64, gn*gn)
	c := make([]float64, gn*gn)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	best := 0.0
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		blas.Dgemm(false, false, gn, gn, gn, 1, a, gn, b, gn, 0, c, gn)
		el := time.Since(t0).Seconds()
		if g := 2 * float64(gn) * float64(gn) * float64(gn) / el / 1e9; g > best {
			best = g
		}
	}
	rec.GemmN, rec.GemmGFLOPS, rec.GemmKernel = gn, best, blas.Kernel()
	fmt.Fprintf(cfg.out(), "Dgemm %d: %.1f GFLOPS (%s micro-kernel)\n", gn, best, rec.GemmKernel)
	return rec, nil
}

// steady is the in-process steady-state mode (`dcbench perf -steady N`):
// for each worker count it runs N solves back to back in this process,
// reusing one eigenvector workspace — exactly the pattern that once
// degraded 2.5× — and reports the medians of the first quarter and the
// last half of the sequence plus the GC behaviour across it. A healthy
// solver has steady_ratio ≈ 1.
func steady(cfg *Config, n, solves int, workers []int, d0, e0 []float64) (*SteadyRecord, error) {
	rec := &SteadyRecord{N: n, Solves: solves}
	q := make([]float64, n*n) // reused across every solve, never cleared
	d := make([]float64, n)
	e := make([]float64, n-1)
	fmt.Fprintf(cfg.out(), "steady state: %d in-process solves per worker count, n=%d, reused workspace:\n", solves, n)
	for _, w := range workers {
		times := make([]float64, 0, solves)
		probe := readGCProbe()
		start := probe
		for r := 0; r < solves; r++ {
			copy(d, d0)
			copy(e, e0)
			t0 := time.Now()
			if _, err := core.SolveDC(n, d, e, q, n, &core.Options{Workers: w}); err != nil {
				return nil, fmt.Errorf("steady n=%d w=%d rep %d: %w", n, w, r, err)
			}
			times = append(times, float64(time.Since(t0).Microseconds())/1000)
			probe.sampleHeapSys()
		}
		end := readGCProbe()
		if probe.heapSysMax > end.heapSysMax {
			end.heapSysMax = probe.heapSysMax
		}
		pt := SteadyPoint{
			Workers:              w,
			MedianFirstQuarterMS: medianOf(times[:max(len(times)/4, 1)]),
			MedianLastHalfMS:     medianOf(times[len(times)/2:]),
			GCStats:              end.delta(start),
			PoolRetainedMB:       float64(pool.RetainedBytes()) / (1 << 20),
		}
		if pt.MedianFirstQuarterMS > 0 {
			pt.SteadyRatio = pt.MedianLastHalfMS / pt.MedianFirstQuarterMS
		}
		rec.Points = append(rec.Points, pt)
		fmt.Fprintf(cfg.out(), "  W%-2d  first¼ %8.1f ms   last½ %8.1f ms   ratio %.2f   gc=%d pause=%.2fms gc-cpu=%.1f%% heap-sys≤%.0fMB retained=%.0fMB\n",
			w, pt.MedianFirstQuarterMS, pt.MedianLastHalfMS, pt.SteadyRatio,
			pt.GCCycles, pt.GCPauseMS, 100*pt.GCCPUFraction, pt.HeapSysPeakMB, pt.PoolRetainedMB)
	}
	return rec, nil
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// JSON renders the record as indented JSON (for BENCH_taskflow.json).
func (r *PerfRecord) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// MergeJSON writes the record's fields into path at the top level (the
// historical layout), preserving any foreign keys already in the file —
// notably the "secular" record written by `dcbench secular -json`.
func (r *PerfRecord) MergeJSON(path string) error {
	doc := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("existing %s is not a JSON object: %w", path, err)
		}
	}
	self, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fields := map[string]any{}
	if err := json.Unmarshal(self, &fields); err != nil {
		return err
	}
	for k, v := range fields {
		doc[k] = v
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
