package tridiag

// One benchmark per table and figure of the paper's evaluation section (see
// DESIGN.md §4). Each drives the same harness as cmd/dcbench at reduced
// sizes so `go test -bench=.` regenerates every experiment's shape; run
// `go run ./cmd/dcbench all` for the full-size tables.
//
// Micro-benchmarks of the hot kernels follow at the bottom.

import (
	"io"
	"math"
	"math/rand"
	"testing"

	"tridiag/eigen"
	"tridiag/internal/bench"
	"tridiag/internal/blas"
	"tridiag/internal/core"
	"tridiag/internal/lapack"
	"tridiag/internal/mrrr"
	"tridiag/internal/testmat"
)

func quickCfg() *bench.Config {
	return &bench.Config{Quick: true, Out: io.Discard}
}

func BenchmarkTable1MergeCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		cfg.Sizes = []int{200, 400}
		if _, _, err := bench.Table1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3MatrixSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		cfg.Sizes = []int{200}
		if _, err := bench.Table3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3OptimizationLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		cfg.Sizes = []int{400}
		if _, err := bench.Fig3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4HighDeflationTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		cfg.Sizes = []int{400}
		if _, err := bench.Fig4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		cfg.Sizes = []int{400}
		if _, err := bench.Fig5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6VsLAPACKModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		cfg.Sizes = []int{400}
		cfg.Types = []int{3, 4}
		if _, err := bench.Fig6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7VsScaLAPACKModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		cfg.Sizes = []int{400}
		cfg.Types = []int{3, 4}
		if _, err := bench.Fig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8VsMRRR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		cfg.Sizes = []int{250}
		cfg.Types = []int{2, 4, 10, 14}
		if _, err := bench.Fig8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		cfg.Sizes = []int{250}
		cfg.Types = []int{3, 10, 11}
		if _, err := bench.Fig9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10ApplicationSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		cfg.Sizes = []int{200}
		if _, err := bench.Fig10(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ----------------------------------------------------------- micro-benches

func benchTridiag(n int) (d, e []float64) {
	rng := rand.New(rand.NewSource(42))
	d = make([]float64, n)
	e = make([]float64, n-1)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	return
}

func BenchmarkSolveDCTaskFlow1000(b *testing.B) {
	d0, e0 := benchTridiag(1000)
	q := make([]float64, 1000*1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := append([]float64(nil), d0...)
		e := append([]float64(nil), e0...)
		if _, err := core.SolveDC(1000, d, e, q, 1000, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveDCSequential1000(b *testing.B) {
	d0, e0 := benchTridiag(1000)
	q := make([]float64, 1000*1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := append([]float64(nil), d0...)
		e := append([]float64(nil), e0...)
		if _, err := core.SolveDC(1000, d, e, q, 1000, &core.Options{Mode: core.ModeSequential}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSolveDCTaskFlow(b *testing.B, n, workers int) {
	d0, e0 := benchTridiag(n)
	q := make([]float64, n*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := append([]float64(nil), d0...)
		e := append([]float64(nil), e0...)
		if _, err := core.SolveDC(n, d, e, q, n, &core.Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// The scheduler acceptance benchmarks: the n>=2000 task-flow solve at one
// worker (pure overhead measurement) and at several workers (queue contention
// and wakeup policy measurement).
func BenchmarkSolveDCTaskFlow2000W1(b *testing.B) { benchSolveDCTaskFlow(b, 2000, 1) }
func BenchmarkSolveDCTaskFlow2000W4(b *testing.B) { benchSolveDCTaskFlow(b, 2000, 4) }
func BenchmarkSolveDCTaskFlow2000W8(b *testing.B) { benchSolveDCTaskFlow(b, 2000, 8) }

func BenchmarkMRRR1000(b *testing.B) {
	d0, e0 := benchTridiag(1000)
	w := make([]float64, 1000)
	z := make([]float64, 1000*1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mrrr.Solve(1000, d0, e0, w, z, 1000, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteqr400(b *testing.B) {
	d0, e0 := benchTridiag(400)
	z := make([]float64, 400*400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := append([]float64(nil), d0...)
		e := append([]float64(nil), e0...)
		if err := lapack.Dsteqr(lapack.CompIdentity, 400, d, e, z, 400); err != nil {
			b.Fatal(err)
		}
	}
}

// forEachGemmKernel runs bench as one sub-benchmark per GEMM micro-kernel
// (avx512, avx2, generic), so the kernel ladder prints side by side. A
// kernel the host CPU cannot run is skipped with the reason logged.
func forEachGemmKernel(b *testing.B, bench func(b *testing.B)) {
	for _, kernel := range []string{"avx512", "avx2", "generic"} {
		b.Run(kernel, func(b *testing.B) {
			restore, ok := blas.ForceKernel(kernel)
			if !ok {
				b.Skipf("host CPU cannot run the %s micro-kernel", kernel)
			}
			defer restore()
			bench(b)
		})
	}
}

func BenchmarkDgemm256(b *testing.B) {
	n := 256
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, n*n)
	bb := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = rng.NormFloat64()
		bb[i] = rng.NormFloat64()
	}
	forEachGemmKernel(b, func(b *testing.B) {
		b.SetBytes(int64(8 * n * n))
		for i := 0; i < b.N; i++ {
			blas.Dgemm(false, false, n, n, n, 1, a, n, bb, n, 0, c, n)
		}
		b.ReportMetric(2*float64(n)*float64(n)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	})
}

// benchGemmShape measures one C = A·B shape with the GFLOPS metric.
func benchGemmShape(b *testing.B, m, n, k int) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, m*k)
	bb := make([]float64, k*n)
	c := make([]float64, m*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range bb {
		bb[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blas.Dgemm(false, false, m, n, k, 1, a, m, bb, k, 0, c, m)
	}
	b.ReportMetric(2*float64(m)*float64(n)*float64(k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// The compressed UpdateVect GEMM shapes of a large merge: tall C (all n rows),
// panel-width columns, k contracted over the non-deflated columns.
func BenchmarkGemmUpdateVect1000x128x900(b *testing.B) { benchGemmShape(b, 1000, 128, 900) }
func BenchmarkGemmUpdateVect500x128x400(b *testing.B)  { benchGemmShape(b, 500, 128, 400) }
func BenchmarkGemmSkinny2000x32x256(b *testing.B)      { benchGemmShape(b, 2000, 32, 256) }

// BenchmarkGemmPanelsUnpacked vs BenchmarkGemmPanelsPacked: the per-merge
// reuse pattern — one m×k operand multiplied against 8 column panels — with
// the operand re-packed per call versus packed once and shared (PackV).
func benchGemmPanels(b *testing.B, packed bool) {
	m, k, n, nb := 1000, 900, 1024, 128
	rng := rand.New(rand.NewSource(2))
	a := make([]float64, m*k)
	bb := make([]float64, k*n)
	c := make([]float64, m*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range bb {
		bb[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if packed {
			pa := blas.PackA(false, m, k, a, m)
			for j0 := 0; j0 < n; j0 += nb {
				blas.PackedGemm(pa, min(nb, n-j0), 1, bb[j0*k:], k, 0, c[j0*m:], m)
			}
			pa.Release()
		} else {
			for j0 := 0; j0 < n; j0 += nb {
				blas.Dgemm(false, false, m, min(nb, n-j0), k, 1, a, m, bb[j0*k:], k, 0, c[j0*m:], m)
			}
		}
	}
	b.ReportMetric(2*float64(m)*float64(n)*float64(k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func BenchmarkGemmPanelsUnpacked(b *testing.B) { benchGemmPanels(b, false) }
func BenchmarkGemmPanelsPacked(b *testing.B) {
	forEachGemmKernel(b, func(b *testing.B) { benchGemmPanels(b, true) })
}

func BenchmarkSecularSolve(b *testing.B) {
	k := 500
	rng := rand.New(rand.NewSource(2))
	d := make([]float64, k)
	z := make([]float64, k)
	cur := 0.0
	var nrm float64
	for i := 0; i < k; i++ {
		cur += 0.1 + rng.Float64()
		d[i] = cur
		z[i] = 0.1 + rng.Float64()
		nrm += z[i] * z[i]
	}
	nrm = 1 / math.Sqrt(nrm)
	for i := range z {
		z[i] *= nrm
	}
	delta := make([]float64, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lapack.Dlaed4(k, i%k, d, z, delta, 1.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSytrd300(b *testing.B) {
	n := 300
	rng := rand.New(rand.NewSource(3))
	a0 := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			v := rng.NormFloat64()
			a0[i+j*n] = v
			a0[j+i*n] = v
		}
	}
	d := make([]float64, n)
	e := make([]float64, n-1)
	tau := make([]float64, n-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := append([]float64(nil), a0...)
		if err := lapack.Dsytrd(n, a, n, d, e, tau, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateType4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := testmat.Type(4, 300, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPublicSolve500(b *testing.B) {
	d, e := benchTridiag(500)
	t := eigen.Tridiagonal{D: d, E: e}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eigen.Solve(t, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheoryErrorModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		cfg.Sizes = []int{100, 200}
		if _, _, err := bench.Theory(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReductionOneStage300(b *testing.B) {
	n := 300
	rng := rand.New(rand.NewSource(5))
	a0 := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			v := rng.NormFloat64()
			a0[i+j*n] = v
			a0[j+i*n] = v
		}
	}
	d := make([]float64, n)
	e := make([]float64, n-1)
	tau := make([]float64, n-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := append([]float64(nil), a0...)
		if err := lapack.Dsytrd(n, a, n, d, e, tau, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReductionTwoStage300(b *testing.B) {
	n := 300
	rng := rand.New(rand.NewSource(5))
	a0 := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			v := rng.NormFloat64()
			a0[i+j*n] = v
			a0[j+i*n] = v
		}
	}
	d := make([]float64, n)
	e := make([]float64, n-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := append([]float64(nil), a0...)
		if err := lapack.Dsytrd2Stage(n, a, n, 32, d, e, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSolveDCValuesOnly(b *testing.B, n, workers int) {
	d0, e0 := benchTridiag(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := append([]float64(nil), d0...)
		e := append([]float64(nil), e0...)
		if _, err := core.SolveDC(n, d, e, nil, 0, &core.Options{Workers: workers, ValuesOnly: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// The values-only acceptance benchmarks: the same shapes as the task-flow
// scheduler benchmarks with Options.ValuesOnly set (no eigenvector tasks, no
// n×n block anywhere).
func BenchmarkSolveDCValuesOnly2000W1(b *testing.B) { benchSolveDCValuesOnly(b, 2000, 1) }
func BenchmarkSolveDCValuesOnly2000W4(b *testing.B) { benchSolveDCValuesOnly(b, 2000, 4) }
func BenchmarkSolveDCValuesOnly2000W8(b *testing.B) { benchSolveDCValuesOnly(b, 2000, 8) }
