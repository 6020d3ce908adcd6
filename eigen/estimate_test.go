package eigen

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"tridiag/internal/pool"
	"tridiag/internal/testmat"
)

// TestEstimateSolveBytesCoversMeasuredPeak measures the pooled workspace a
// task-flow solve actually checks out — sampled after every executed task,
// so every merge workspace is seen while it is live — and asserts the
// admission estimate covers it, at full deflation (Table III type 2) and at
// ≈3% deflation (type 4), where the secular matrix, the compressed operands
// and the packed panels dominate.
func TestEstimateSolveBytesCoversMeasuredPeak(t *testing.T) {
	const n, workers = 600, 2
	for _, typ := range []int{2, 4} {
		m, err := testmat.Type(typ, n, rand.New(rand.NewSource(int64(typ))))
		if err != nil {
			t.Fatal(err)
		}
		base := pool.InUseBytes()
		var peak atomic.Int64
		sample := func() {
			for {
				cur, old := pool.InUseBytes()-base, peak.Load()
				if cur <= old || peak.CompareAndSwap(old, cur) {
					return
				}
			}
		}
		_, err = SolveContext(context.Background(), Tridiagonal{D: m.D, E: m.E},
			&Options{Workers: workers, Progress: sample})
		if err != nil {
			t.Fatalf("type %d: %v", typ, err)
		}
		est := EstimateSolveBytes(n, workers)
		t.Logf("type %d: measured pool peak %d B, estimate %d B", typ, peak.Load(), est)
		if peak.Load() == 0 {
			t.Fatalf("type %d: sampled no pooled workspace; the probe measured nothing", typ)
		}
		if peak.Load() > est {
			t.Errorf("type %d: measured pool peak %d B exceeds EstimateSolveBytes %d B", typ, peak.Load(), est)
		}
	}
}
