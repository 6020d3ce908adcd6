package main

import (
	"context"
	"fmt"
	"time"

	"tridiag/eigen"
	"tridiag/eigen/cluster"
	"tridiag/internal/core"
)

// The layer ladder: one input replayed through successively outer entry
// points. The difference between neighbouring steps is what the outer layer
// adds to a solve.
const (
	stepCoreBare  = iota // core.SolveDC with DisableABFT
	stepCore             // core.SolveDC with defaults
	stepEigenBare        // eigen.Solve with Audit.Disable
	stepEigen            // eigen.Solve with defaults
	stepServer           // Server.Solve on an idle server
	stepWorker           // worker POST /solve
	stepCoord            // coordinator POST /solve
	numSteps
)

var stepNames = [numSteps]string{
	"core.SolveDC.noabft", "core.SolveDC", "eigen.Solve.noaudit", "eigen.Solve",
	"Server.Solve", "worker.POST", "coordinator.POST",
}

// maxWireVectorsN is the largest order whose full-class HTTP requests ask
// for the eigenvectors in the response. Above it the n×n matrix would be
// tens to hundreds of MB of JSON, so those requests run the same full solve
// on the server and return the eigenvalues only.
const maxWireVectorsN = 256

// rung is one pass of one input through the ladder.
type rung struct {
	in         *input
	valuesOnly bool
	steps      [numSteps]time.Duration
	stats      *core.Stats // from stepCore
	wire       [2]wireTiming
}

// layerDeltas turns per-step times into what each step adds over the one
// inside it; the innermost step's delta is its own time.
func layerDeltas(steps [numSteps]float64) [numSteps]float64 {
	var d [numSteps]float64
	for k := range steps {
		d[k] = steps[k]
		if k > 0 {
			d[k] -= steps[k-1]
		}
	}
	return d
}

// ladderMedians reduces rungs of one class to the mean, over inputs, of each
// step's median time across the passes, in milliseconds.
func ladderMedians(rs []rung) [numSteps]float64 {
	byInput := map[*input][]rung{}
	var order []*input
	for _, r := range rs {
		if _, ok := byInput[r.in]; !ok {
			order = append(order, r.in)
		}
		byInput[r.in] = append(byInput[r.in], r)
	}
	var out [numSteps]float64
	for _, in := range order {
		for k := 0; k < numSteps; k++ {
			ms := make([]float64, len(byInput[in]))
			for i, r := range byInput[in] {
				ms[i] = float64(r.steps[k]) / 1e6
			}
			out[k] += median(ms) / float64(len(order))
		}
	}
	return out
}

// ladder runs inputs through the seven steps.
type ladder struct {
	st  *stack
	chk *checker
	tr  *tracer
	q   map[int][]float64 // core.SolveDC eigenvector workspace per order
}

// run passes one input through every step, checking each step's answer.
func (l *ladder) run(in *input, valuesOnly bool, req int64) (rung, error) {
	r := rung{in: in, valuesOnly: valuesOnly}
	n := in.n()
	root := l.tr.begin("ladder", -1, req)
	defer l.tr.end(root)
	timed := func(k int, fn func() error) error {
		id := l.tr.begin(stepNames[k], root, req)
		t0 := time.Now()
		err := fn()
		r.steps[k] = time.Since(t0)
		l.tr.end(id)
		if err != nil {
			return fmt.Errorf("ladder step %s (%s n=%d): %w", stepNames[k], typeName(in.typ), n, err)
		}
		return nil
	}
	check := func(vals, vecs []float64) error {
		if valuesOnly {
			return checkValues(in, vals)
		}
		return l.chk.check(in, vals, vecs)
	}

	var q []float64
	if !valuesOnly {
		if l.q[n] == nil {
			l.q[n] = make([]float64, n*n)
		}
		q = l.q[n]
	}
	for _, k := range []int{stepCoreBare, stepCore} {
		d := append([]float64(nil), in.tri.D...)
		e := append([]float64(nil), in.tri.E...)
		opts := &core.Options{ValuesOnly: valuesOnly, DisableABFT: k == stepCoreBare}
		var res *core.Result
		err := timed(k, func() (err error) {
			res, err = core.SolveDC(n, d, e, q, n, opts)
			return err
		})
		if err == nil {
			err = check(d, q)
		}
		if err != nil {
			return r, err
		}
		if k == stepCore {
			r.stats = res.Stats
		}
	}
	for _, k := range []int{stepEigenBare, stepEigen, stepServer} {
		opts := &eigen.Options{ValuesOnly: valuesOnly, Audit: eigen.AuditOptions{Disable: k == stepEigenBare}}
		var res *eigen.Result
		err := timed(k, func() error {
			if k == stepServer {
				sr, err := l.st.server.Solve(context.Background(), in.tri, opts)
				if err != nil {
					return err
				}
				res = sr.Result
				return nil
			}
			var err error
			res, err = eigen.Solve(in.tri, opts)
			return err
		})
		if err == nil {
			err = check(res.Values, res.Vectors)
		}
		if err != nil {
			return r, err
		}
	}
	wireVectors := !valuesOnly && n <= maxWireVectorsN
	sreq := &cluster.SolveRequest{D: in.tri.D, E: in.tri.E, ValuesOnly: valuesOnly, Vectors: wireVectors}
	for i, k := range []int{stepWorker, stepCoord} {
		url := l.st.workerURL
		if k == stepCoord {
			url = l.st.coordURL
		}
		var resp *cluster.SolveResponse
		err := timed(k, func() (err error) {
			resp, r.wire[i], err = l.st.post(url, sreq)
			return err
		})
		if err == nil {
			err = checkResponse(in, resp, wireVectors, l.chk)
		}
		if err != nil {
			return r, err
		}
	}
	return r, nil
}

// checkResponse verifies a served answer: the wire checksum, the
// eigenvalues and, when requested, the eigenvectors.
func checkResponse(in *input, resp *cluster.SolveResponse, vectors bool, chk *checker) error {
	if got := cluster.SpectrumChecksum(resp.Values); resp.Checksum != got {
		return fmt.Errorf("%s n=%d: checksum %x, values hash to %x", typeName(in.typ), in.n(), resp.Checksum, got)
	}
	if !vectors {
		return checkValues(in, resp.Values)
	}
	return chk.check(in, resp.Values, resp.Vectors)
}
