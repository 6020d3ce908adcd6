package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"tridiag/eigen"
	"tridiag/internal/core"
	"tridiag/internal/pool"
)

// regime measures with core.SolveDC the deflated fraction of every input,
// aggregated over the merges of all inputs of one matrix type, and fails when
// a type's fraction is outside [lo, hi].
func regime(inputs []*input, lo, hi float64) (map[string]float64, error) {
	fracs := map[string]float64{}
	tot, defl := map[int]int{}, map[int]int{}
	for _, in := range inputs {
		n := in.n()
		d := append([]float64(nil), in.tri.D...)
		e := append([]float64(nil), in.tri.E...)
		res, err := core.SolveDC(n, d, e, make([]float64, n*n), n, nil)
		if err != nil {
			return nil, fmt.Errorf("regime probe %s n=%d: %w", typeName(in.typ), n, err)
		}
		for _, m := range res.Stats.Merges {
			tot[in.typ] += m.N
			defl[in.typ] += m.N - m.K
		}
		if len(res.Stats.Merges) > 0 {
			fracs[fmt.Sprintf("%s/n%d", typeName(in.typ), n)] = res.Stats.DeflationRatio()
		}
	}
	var errs []string
	for _, in := range inputs {
		name := typeName(in.typ)
		if _, done := fracs[name]; done {
			continue
		}
		if tot[in.typ] == 0 {
			errs = append(errs, name+": no merges ran")
			continue
		}
		f := float64(defl[in.typ]) / float64(tot[in.typ])
		fracs[name] = f
		if f < lo || f > hi {
			errs = append(errs, fmt.Sprintf("%s: deflated fraction %.4f outside [%.2f, %.2f]", name, f, lo, hi))
		}
	}
	if len(errs) > 0 {
		return fracs, fmt.Errorf("regime guard: %s", strings.Join(errs, "; "))
	}
	return fracs, nil
}

// runSolve measures a closed-loop solve workload: one caller alternating
// over the inputs, each op one eigen.Solve with default options.
func runSolve(r *run) error {
	ins := r.inputs
	chk := r.chk

	// Set-up: the warm-up solves that fill the scratch pool, repeated from
	// an empty pool; the reported time is their median.
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		pool.TrimAll()
		runtime.GC()
		var outs []*eigen.Result
		t0 := time.Now()
		for _, in := range ins {
			res, err := eigen.Solve(in.tri, nil)
			if err != nil {
				return fmt.Errorf("warm-up %s n=%d: %w", typeName(in.typ), in.n(), err)
			}
			outs = append(outs, res)
		}
		setups = append(setups, time.Since(t0).Seconds())
		for i, res := range outs {
			err := chk.check(ins[i], res.Values, res.Vectors)
			if err == nil && rep == 0 {
				err = checkOrthogonality(ins[i], res.Values, res.Vectors)
			}
			if err != nil {
				return fmt.Errorf("warm-up answer wrong: %w", err)
			}
		}
	}
	r.setupS = median(setups)

	// Warm-up: untimed ops of the loop itself, so the heap and the pool reach
	// their steady state before timing and the first ops' page faults and
	// heap growth stay out of the tail. Its answers are checked and count
	// like any other op's.
	warm := closedLoop(r, r.cfg.duration/warmUpShare, 0, nil)
	r.attempted += len(warm)
	r.failed += len(warm) - countOK(warm)

	if r.cfg.trace {
		return traceSolve(r)
	}
	// The sample floor serves the gated p50; the record flags the ungated
	// p90 when it has fewer than ten samples beyond.
	a0 := totalAllocMB()
	r.all = closedLoop(r, r.cfg.duration, r.floor(0.5), nil)
	r.allocPerOp = (totalAllocMB() - a0) / float64(len(r.all))
	r.attempted += len(r.all)
	r.failed += len(r.all) - countOK(r.all)
	return nil
}

// The untimed warm-up of a solve workload lasts 1/warmUpShare of the
// measuring time.
const warmUpShare = 20

// closedLoop alternates full solves over the inputs for at least d and until
// floor samples were taken (capped at four times d). Every answer is checked
// outside the timed region. traced selects the ops that record spans (nil:
// none).
func closedLoop(r *run, d time.Duration, floor int, traced func(i int) *tracer) []sample {
	var out []sample
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if el >= 4*d || (el >= d && len(out) >= floor) {
			break
		}
		in := r.inputs[i%len(r.inputs)]
		var tr *tracer
		if traced != nil {
			tr = traced(i)
		}
		s, err := r.solveOnce(in, tr, int64(i))
		if err != nil {
			r.noteErr(err)
		}
		out = append(out, s)
	}
	return out
}

// solveOnce times one eigen.Solve with default options and checks its
// answer afterwards.
func (r *run) solveOnce(in *input, tr *tracer, req int64) (sample, error) {
	id := tr.begin("eigen.Solve", -1, req)
	if tr != nil {
		r.sampling.Store(true)
	}
	t0 := time.Now()
	res, err := eigen.Solve(in.tri, nil)
	lat := time.Since(t0)
	if tr != nil {
		r.sampling.Store(false)
	}
	tr.end(id)
	if err == nil {
		cid := tr.begin("check", id, req)
		err = r.chk.check(in, res.Values, res.Vectors)
		tr.end(cid)
	}
	return sample{lat: lat, ok: err == nil}, err
}

// traceSolve is the traced run of a solve workload: half the time in the
// closed loop with every other op traced, the rest in the layer ladder.
func traceSolve(r *run) error {
	stopSampler := r.startPoolSampler()
	half := r.cfg.duration / 2
	p0 := pool.Counters()
	// Trace every other round over the inputs, so each input has traced
	// and untraced ops.
	traced := func(i int) bool { return (i/len(r.inputs))%2 == 0 }
	samples := closedLoop(r, half, 0, func(i int) *tracer {
		if traced(i) {
			return r.tr
		}
		return nil
	})
	stopSampler()
	r.loadMetrics(p0, samples, traced)
	r.attempted += len(samples)
	r.failed += len(samples) - countOK(samples)

	st, err := startStack(runtime.NumCPU())
	if err != nil {
		return err
	}
	defer st.close()
	var reqs []request
	for _, in := range r.inputs {
		reqs = append(reqs, request{in: in}, request{in: in, values: true})
	}
	watch, stopWatch := watchServer(st)
	r.runLadder(st, reqs, r.cfg.duration-half)
	stopWatch()
	r.serverMetrics(watch)
	r.measureKernels(reqs)
	// The client's own work is the ladder's HTTP steps; a closed loop has
	// no generator lag or backlog.
	var enc, dec []float64
	for _, rg := range r.rungs {
		for _, wt := range rg.wire {
			enc = append(enc, float64(wt.encode)/1e6)
			dec = append(dec, float64(wt.decode)/1e6)
		}
	}
	r.layer["client.encode_ms"] = mean(enc)
	r.layer["client.decode_ms"] = mean(dec)
	r.layer["gen.late_ms_p99"] = 0
	r.layer["gen.backlog_end"] = 0
	return nil
}

// tracedOverhead compares the p50 of the traced ops with that of the
// untraced ops of one interleaved loop, in percent.
func tracedOverhead(ss []sample, traced func(i int) bool) float64 {
	var on, off []sample
	for i, s := range ss {
		if traced(i) {
			on = append(on, s)
		} else {
			off = append(off, s)
		}
	}
	a, _ := percentile(latencies(on), 0.5)
	b, _ := percentile(latencies(off), 0.5)
	if !(b > 0) {
		return 0
	}
	return 100 * (a/b - 1)
}

// startPoolSampler samples the pool's checked-out bytes while r.sampling is
// set, keeping the peak; the returned func stops it and waits for it.
func (r *run) startPoolSampler() func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if r.sampling.Load() {
					if b := pool.InUseBytes(); b > r.peakInUse.Load() {
						r.peakInUse.Store(b)
					}
				}
			}
		}
	}()
	return func() { close(stop); <-done }
}
