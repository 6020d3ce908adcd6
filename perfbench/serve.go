package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tridiag/eigen/cluster"
	"tridiag/internal/pool"
)

// sized is a matrix order with its weight in a request mix.
type sized struct{ n, weight int }

// request is one planned serve-mix request.
type request struct {
	in     *input
	values bool
}

// serveMix describes the served traffic.
type serveMix struct {
	full, values []sized
	perSize      int     // distinct matrices per order
	rate         float64 // open-loop arrivals per second
}

// deck deals items in proportion to their weights: each round holds every
// item weight times, shuffled, so any stretch of requests has the mix's
// proportions up to one round.
type deck struct {
	rng   *rand.Rand
	cards []int
	pos   int
}

func newDeck(rng *rand.Rand, ss []sized) *deck {
	d := &deck{rng: rng}
	for _, s := range ss {
		for k := 0; k < s.weight; k++ {
			d.cards = append(d.cards, s.n)
		}
	}
	d.pos = len(d.cards)
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

// plan draws count requests: half full (eigenvectors on the wire), half
// values-only, orders dealt by weight, matrices drawn uniformly among that
// order's.
func (r *run) plan(rng *rand.Rand, count int) []request {
	byN := map[int][]*input{}
	for _, in := range r.inputs {
		byN[in.n()] = append(byN[in.n()], in)
	}
	mix := r.cfg.w.mix
	classes := newDeck(rng, []sized{{0, 1}, {1, 1}})
	fullDeck, valuesDeck := newDeck(rng, mix.full), newDeck(rng, mix.values)
	out := make([]request, count)
	for i := range out {
		values := classes.next() == 1
		sizes := fullDeck
		if values {
			sizes = valuesDeck
		}
		ins := byN[sizes.next()]
		out[i] = request{in: ins[rng.Intn(len(ins))], values: values}
	}
	return out
}

func className(values bool) string {
	if values {
		return "values"
	}
	return "full"
}

// serveCounters accumulates the client's own time per request.
type serveCounters struct {
	mu             sync.Mutex
	encode, decode []float64
	fullSeen       atomic.Int64
}

// serveOnce sends one request through the coordinator and checks the
// answer; it returns when the decoded answer was in hand and whether it was
// right. A traced request records its client-side phases as spans.
func (r *run) serveOnce(st *stack, q request, tr *tracer, req int64, sc *serveCounters) (time.Time, bool) {
	vectors := !q.values && q.in.n() <= maxWireVectorsN
	sreq := &cluster.SolveRequest{D: q.in.tri.D, E: q.in.tri.E, Vectors: vectors, ValuesOnly: q.values}
	t0 := time.Now()
	root := tr.begin("request."+className(q.values), -1, req)
	resp, wt, err := st.post(st.coordURL, sreq)
	end := time.Now()
	tr.end(root)
	if tr != nil {
		tr.record("client.encode", t0, wt.encode, root, req)
		tr.record("http.roundtrip", t0.Add(wt.encode), wt.roundTrip, root, req)
		tr.record("client.decode", t0.Add(wt.encode+wt.roundTrip), wt.decode, root, req)
	}
	if sc != nil {
		sc.mu.Lock()
		sc.encode = append(sc.encode, float64(wt.encode)/1e6)
		sc.decode = append(sc.decode, float64(wt.decode)/1e6)
		sc.mu.Unlock()
	}
	if err == nil {
		err = checkResponse(q.in, resp, vectors, r.chk)
	}
	if err == nil && vectors && sc != nil && sc.fullSeen.Add(1)%orthoEvery == 1 {
		err = checkOrthogonality(q.in, resp.Values, resp.Vectors)
	}
	if err != nil {
		r.noteErr(fmt.Errorf("%s request n=%d: %w", className(q.values), q.in.n(), err))
		return end, false
	}
	return end, true
}

// orthoEvery: one full response in this many gets the orthogonality check.
const orthoEvery = 50

// runServe measures the serve-mix workload: an open loop at a fixed rate
// (phase 1), then a closed loop with one connection per CPU (phase 2).
func runServe(r *run) error {
	conns := runtime.NumCPU()
	mix := r.cfg.w.mix
	rng := rand.New(rand.NewSource(inputSeed(r.cfg.seed, -1, 0, 0)))

	// Set-up: build the stack, probe it, and send one warm-up request per
	// order and class; repeated from an empty pool, median reported.
	// One request per order, in the class the mix sends that order in.
	var warm []request
	seen := map[int]bool{}
	for _, in := range r.inputs {
		if !seen[in.n()] {
			seen[in.n()] = true
			warm = append(warm, request{in: in, values: in.n() > mix.full[len(mix.full)-1].n})
		}
	}
	var st *stack
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			st.close()
		}
		pool.TrimAll()
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = startStack(conns); err != nil {
			return err
		}
		type answer struct {
			q    request
			resp *cluster.SolveResponse
			err  error
		}
		var answers []answer
		for _, q := range warm {
			vectors := !q.values && q.in.n() <= maxWireVectorsN
			resp, _, err := st.post(st.coordURL, &cluster.SolveRequest{D: q.in.tri.D, E: q.in.tri.E, Vectors: vectors, ValuesOnly: q.values})
			answers = append(answers, answer{q, resp, err})
		}
		setups = append(setups, time.Since(t0).Seconds())
		for _, a := range answers {
			vectors := !a.q.values && a.q.in.n() <= maxWireVectorsN
			err := a.err
			if err == nil {
				err = checkResponse(a.q.in, a.resp, vectors, r.chk)
			}
			if err == nil && vectors {
				err = checkOrthogonality(a.q.in, a.resp.Values, a.resp.Vectors)
			}
			if err != nil {
				st.close()
				return fmt.Errorf("warm-up answer wrong: %w", err)
			}
		}
	}
	defer st.close()
	r.setupS = median(setups)

	sc := &serveCounters{}
	d := r.cfg.duration
	p1 := time.Duration(0.7 * float64(d))
	if r.cfg.trace {
		p1 = d / 2
	}
	count := int(mix.rate * p1.Seconds())
	if !r.cfg.trace {
		count = max(count, r.floor(0.99))
	}
	due := poissonSchedule(rng, mix.rate, count)
	reqs := r.plan(rng, count)

	var watch *serverWatch
	stopWatch := func() {}
	var stopSampler func()
	if r.cfg.trace {
		watch, stopWatch = watchServer(st)
		stopSampler = r.startPoolSampler()
		r.sampling.Store(true)
	}
	p0 := pool.Counters()
	a0 := totalAllocMB()
	tr := r.tr
	traced := func(i int) bool { return i%2 == 0 }
	open := runOpenLoop(due, conns, func(i int) (time.Time, bool) {
		var t *tracer
		if traced(i) {
			t = tr
		}
		return r.serveOnce(st, reqs[i], t, int64(i), sc)
	})
	r.attempted += count
	r.failed += count - countOK(open.samples)
	r.all = open.samples
	r.byClass = map[string][]sample{}
	for i, s := range open.samples {
		c := className(reqs[i].values)
		r.byClass[c] = append(r.byClass[c], s)
	}

	if r.cfg.trace {
		r.sampling.Store(false)
		stopSampler()
		stopWatch()
		r.loadMetrics(p0, open.samples, traced)
		r.layer["client.encode_ms"] = mean(sc.encode)
		r.layer["client.decode_ms"] = mean(sc.decode)
		r.layer["gen.late_ms_p99"] = open.lateP99()
		r.layer["gen.backlog_end"] = float64(open.backlogEnd)
		r.serverMetrics(watch)
		// The ladder replays the warm-up sample: one matrix per order.
		r.runLadder(st, warm, d-d/2)
		r.measureKernels(warm)
		return nil
	}

	// Phase 2: closed loop, one connection per CPU.
	p2 := d - p1
	reqs2 := r.plan(rng, 1<<16)
	var next atomic.Int64
	samples := make([][]sample, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < p2 {
				i := int(next.Add(1)-1) % len(reqs2)
				t0 := time.Now()
				end, ok := r.serveOnce(st, reqs2[i], nil, int64(count+i), nil)
				samples[c] = append(samples[c], sample{lat: end.Sub(t0), ok: ok})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var closed []sample
	for _, s := range samples {
		closed = append(closed, s...)
	}
	r.closed, r.closedWall = closed, wall
	r.attempted += len(closed)
	r.failed += len(closed) - countOK(closed)
	r.allocPerOp = (totalAllocMB() - a0) / float64(count+len(closed))
	return nil
}
