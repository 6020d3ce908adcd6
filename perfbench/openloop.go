package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns count due times, as offsets from the start of the
// phase, of a Poisson arrival process at rate per second.
func poissonSchedule(rng *rand.Rand, rate float64, count int) []time.Duration {
	due := make([]time.Duration, count)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// openResult is the outcome of an open-loop phase.
type openResult struct {
	// samples[i] is request i timed from when it was due, not from when a
	// sender got to it, so a stall counts against every request behind it.
	samples []sample
	// late[i] is how long after its due time request i was sent: the load
	// generator's own lag.
	late []time.Duration
	// backlogEnd counts the requests, other than the last, still unfinished
	// when the last request fell due.
	backlogEnd int
	wall       time.Duration
}

// runOpenLoop sends the requests of a fixed schedule from at most senders
// goroutines. do(i) performs request i and returns when its answer arrived
// and whether it was right; do may check the answer after that instant. A
// request whose due time has passed is sent as soon as a sender is free.
func runOpenLoop(due []time.Duration, senders int, do func(i int) (time.Time, bool)) openResult {
	n := len(due)
	r := openResult{samples: make([]sample, n), late: make([]time.Duration, n)}
	doneAt := make([]time.Duration, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if d := due[i] - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				r.late[i] = time.Since(start) - due[i]
				end, ok := do(i)
				doneAt[i] = end.Sub(start)
				r.samples[i] = sample{lat: doneAt[i] - due[i], ok: ok}
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	if n > 0 {
		last := due[n-1]
		for i := 0; i < n-1; i++ {
			if doneAt[i] > last {
				r.backlogEnd++
			}
		}
	}
	return r
}

// lateP99 is the generator's p99 lag in milliseconds.
func (r openResult) lateP99() float64 {
	ms := make([]float64, len(r.late))
	for i, l := range r.late {
		ms[i] = math.Max(0, float64(l)/1e6)
	}
	v, _ := percentile(ms, 0.99)
	return v
}
