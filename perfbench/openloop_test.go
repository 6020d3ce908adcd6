package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestPoissonScheduleRate(t *testing.T) {
	due := poissonSchedule(rand.New(rand.NewSource(1)), 100, 5000)
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatalf("due times not ascending at %d", i)
		}
	}
	// 5000 arrivals at 100/s span about 50 s.
	if span := due[len(due)-1]; span < 45*time.Second || span > 55*time.Second {
		t.Fatalf("5000 arrivals at 100/s span %v", span)
	}
	again := poissonSchedule(rand.New(rand.NewSource(1)), 100, 5000)
	if again[4999] != due[4999] {
		t.Fatal("same seed gave a different schedule")
	}
}

// A sender that cannot keep up makes later requests wait; their latency is
// measured from their due time, so it includes that wait.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const n = 12
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	service := 5 * time.Millisecond
	r := runOpenLoop(due, 1, func(int) (time.Time, bool) { time.Sleep(service); return time.Now(), true })
	for i, s := range r.samples {
		if !s.ok {
			t.Fatalf("request %d not ok", i)
		}
		if s.lat < r.late[i]+service {
			t.Fatalf("request %d: latency %v < lateness %v + service %v", i, s.lat, r.late[i], service)
		}
	}
	// Request i cannot start before i services have finished.
	for i := 1; i < n; i++ {
		if min := time.Duration(i)*service - due[i]; r.late[i] < min {
			t.Fatalf("request %d sent %v late, want >= %v", i, r.late[i], min)
		}
	}
	if r.samples[n-1].lat < time.Duration(n)*service-due[n-1] {
		t.Fatalf("last latency %v does not include the queueing behind earlier requests", r.samples[n-1].lat)
	}
	if r.backlogEnd == 0 {
		t.Fatal("an overloaded open loop ended with no backlog")
	}
}

func TestOpenLoopKeepsUp(t *testing.T) {
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * 20 * time.Millisecond
	}
	r := runOpenLoop(due, 2, func(int) (time.Time, bool) { return time.Now(), true })
	if r.backlogEnd != 0 {
		t.Fatalf("backlog %d with instant service", r.backlogEnd)
	}
	if r.lateP99() > 15 {
		t.Fatalf("generator p99 lag %.1f ms with idle senders", r.lateP99())
	}
	for i, s := range r.samples {
		if s.lat < 0 {
			t.Fatalf("request %d finished before it was due", i)
		}
	}
}

// Work done after the answer arrived, such as checking it, is not latency.
func TestOpenLoopExcludesChecking(t *testing.T) {
	due := []time.Duration{0}
	r := runOpenLoop(due, 1, func(int) (time.Time, bool) {
		end := time.Now()
		time.Sleep(20 * time.Millisecond)
		return end, true
	})
	if r.samples[0].lat >= 20*time.Millisecond {
		t.Fatalf("latency %v includes the 20ms check", r.samples[0].lat)
	}
}

func TestOpenLoopFailedRequest(t *testing.T) {
	due := []time.Duration{0, time.Millisecond}
	r := runOpenLoop(due, 1, func(i int) (time.Time, bool) { return time.Now(), i == 0 })
	if !r.samples[0].ok || r.samples[1].ok {
		t.Fatalf("ok flags = %v, %v", r.samples[0].ok, r.samples[1].ok)
	}
}
