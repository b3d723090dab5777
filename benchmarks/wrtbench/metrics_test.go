package main

import (
	"context"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentileAndSampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (nearest rank)", got)
	}
	if got := percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{1000, 0.99, 10}, // the smallest sample a p99 is valid on
		{999, 0.99, 9},
		{100, 0.90, 10},
		{110, 0.90, 11},
		{1, 0.99, 0},
		{0, 0.99, 0},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	if percentile(nil, 0.99) != 0 || percentile([]float64{7}, 0.99) != 7 {
		t.Error("percentile of an empty or single sample")
	}
	// The tail percentile is fixed per workload: p90 where a run yields a
	// hundred or two ops or where host stalls set the distribution above it
	// (hits-hot), p99 where it yields thousands.
	for _, w := range workloads {
		if !slices.Contains([]float64{0.90, 0.99}, w.tail) {
			t.Errorf("%s: tail percentile %v, want 0.90 or 0.99", w.name, w.tail)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{0.8127, 0.9, 1.1, 0.95, 1.0, 0.85, 0.99, 1.02, 0.97, 0.93}, [3]float64{0.8875, 0.96, 1.005}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.xs, i, got, c.want[i])
			}
		}
	}
}

// TestOpenLoopChargesStalls pins due-time latency accounting: a sender that
// stalls sends its later requests late, and each of them is charged the
// wait from its due time. A closed-loop caller, by contrast, charges the
// stall to the stalled op alone.
func TestOpenLoopChargesStalls(t *testing.T) {
	stallFirst := func() func(context.Context, input) opResult {
		var calls atomic.Int32
		return func(context.Context, input) opResult {
			if calls.Add(1) == 1 {
				time.Sleep(30 * time.Millisecond)
			}
			return opResult{runs: 1}
		}
	}
	next := func(int) input { return input{} }

	open := &tally{}
	runRound(context.Background(), loop{clients: 1, rate: 1000}, time.Now().Add(40*time.Millisecond), next, stallFirst(), open)
	if open.ops < 30 {
		t.Fatalf("open loop sent %d requests in 40 ms at 1000/s, want every due one (~40)", open.ops)
	}
	if open.lat[1] < 25 || open.lag[1] < 25 {
		t.Errorf("request due at 1 ms, sent after a 30 ms stall: latency %.2f ms, lag %.2f ms; want both >= 25",
			open.lat[1], open.lag[1])
	}
	if open.lat[0] < 30 {
		t.Errorf("stalled request latency %.2f ms, want >= 30", open.lat[0])
	}

	closed := &tally{}
	runRound(context.Background(), loop{clients: 1}, time.Now().Add(40*time.Millisecond), next, stallFirst(), closed)
	if closed.ops < 2 || closed.lat[0] < 30 || closed.lat[1] > 10 || closed.lag[1] > 10 {
		t.Errorf("closed loop: ops %d, latencies %.2f/%.2f ms, lag %.2f ms; want the stall charged to the first op only",
			closed.ops, closed.lat[0], closed.lat[1], closed.lag[1])
	}

	// Falling 30 ms behind the schedule makes the open-loop run invalid; a
	// closed loop has no schedule to fall behind.
	if openLoopInvalid(loop{clients: 1, rate: 1000}, open.lag) == "" {
		t.Error("open loop that fell 30 ms behind its schedule is not marked invalid")
	}
	if got := openLoopInvalid(loop{clients: 1, rate: 1000}, []float64{0.1, 0.2, 9.9}); got != "" {
		t.Errorf("open loop within %d ms of its schedule marked invalid: %s", maxLagMs, got)
	}
	if got := openLoopInvalid(loop{clients: 1}, closed.lag); got != "" {
		t.Errorf("closed loop marked invalid: %s", got)
	}
}
