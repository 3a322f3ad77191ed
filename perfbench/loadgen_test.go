package main

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// A single worker that takes longer than the schedule's interval falls
// behind: each operation is sent later than the last, and its latency
// still counts from when it was due, so the wait behind the stall shows.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		rate    = 200.0 // one operation due every 5ms
		n       = 8
		service = 15 * time.Millisecond
	)
	outs := openLoop(context.Background(), rate, n, 1, func(context.Context, int) error {
		time.Sleep(service)
		return nil
	})
	if len(outs) != n {
		t.Fatalf("got %d outcomes, want %d", len(outs), n)
	}
	interval := time.Duration(float64(time.Second) / rate)
	for i, o := range outs {
		if o.latency < o.lateness+service {
			t.Errorf("op %d: latency %v shorter than lateness %v plus service %v", i, o.latency, o.lateness, service)
		}
		// Operation i cannot start before i services have run, and was due
		// i intervals after the start.
		if minLate := time.Duration(i) * (service - interval); o.lateness < minLate {
			t.Errorf("op %d: lateness %v, want at least %v", i, o.lateness, minLate)
		}
	}
	if outs[n-1].lateness <= outs[0].lateness {
		t.Errorf("generator did not report falling behind: first lateness %v, last %v", outs[0].lateness, outs[n-1].lateness)
	}
}

// With enough idle workers nothing is late and the schedule is kept.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	start := time.Now()
	outs := openLoop(context.Background(), 100, 10, 4, func(context.Context, int) error { return nil })
	if el := time.Since(start); el < 90*time.Millisecond {
		t.Errorf("10 operations at 100/s finished in %v, want about 90ms", el)
	}
	for i, o := range outs {
		if o.lateness > 20*time.Millisecond {
			t.Errorf("op %d late by %v on an idle generator", i, o.lateness)
		}
	}
}

func TestClosedLoopAndLimit(t *testing.T) {
	boom := errors.New("refused")
	outs := closedLoop(context.Background(), 30*time.Millisecond, 2, func(_ context.Context, i int) error {
		time.Sleep(time.Millisecond)
		if i%2 == 1 {
			return boom
		}
		return nil
	})
	if len(outs) < 10 {
		t.Fatalf("closed loop ran only %d operations", len(outs))
	}
	ok := withinLimit(outs, time.Second)
	failed := 0
	for _, o := range outs {
		if o.err != nil {
			failed++
		}
	}
	if ok+failed != len(outs) {
		t.Errorf("within limit %d + failed %d != %d: a failed operation must miss the limit", ok, failed, len(outs))
	}
	if withinLimit(outs, 0) != 0 {
		t.Errorf("no operation can finish within 0")
	}
}

func TestTailQuantileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: the input need not be sorted
		}
		return xs
	}
	cases := []struct {
		n             int
		q             float64
		want, wantRep float64
	}{
		{1000, 0.99, 990, 0.99}, // 10 samples above p99
		{500, 0.99, 490, 0.98},  // p99 would leave 5 above: lowered to p98
		{100, 0.5, 50, 0.5},
		{100, 0.95, 90, 0.90},
		{5, 0.99, 1, 0.2}, // fewer than 11 samples: the lowest
	}
	for _, c := range cases {
		got, rep := tailQuantile(seq(c.n), c.q)
		if got != c.want || math.Abs(rep-c.wantRep) > 1e-12 {
			t.Errorf("n=%d q=%v: got %v (reported q %v), want %v (q %v)", c.n, c.q, got, rep, c.want, c.wantRep)
		}
	}
	if v, _ := tailQuantile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("empty input gave %v, want NaN", v)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
}
