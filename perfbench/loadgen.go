package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one operation as the load generator saw it.
type outcome struct {
	// latency runs from when the operation was due (open loop) or sent
	// (closed loop) until its response was read.
	latency time.Duration
	// lateness is how long after its due time the generator sent it.
	lateness time.Duration
	// done is when the operation completed, from the start of its phase
	// (closed loop only).
	done time.Duration
	err  error
}

// openLoop sends n operations on a fixed schedule: operation i is due at
// start + i/rate, whatever happened to earlier ones. At most workers
// operations are in flight; an operation whose worker is still busy when
// it falls due is sent late, and its latency still counts from the due
// time, so a stall is charged to every request queued behind it. do
// receives the operation index.
func openLoop(ctx context.Context, rate float64, n, workers int, do func(ctx context.Context, i int) error) []outcome {
	out := make([]outcome, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				err := do(ctx, i)
				out[i] = outcome{latency: time.Since(due), lateness: sent.Sub(due), err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps workers operations in flight for dur: each worker sends
// its next operation as soon as the previous one answers. Operation
// indices are handed out in order from 0. It returns every outcome, in
// completion order, with latency timed from the send.
func closedLoop(ctx context.Context, dur time.Duration, workers int, do func(ctx context.Context, i int) error) []outcome {
	start := time.Now()
	deadline := start.Add(dur)
	var next atomic.Int64
	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []outcome
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				sent := time.Now()
				err := do(ctx, i)
				now := time.Now()
				local = append(local, outcome{latency: now.Sub(sent), done: now.Sub(start), err: err})
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// parallel runs operations 0..n-1 on workers goroutines as fast as they
// go, each timed from its send.
func parallel(ctx context.Context, n, workers int, do func(ctx context.Context, i int) error) []outcome {
	out := make([]outcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				sent := time.Now()
				err := do(ctx, i)
				out[i] = outcome{latency: time.Since(sent), err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// withinLimit counts the outcomes that succeeded within limit; a failed
// operation misses the limit whatever its latency.
func withinLimit(outs []outcome, limit time.Duration) int {
	n := 0
	for _, o := range outs {
		if o.err == nil && o.latency <= limit {
			n++
		}
	}
	return n
}

// capacity is the closed-loop throughput within limit: the operations
// that succeeded within limit in each whole second of the phase, median
// over the seconds, so a stall of the host in one second moves it less
// than a mean would.
func capacity(outs []outcome, dur, limit time.Duration) float64 {
	windows := int(dur / time.Second)
	if windows < 1 {
		return float64(withinLimit(outs, limit)) / dur.Seconds()
	}
	counts := make([]float64, windows)
	for _, o := range outs {
		if w := int(o.done / time.Second); w < windows && o.err == nil && o.latency <= limit {
			counts[w]++
		}
	}
	return median(counts)
}

// minTail is the fewest samples a reported percentile must leave above it.
const minTail = 10

// tailQuantile returns the nearest-rank q-quantile of xs, lowered where
// needed to the highest rank that still leaves minTail samples above it,
// and the quantile actually reported. xs need not be sorted; it is not
// modified. An empty input gives NaN.
func tailQuantile(xs []float64, q float64) (value, reported float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	if hi := n - 1 - minTail; idx > hi {
		idx = hi
	}
	if idx < 0 {
		idx = 0
	}
	return s[idx], float64(idx+1) / float64(n)
}

// median is the middle value of xs (the mean of the two middle values for
// an even count), NaN for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
