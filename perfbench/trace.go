package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepsketch/internal/db"
	"deepsketch/internal/estimator"
)

// span is one timed call into a layer. Spans of one request share a tree
// through parent; a root span has parent 0.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, so the untraced replay runs the same code
// minus the recording.
type recorder struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
	// waiting holds the open coalescer spans by query signature, so a
	// multi-request flush, which runs on the coalescer's own goroutine
	// without any caller's context, can be attributed to the requests it
	// answers.
	waiting map[string][]int64
	// batches records the size of every flush the coalescer made.
	batches []int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), waiting: map[string][]int64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// open starts a span: it returns the new span's id and start time.
func (r *recorder) open() (int64, int64) {
	if r == nil {
		return 0, 0
	}
	return r.next.Add(1), r.now()
}

// close ends the span opened as (id, start).
func (r *recorder) close(id, parent int64, name string, start int64) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	r.mu.Unlock()
}

// do runs fn inside a span named name under parent.
func (r *recorder) do(parent int64, name string, fn func(id int64) error) error {
	id, start := r.open()
	err := fn(id)
	r.close(id, parent, name, start)
	return err
}

func (r *recorder) await(sig string, id int64) {
	r.mu.Lock()
	r.waiting[sig] = append(r.waiting[sig], id)
	r.mu.Unlock()
}

func (r *recorder) unawait(sig string, id int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := r.waiting[sig]
	for i, w := range ids {
		if w == id {
			ids = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(r.waiting, sig)
	} else {
		r.waiting[sig] = ids
	}
}

// attribute records a flush that ran from start to now on behalf of the
// waiting requests for qs: each gets a child span covering the flush.
func (r *recorder) attribute(qs []db.Query, name string, start int64) {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.batches = append(r.batches, len(qs))
	used := map[string]int{}
	for _, q := range qs {
		sig := q.Signature()
		ids := r.waiting[sig]
		k := used[sig]
		used[sig]++
		if k >= len(ids) {
			continue
		}
		r.spans = append(r.spans, span{ID: r.next.Add(1), Parent: ids[k], Name: name, Start: start, End: end})
	}
}

func (r *recorder) noteBatch(n int) {
	r.mu.Lock()
	r.batches = append(r.batches, n)
	r.mu.Unlock()
}

// reset drops everything recorded so far (used after warming a cache).
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans, r.batches = nil, nil
	r.mu.Unlock()
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

func withSpan(ctx context.Context, id int64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

func spanOf(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are counted
// once; a child's time outside its parent's interval is not subtracted.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	for i, iv := range clipped {
		if i == 0 || iv[0] > curB {
			total += curB - curA
			curA, curB = iv[0], iv[1]
			continue
		}
		curB = max(curB, iv[1])
	}
	return total + curB - curA
}

// layerStats are the per-name medians of a span set, in microseconds.
type layerStats struct {
	self  map[string]float64
	total map[string]float64
}

func summarize(spans []span) layerStats {
	self := selfTimes(spans)
	selfBy, totBy := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		selfBy[s.Name] = append(selfBy[s.Name], float64(self[s.ID])/1e3)
		totBy[s.Name] = append(totBy[s.Name], float64(s.dur())/1e3)
	}
	st := layerStats{self: map[string]float64{}, total: map[string]float64{}}
	for name, xs := range selfBy {
		st.self[name] = median(xs)
		st.total[name] = median(totBy[name])
	}
	return st
}

// tracedEstimator records a span around every call into inner. With
// register set it publishes its open spans by query signature (the
// coalescer's callers); with attribute set, a batch call that arrives
// without a parent span (the coalescer's multi-request flush) is
// attributed to those waiting callers.
type tracedEstimator struct {
	rec       *recorder
	name      string
	inner     estimator.Estimator
	register  bool
	attribute bool
}

// wrap interposes a span-recording layer, or returns e itself when there
// is no recorder.
func wrap(rec *recorder, name string, e estimator.Estimator) estimator.Estimator {
	if rec == nil {
		return e
	}
	return &tracedEstimator{rec: rec, name: name, inner: e}
}

func (t *tracedEstimator) Name() string { return t.inner.Name() }

func (t *tracedEstimator) Estimate(ctx context.Context, q db.Query) (estimator.Estimate, error) {
	parent := spanOf(ctx)
	id, start := t.rec.open()
	if t.register {
		sig := q.Signature()
		t.rec.await(sig, id)
		defer t.rec.unawait(sig, id)
	}
	if t.attribute {
		t.rec.noteBatch(1)
	}
	est, err := t.inner.Estimate(withSpan(ctx, id), q)
	t.rec.close(id, parent, t.name, start)
	return est, err
}

func (t *tracedEstimator) EstimateBatch(ctx context.Context, qs []db.Query) ([]estimator.Estimate, error) {
	parent := spanOf(ctx)
	id, start := t.rec.open()
	ests, err := t.inner.EstimateBatch(withSpan(ctx, id), qs)
	if parent == 0 && t.attribute {
		t.rec.attribute(qs, t.name, start)
		return ests, err
	}
	if t.attribute {
		t.rec.noteBatch(len(qs))
	}
	t.rec.close(id, parent, t.name, start)
	return ests, err
}
