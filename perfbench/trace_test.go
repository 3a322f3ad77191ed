package main

import (
	"context"
	"testing"

	"deepsketch/internal/db"
	"deepsketch/internal/estimator"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10, 50): 40 of the root.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		// A child running past its parent's end counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130},
		// A grandchild is subtracted from its parent, not the root.
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 30 - 5, 3: 20, 4: 40, 5: 5}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
	st := summarize(spans)
	if st.self["root"] != 0.05 || st.total["root"] != 0.1 {
		t.Errorf("root self %v total %v µs, want 0.05 and 0.1", st.self["root"], st.total["root"])
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {6, 8}}, 4},
		{0, 10, [][2]int64{{6, 8}, {2, 7}}, 6},
		{0, 10, [][2]int64{{-5, 20}}, 10},
		{0, 10, [][2]int64{{12, 20}}, 0},
		{0, 10, [][2]int64{{1, 3}, {3, 5}}, 4},
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

// A batch that arrives without a parent span, as a coalescer's
// multi-request flush does, becomes a child of every waiting request it
// answers.
func TestTracedBatchAttribution(t *testing.T) {
	rec := newRecorder()
	d := smallIMDb()
	in, err := newInputs(feedbackHot, d, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	q1, q2 := in.queries[0], in.queries[1]
	inner := estimator.Func{EstimatorName: "x", Fn: func(db.Query) (float64, error) { return 1, nil }}
	view := &tracedEstimator{rec: rec, name: "view", inner: inner, attribute: true}
	rec.await(q1.Signature(), 101)
	rec.await(q2.Signature(), 102)
	if _, err := view.EstimateBatch(context.Background(), []db.Query{q1, q2}); err != nil {
		t.Fatal(err)
	}
	parents := map[int64]bool{}
	for _, s := range rec.spans {
		if s.Name == "view" {
			parents[s.Parent] = true
		}
	}
	if !parents[101] || !parents[102] || len(parents) != 2 {
		t.Errorf("batch attributed to %v, want requests 101 and 102", parents)
	}
	if len(rec.batches) != 1 || rec.batches[0] != 2 {
		t.Errorf("batch sizes %v, want [2]", rec.batches)
	}
	rec.unawait(q1.Signature(), 101)
	rec.unawait(q2.Signature(), 102)
	if len(rec.waiting) != 0 {
		t.Errorf("waiting table not emptied: %v", rec.waiting)
	}
}
