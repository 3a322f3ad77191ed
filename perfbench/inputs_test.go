package main

import (
	"reflect"
	"testing"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
)

func smallIMDb() *db.DB { return datagen.IMDb(datagen.IMDbConfig{Seed: 1, Titles: 2000}) }

// sample draws the first n capacity operations.
func capOps(in *inputs, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = in.capOp(i)
	}
	return out
}

func TestInputsSeedDeterministic(t *testing.T) {
	d := smallIMDb()
	for _, w := range []string{estimateCold, feedbackHot, sketchBuild} {
		a, err := newInputs(w, d, 3, 400)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b, err := newInputs(w, d, 3, 400)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !reflect.DeepEqual(a.sqls, b.sqls) || !reflect.DeepEqual(a.ops, b.ops) ||
			!reflect.DeepEqual(a.warm, b.warm) ||
			!reflect.DeepEqual(a.backlog, b.backlog) || !reflect.DeepEqual(a.sampled, b.sampled) || !reflect.DeepEqual(capOps(a, 300), capOps(b, 300)) {
			t.Errorf("%s: the same seed gave different inputs", w)
		}
		c, err := newInputs(w, d, 4, 400)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if reflect.DeepEqual(a.sqls, c.sqls) {
			t.Errorf("%s: seeds 3 and 4 gave the same queries", w)
		}
		if w != sketchBuild && reflect.DeepEqual(a.ops, c.ops) {
			t.Errorf("%s: seeds 3 and 4 gave the same operations", w)
		}
	}
}

// estimate-cold never estimates a query that can still be in the
// daemon's LRU cache: between two estimates of one query, more than
// cacheEntries other queries are estimated, through the open loop and on
// into the capacity phase.
func TestEstimateColdMissesTheCache(t *testing.T) {
	in, err := newInputs(estimateCold, smallIMDb(), 1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	seq := []int32{}
	for _, o := range in.ops {
		if o.kind == opEstimate {
			seq = append(seq, o.q)
		} else if o.q != seq[len(seq)-1] {
			t.Fatalf("actual for query %d does not follow its estimate", o.q)
		}
	}
	for _, o := range capOps(in, 3*coldQueries) {
		seq = append(seq, o.q)
	}
	last := map[int32]int{}
	for i, q := range seq {
		if j, ok := last[q]; ok && i-j <= cacheEntries {
			t.Fatalf("query %d estimated again after only %d others", q, i-j-1)
		}
		last[q] = i
	}
}

// feedback-hot reads are Zipf-skewed over a cache-sized query set; every
// actual names a backlog query the drift monitor sampled before timing,
// one per driftSampleEvery reads; actuals are spread over many clients.
func TestFeedbackHotMix(t *testing.T) {
	const nOpen = 40000
	in, err := newInputs(feedbackHot, smallIMDb(), 1, nOpen)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.warm) != hotQueries || len(in.grade) != gradeQueries {
		t.Fatalf("%d warmed, %d graded, want %d and %d", len(in.warm), len(in.grade), hotQueries, gradeQueries)
	}
	prime := in.prime(len(in.backlog))
	for k, q := range in.sampled {
		if prime[driftSampleEvery*k+driftSampleEvery-1] != q {
			t.Fatalf("sampled query %d is %d, not every %dth primed one", k, q, driftSampleEvery)
		}
	}
	backlog := map[int32]bool{}
	for _, q := range in.backlog {
		backlog[int32(q)] = true
	}
	reads := map[int32]int{}
	perClient := map[int16]int{}
	nReads, nActuals := 0, 0
	for _, o := range in.ops {
		if o.kind == opEstimate {
			if o.q >= hotQueries {
				t.Fatalf("read of query %d, outside the hot set", o.q)
			}
			reads[o.q]++
			nReads++
			continue
		}
		if o.q != int32(in.sampled[nActuals]) || !backlog[o.q] {
			t.Fatalf("actual %d names query %d, not the backlog's sampled %d", nActuals, o.q, in.sampled[nActuals])
		}
		perClient[o.client]++
		nActuals++
	}
	if nActuals != nOpen/(driftSampleEvery+1) {
		t.Errorf("%d reads and %d actuals", nReads, nActuals)
	}
	// P(0) = 1/H(256, 0.99) ≈ 0.16; the top quarter gets ≈ 0.76.
	head := 0
	for q := int32(0); q < hotQueries/4; q++ {
		head += reads[q]
	}
	if p0, ph := float64(reads[0])/float64(nReads), float64(head)/float64(nReads); p0 < 0.14 || p0 > 0.18 || ph < 0.72 || ph > 0.80 {
		t.Errorf("top query %.3f and top quarter %.3f of the reads; not Zipf(0.99)", p0, ph)
	}
	if len(perClient) < clients*9/10 {
		t.Errorf("actuals came from only %d clients", len(perClient))
	}
	for c, n := range perClient {
		if n > 3*nActuals/clients {
			t.Errorf("client %d reported %d of %d actuals", c, n, nActuals)
		}
	}
}

// estimate-cold and sketch-build report, after every driftSampleEvery-th
// estimate, the actual of the query just estimated.
func TestActualAfterEverySampledEstimate(t *testing.T) {
	for _, w := range []string{estimateCold, sketchBuild} {
		in, err := newInputs(w, smallIMDb(), 1, 2000)
		if err != nil {
			t.Fatal(err)
		}
		run := 0
		for i, o := range in.ops {
			if o.kind == opEstimate {
				run++
				continue
			}
			if run != driftSampleEvery || o.q != in.ops[i-1].q {
				t.Fatalf("%s: actual at %d after %d estimates, for query %d", w, i, run, o.q)
			}
			run = 0
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := newInputs("nope", smallIMDb(), 1, 10); err == nil {
		t.Fatal("an unknown workload was accepted")
	}
}
