package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/workload"
)

// Workload names.
const (
	estimateCold = "estimate-cold"
	feedbackHot  = "feedback-hot"
	sketchBuild  = "sketch-build"
)

// Open-loop rates, fixed once and for all. They are a third or less of
// the lowest closed-loop capacity each workload reached when the
// benchmark was defined; README.md gives the measurements and why half
// the capacity was too close to it. Changing them changes what every
// earlier run measured.
const (
	estimateColdRate = 150.0
	feedbackHotRate  = 200.0
)

const (
	// cacheEntries is the daemon's per-sketch LRU estimate cache size.
	cacheEntries = 1024
	// coldQueries is the length of the cold query cycle: 8× the cache, so
	// no estimate in it is ever served from the cache.
	coldQueries = 8 * cacheEntries
	// hotQueries is the number of distinct hot queries; they fit the cache.
	hotQueries = 256
	// hotZipfS shapes hot-query popularity, P(k) ∝ (k+1)^-s: the plain
	// Zipf law with the zipfian constant YCSB uses by default (Cooper et
	// al., "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010).
	hotZipfS = 0.99
	// driftSampleEvery is the daemon's default -drift-sample: its drift
	// monitor grades every 10th estimate that misses the cache. Every
	// workload reports one actual per driftSampleEvery estimates, naming
	// a query the monitor sampled.
	driftSampleEvery = 10
	// clients is the number of distinct client IDs that report actuals.
	// The fastest the benchmark ever sends actuals is one operation in 11
	// at the highest closed-loop capacity measured (about 2900 ops/s), or
	// about 15 800 a minute; over 128 clients that is about 124 a minute
	// each, far below the daemon's default admission cap of 600.
	clients = 128
	// jobLightSets is how many seeded JOB-light sets (70 queries each)
	// sketch-build grades and times per round. Doubling them narrowed the
	// q-error p95's spread over 10 seeds (IQR/median) only from 0.11 to
	// 0.09, and added 5–8 s to a run.
	jobLightSets = 48
	// gradeQueries is the number of distinct queries a serving workload
	// grades: doubled from 4096, it narrowed the q-error p95's spread over
	// 10 seeds from 0.14 to 0.07.
	gradeQueries = 8192
	// hotOps is the length of the precomputed feedback-hot operation
	// sequence; the capacity phase cycles through it past the open loop.
	hotOps = 1 << 17
)

type opKind uint8

const (
	opEstimate opKind = iota
	opActual
)

// op is one request of a workload: an estimate of query q, or an actual
// (the true count of query q) reported by client.
type op struct {
	kind   opKind
	q      int32
	client int16
}

// inputs are everything a run sends to the daemon, generated from the
// seed before the daemon starts.
type inputs struct {
	d       *db.DB
	queries []db.Query
	sqls    []string
	// truth[i] is the exact count of queries[i], or -1 where the run
	// never needs it.
	truth []int64
	// ops is the open-loop schedule (the sequential admin-client requests
	// on sketch-build).
	ops []op
	// backlog and then warm are estimated one after another before timing
	// starts (feedback-hot). The backlog gives the drift monitor sampled
	// estimates for the open loop's actuals to resolve; warm fills the
	// cache with the hot set.
	backlog, warm []int
	// sampled lists, in order, the queries of backlog followed by warm
	// that the daemon's drift monitor samples: every driftSampleEvery-th.
	sampled []int
	// grade lists the queries whose served estimates the run grades for
	// q-error; those not served during the measured phases are estimated
	// after them.
	grade []int
	// capOp is operation i of the closed-loop capacity phase.
	capOp func(i int) op
}

// imdbConfig and tpchConfig are the daemon's default datasets.
func imdbConfig() datagen.IMDbConfig { return datagen.IMDbConfig{Seed: 1, Titles: 20000} }
func tpchConfig() datagen.TPCHConfig { return datagen.TPCHConfig{Seed: 1, Orders: 15000} }

// genQueries draws count distinct uniform queries (≤4 joins, ≤3
// predicates) over the whole schema. The run seed is mixed before it
// seeds the generator: the benchmark's sketches train on the generator's
// seed-7 stream, and a run with seed 7 would otherwise grade them on
// their own training queries.
func genQueries(d *db.DB, seed int64, count int) ([]db.Query, error) {
	g, err := workload.NewGenerator(d, workload.GenConfig{Seed: seed*1_000_003 + 101, Count: count, MaxJoins: 4, MaxPreds: 3, Dedup: true})
	if err != nil {
		return nil, err
	}
	qs := g.Generate()
	if len(qs) < count {
		return nil, fmt.Errorf("generated only %d distinct queries, need %d", len(qs), count)
	}
	return qs, nil
}

// withActuals turns a sequence of estimated queries into operations:
// after every driftSampleEvery-th estimate comes an actual for that
// estimate's query, the one the daemon's drift monitor samples when the
// estimates reach it in order.
func withActuals(rng *rand.Rand, estimates []int32) []op {
	var out []op
	for i, q := range estimates {
		out = append(out, op{kind: opEstimate, q: q})
		if i%driftSampleEvery == driftSampleEvery-1 {
			out = append(out, op{kind: opActual, q: q, client: int16(rng.Intn(clients))})
		}
	}
	return out
}

// newInputs generates the requests of one workload from seed. nOpen is
// the number of open-loop operations the run will send.
func newInputs(name string, d *db.DB, seed int64, nOpen int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{d: d}
	switch name {
	case estimateCold:
		cold, err := genQueries(d, seed, coldQueries)
		if err != nil {
			return nil, err
		}
		in.queries = cold
		// nOpen operations hold nEst estimates and an actual after every
		// driftSampleEvery-th of them.
		nEst := nOpen - nOpen/(driftSampleEvery+1)
		est := make([]int32, nEst)
		for i := range est {
			est[i] = int32(i % len(cold))
		}
		in.ops = withActuals(rng, est)[:nOpen]
		// The capacity phase continues the cycle where the open loop left
		// it, with estimates only: every one is still a cache miss.
		in.capOp = func(i int) op { return op{kind: opEstimate, q: int32((nEst + i) % len(cold))} }
		for i := 0; i < gradeQueries; i++ {
			in.grade = append(in.grade, i)
		}
	case sketchBuild:
		jl, err := jobLight(d, seed)
		if err != nil {
			return nil, err
		}
		in.queries = jl
		est := make([]int32, len(jl))
		for i := range jl {
			est[i] = int32(i)
			in.grade = append(in.grade, i)
		}
		in.ops = withActuals(rng, est)
		// The JOB-light queries outnumber the cache, so cycling through
		// them in order misses it on every estimate.
		in.capOp = func(i int) op { return op{kind: opEstimate, q: int32(i % len(jl))} }
	case feedbackHot:
		// Query k < hotQueries is the hot query of Zipf rank k. The
		// backlog follows: enough cold queries that the drift monitor
		// samples one for each actual of the open loop. All of the first
		// gradeQueries are graded.
		nActuals := nOpen / (driftSampleEvery + 1)
		nBacklog := driftSampleEvery * nActuals
		qs, err := genQueries(d, seed, max(gradeQueries, hotQueries+nBacklog))
		if err != nil {
			return nil, err
		}
		in.queries = qs
		for i := 0; i < hotQueries; i++ {
			in.warm = append(in.warm, i)
		}
		for i := hotQueries; i < hotQueries+nBacklog; i++ {
			in.backlog = append(in.backlog, i)
		}
		prime := in.prime(len(in.backlog))
		for i := driftSampleEvery - 1; i < len(prime); i += driftSampleEvery {
			in.sampled = append(in.sampled, prime[i])
		}
		zipf := newZipf(rng, hotZipfS, hotQueries)
		all := make([]op, hotOps)
		k := 0
		for i := range all {
			if i%(driftSampleEvery+1) == driftSampleEvery {
				all[i] = op{kind: opActual, q: int32(in.sampled[k%len(in.sampled)]), client: int16(rng.Intn(clients))}
				k++
			} else {
				all[i] = op{kind: opEstimate, q: int32(zipf.next())}
			}
		}
		if nOpen > hotOps/2 {
			return nil, fmt.Errorf("%d open-loop operations exceed the precomputed sequence", nOpen)
		}
		in.ops = all[:nOpen]
		rest := all[nOpen:]
		in.capOp = func(i int) op { return rest[i%len(rest)] }
		for i := 0; i < gradeQueries; i++ {
			in.grade = append(in.grade, i)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, estimateCold, feedbackHot, sketchBuild)
	}
	in.sqls = make([]string, len(in.queries))
	for i, q := range in.queries {
		in.sqls[i] = q.SQL(d)
	}
	in.truth = make([]int64, len(in.queries))
	for i := range in.truth {
		in.truth[i] = -1
	}
	return in, nil
}

// prime lists the queries estimated one after another before timing: the
// first n of the backlog, then the warm set.
func (in *inputs) prime(n int) []int {
	return append(append([]int(nil), in.backlog[:n]...), in.warm...)
}

// zipf draws ranks 0..n-1 with P(k) ∝ (k+1)^-s. Unlike math/rand's Zipf
// it allows s ≤ 1.
type zipf struct {
	rng *rand.Rand
	cdf []float64
}

func newZipf(rng *rand.Rand, s float64, n int) *zipf {
	z := &zipf{rng: rng, cdf: make([]float64, n)}
	sum := 0.0
	for k := range z.cdf {
		sum += math.Pow(float64(k+1), -s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) next() int {
	return min(sort.SearchFloat64s(z.cdf, z.rng.Float64()), len(z.cdf)-1)
}

// needTruth lists the queries whose exact counts the run needs: every
// query of the open-loop schedule, every graded one and every one the
// drift monitor samples (capacity-phase actuals name only those).
func (in *inputs) needTruth() []int {
	seen := map[int]bool{}
	var out []int
	add := func(q int) {
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	for _, o := range in.ops {
		add(int(o.q))
	}
	for _, q := range in.sampled {
		add(q)
	}
	for _, q := range in.grade {
		add(q)
	}
	return out
}

// computeTruths runs the exact executor on the needed queries with
// workers goroutines.
func (in *inputs) computeTruths(workers int) error {
	idx := in.needTruth()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(idx); k += workers {
				c, err := in.d.Count(in.queries[idx[k]])
				if err != nil {
					errs[w] = fmt.Errorf("exact count of %s: %w", in.sqls[idx[k]], err)
					return
				}
				in.truth[idx[k]] = c
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// jobLight draws jobLightSets seeded JOB-light query sets and keeps the
// distinct queries.
func jobLight(d *db.DB, seed int64) ([]db.Query, error) {
	seen := map[string]bool{}
	var out []db.Query
	for k := int64(0); k < jobLightSets; k++ {
		qs, err := workload.JOBLight(d, seed*jobLightSets+k)
		if err != nil {
			return nil, err
		}
		for _, q := range qs {
			if sig := q.Signature(); !seen[sig] {
				seen[sig] = true
				out = append(out, q)
			}
		}
	}
	return out, nil
}
