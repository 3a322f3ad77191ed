package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"deepsketch/internal/core"
	"deepsketch/internal/db"
	"deepsketch/internal/drift"
	"deepsketch/internal/estimator"
	"deepsketch/internal/lifecycle"
	"deepsketch/internal/sample"
	"deepsketch/internal/serve"
	"deepsketch/internal/sqlparse"
	"deepsketch/internal/wal"
)

// stack is an in-process copy of the daemon's serving path for one
// sketch, assembled from the same public constructors in the same order:
// cache → drift observe → clamp → coalescer → registry view, plus the
// estimate handler's overlays and the actuals handler's admission, drift
// resolve and WAL append. With a recorder, every layer boundary records a
// span.
type stack struct {
	rec   *recorder
	d     *db.DB
	name  string
	top   estimator.Estimator
	coal  *serve.Coalescer
	mon   *drift.Monitor
	admit *wal.Admitter
	log   *wal.Log
	hyper estimator.Estimator
	pg    estimator.Estimator

	stopMon context.CancelFunc
	monDone sync.WaitGroup

	mu         sync.Mutex
	answers    map[string]float64
	truthCalls int
	admitted   int
	actuals    int
	// walErr is the first failed journal append.
	walErr error
}

// stackConfig carries what differs between workloads: whether the drift
// monitor ground-truths with the exact executor (the daemon's
// -drift-truth) and where the WAL lives (the daemon's -wal; empty for
// none).
type stackConfig struct {
	truth  bool
	walDir string
}

func newStack(ctx context.Context, rec *recorder, d *db.DB, sk *core.Sketch, hyper, pg estimator.Estimator, cfg stackConfig) (*stack, error) {
	st := &stack{rec: rec, d: d, name: sk.Name(), hyper: hyper, pg: pg, answers: map[string]float64{}}
	reg := lifecycle.New()
	if _, err := reg.Publish(st.name, sk); err != nil {
		return nil, err
	}
	// The daemon's monitor settings without -drift: sample every 10th
	// estimate, 256-entry windows, thresholds off.
	dcfg := drift.Config{SampleEvery: 10, Window: 256, Cooldown: time.Minute}
	if cfg.walDir != "" {
		l, err := wal.Open(cfg.walDir, wal.Options{})
		if err != nil {
			return nil, err
		}
		st.log = l
		dcfg.Journal = &walJournal{st: st}
	}
	var truth estimator.Estimator
	if cfg.truth {
		truth = wrap(rec, "drift.truth", &countingTruth{st: st})
	}
	st.mon = drift.NewMonitor(dcfg, truth)
	monCtx, cancel := context.WithCancel(ctx)
	st.stopMon = cancel
	st.monDone.Add(1)
	go func() {
		defer st.monDone.Done()
		st.mon.Run(monCtx)
	}()
	st.admit = wal.NewAdmitter(wal.AdmitConfig{PerClientPerMin: 600})
	coalTarget := reg.Serving(st.name)
	if rec != nil {
		coalTarget = &tracedEstimator{rec: rec, name: "lifecycle.view", inner: coalTarget, attribute: true}
	}
	st.coal = serve.NewCoalescer(coalTarget, serve.CoalesceOptions{})
	var coal estimator.Estimator = st.coal
	if rec != nil {
		coal = &tracedEstimator{rec: rec, name: "serve.coalescer", inner: st.coal, register: true}
	}
	observed := drift.Observe(wrap(rec, "serve.clamp", serve.Clamp(coal, serve.MaxCardinality(d))), st.mon)
	cache := serve.NewCache(wrap(rec, "drift.observe", observed), cacheEntries).KeyFunc(reg.CacheKey(st.name))
	st.top = wrap(rec, "serve.cache", cache)
	return st, nil
}

// close stops the coalescer and the monitor and closes the WAL.
func (st *stack) close() error {
	st.coal.Close()
	st.stopMon()
	st.monDone.Wait()
	if st.log != nil {
		return st.log.Close()
	}
	return nil
}

// countingTruth is the monitor's exact-count ground truth, counted.
type countingTruth struct{ st *stack }

func (t *countingTruth) Name() string { return "True cardinality" }

func (t *countingTruth) Estimate(ctx context.Context, q db.Query) (estimator.Estimate, error) {
	t.st.mu.Lock()
	t.st.truthCalls++
	t.st.mu.Unlock()
	return (&estimator.Truth{DB: t.st.d}).Estimate(ctx, q)
}

func (t *countingTruth) EstimateBatch(ctx context.Context, qs []db.Query) ([]estimator.Estimate, error) {
	return estimator.SequentialBatch(ctx, t, qs)
}

// walJournal journals the monitor's transitions to the WAL as the
// daemon's does.
type walJournal struct{ st *stack }

func (j *walJournal) Pending(name string, version int, q db.Query, estimate float64) {
	j.append(wal.Record{Kind: wal.KindObservation, Name: name, Version: version,
		Signature: q.Signature(), SQL: q.SQL(j.st.d), Estimate: estimate})
}

func (j *walJournal) Resolved(name string, version int, q db.Query, estimate, actual float64) {
	j.append(wal.Record{Kind: wal.KindActual, Name: name, Version: version,
		Signature: q.Signature(), SQL: q.SQL(j.st.d), Estimate: estimate, Actual: actual})
}

func (j *walJournal) append(r wal.Record) {
	// A journal cannot return an error: the first one is kept and fails
	// the replay.
	if err := j.st.rec.do(0, "wal.append", func(int64) error { return j.st.log.Append(r) }); err != nil {
		j.st.mu.Lock()
		if j.st.walErr == nil {
			j.st.walErr = err
		}
		j.st.mu.Unlock()
	}
}

// estimate replays one POST /api/estimate: parse, the serving stack, then
// those of the exact, HyPer and PostgreSQL overlays that the daemon's
// response to the same query carried (overlays, a set of overlay bits).
func (st *stack) estimate(ctx context.Context, sql string, overlays uint8) error {
	return st.rec.do(0, "request", func(root int64) error {
		var q db.Query
		if err := st.rec.do(root, "sqlparse.parse", func(int64) error {
			res, err := sqlparse.Parse(st.d, sql)
			q = res.Query
			return err
		}); err != nil {
			return err
		}
		est, err := st.top.Estimate(withSpan(ctx, root), q)
		if err != nil {
			return err
		}
		if overlays&overlayTrue != 0 {
			if err := st.rec.do(root, "db.count", func(int64) error {
				_, err := st.d.Count(q)
				return err
			}); err != nil {
				return err
			}
		}
		if overlays&overlayHyper != 0 {
			if err := st.rec.do(root, "estimator.hyper", func(int64) error {
				_, err := st.hyper.Estimate(ctx, q)
				return err
			}); err != nil {
				return err
			}
		}
		if overlays&overlayPostgres != 0 {
			if err := st.rec.do(root, "estimator.postgres", func(int64) error {
				_, err := st.pg.Estimate(ctx, q)
				return err
			}); err != nil {
				return err
			}
		}
		st.mu.Lock()
		st.answers[sql] = est.Cardinality
		st.mu.Unlock()
		return nil
	})
}

// actual replays one POST /api/sketches/{id}/actuals: parse, admission,
// drift resolve, WAL append.
func (st *stack) actual(sql string, actual float64, client string) error {
	return st.rec.do(0, "request", func(root int64) error {
		var q db.Query
		if err := st.rec.do(root, "sqlparse.parse", func(int64) error {
			res, err := sqlparse.Parse(st.d, sql)
			q = res.Query
			return err
		}); err != nil {
			return err
		}
		var dec wal.Decision
		if err := st.rec.do(root, "wal.admit", func(int64) error {
			dec = st.admit.Admit(client, time.Now())
			return nil
		}); err != nil {
			return err
		}
		st.mu.Lock()
		st.actuals++
		if dec == wal.Admitted {
			st.admitted++
		}
		st.mu.Unlock()
		if dec != wal.Admitted {
			return fmt.Errorf("actual from %s not admitted (%v)", client, dec)
		}
		sig := q.Signature()
		var ver int
		var est float64
		if err := st.rec.do(root, "drift.resolve", func(int64) error {
			ver, est, _, _ = st.mon.ResolveActual(st.name, sig, actual)
			return nil
		}); err != nil {
			return err
		}
		if st.log == nil {
			return nil
		}
		return st.rec.do(root, "wal.append", func(int64) error {
			return st.log.Append(wal.Record{Kind: wal.KindActual, Name: st.name, Version: ver,
				Signature: sig, SQL: q.SQL(st.d), Estimate: est, Actual: actual, Client: client})
		})
	})
}

// replayResult is what one in-process replay measured.
type replayResult struct {
	latencies []float64 // ms, from each operation's due time
	layers    layerStats
	batchMean float64
	truthPer  float64
	admitted  float64
	walStats  wal.Stats
	syncUS    float64
	answers   map[string]float64
}

// replay runs ops of the daemon phase sr through a fresh in-process
// stack, at rate with workers concurrent requests (rate 0: one after
// another). Before the measurement it estimates, one after another, as
// much of the backlog as the drift monitor needs to sample the queries
// that the actuals in ops name, and then the warm set.
func replay(ctx context.Context, rec *recorder, sr *servedRun, sk *core.Sketch, hyper, pg estimator.Estimator, cfg stackConfig, ops []op, rate float64, workers int) (*replayResult, error) {
	in := sr.in
	st, err := newStack(ctx, rec, in.d, sk, hyper, pg, cfg)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			if err := st.close(); err != nil {
				logf("closing replay stack: %v", err)
			}
		}
	}()
	actuals := 0
	for _, o := range ops {
		if o.kind == opActual {
			actuals++
		}
	}
	for _, q := range in.prime(min(len(in.backlog), driftSampleEvery*actuals)) {
		if _, err := st.top.Estimate(ctx, sr.parsed[q]); err != nil {
			return nil, err
		}
	}
	rec.reset()
	st.mu.Lock()
	st.truthCalls, st.admitted, st.actuals = 0, 0, 0
	st.mu.Unlock()
	do := func(ctx context.Context, i int) error {
		o := ops[i]
		if o.kind == opActual {
			return st.actual(in.sqls[o.q], float64(in.truth[o.q]), clientID(o.client))
		}
		return st.estimate(ctx, in.sqls[o.q], sr.s.overlays[o.q])
	}
	var outs []outcome
	if rate > 0 {
		outs = openLoop(ctx, rate, len(ops), workers, do)
	} else {
		outs = parallel(ctx, len(ops), 1, do)
	}
	res := &replayResult{answers: st.answers}
	for _, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("in-process replay: %w", o.err)
		}
		res.latencies = append(res.latencies, float64(o.latency)/float64(time.Millisecond))
	}
	st.mu.Lock()
	estimates := 0
	for _, o := range ops {
		if o.kind == opEstimate {
			estimates++
		}
	}
	if estimates > 0 {
		res.truthPer = float64(st.truthCalls) / float64(estimates)
	}
	if st.actuals > 0 {
		res.admitted = float64(st.admitted) / float64(st.actuals)
	}
	walErr := st.walErr
	st.mu.Unlock()
	if walErr != nil {
		return nil, fmt.Errorf("in-process replay journal: %w", walErr)
	}
	if st.log != nil {
		res.walStats = st.log.Stats()
		if rec != nil {
			if res.syncUS, err = syncProbe(st.log, st.name); err != nil {
				return nil, err
			}
		}
	}
	closed = true
	if err := st.close(); err != nil {
		return nil, err
	}
	if rec != nil {
		rec.mu.Lock()
		if len(rec.batches) > 0 {
			total := 0
			for _, b := range rec.batches {
				total += b
			}
			res.batchMean = float64(total) / float64(len(rec.batches))
		}
		res.layers = summarize(rec.spans)
		rec.mu.Unlock()
	}
	return res, nil
}

// syncProbes is the number of single-record fsyncs the sync probe times.
const syncProbes = 32

// syncProbe times the fsync of one freshly appended record, syncProbes
// times, and returns the median in microseconds.
func syncProbe(l *wal.Log, name string) (float64, error) {
	var us []float64
	for i := 0; i < syncProbes; i++ {
		if err := l.Append(wal.Record{Kind: wal.KindActual, Name: name, Signature: "sync-probe", Actual: 1, Client: "sync-probe"}); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := l.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	return median(us), nil
}

// modelProbe times the sketch's estimation path layer by layer on each
// query, one call at a time: sample bitmaps, featurization, the MSCN
// forward pass, and Sketch.Cardinality as a whole; and counts heap
// allocations per call of featurization and of Cardinality.
type modelProbe struct {
	bitmapsUS, encodeUS, forwardUS, cardinalityUS float64
	encodeAllocs, cardinalityAllocs               float64
}

func probeModel(sk *core.Sketch, qs []db.Query) (modelProbe, error) {
	var p modelProbe
	if len(qs) == 0 {
		return p, nil
	}
	var bm, en, fw, ca []float64
	for _, q := range qs {
		t0 := time.Now()
		bms, err := sk.Samples.Bitmaps(q)
		if err != nil {
			return p, err
		}
		t1 := time.Now()
		enc, err := sk.Encoder.EncodeQuery(q, bms)
		if err != nil {
			return p, err
		}
		t2 := time.Now()
		if _, err := sk.Model.Engine().Predict(enc); err != nil {
			return p, err
		}
		t3 := time.Now()
		if _, err := sk.Cardinality(q); err != nil {
			return p, err
		}
		t4 := time.Now()
		bm = append(bm, float64(t1.Sub(t0))/1e3)
		en = append(en, float64(t2.Sub(t1))/1e3)
		fw = append(fw, float64(t3.Sub(t2))/1e3)
		ca = append(ca, float64(t4.Sub(t3))/1e3)
	}
	p.bitmapsUS, p.encodeUS, p.forwardUS, p.cardinalityUS = median(bm), median(en), median(fw), median(ca)
	bitmaps := make([]map[string]sample.Bitmap, len(qs))
	for i, q := range qs {
		bms, err := sk.Samples.Bitmaps(q)
		if err != nil {
			return p, err
		}
		bitmaps[i] = bms
	}
	p.encodeAllocs = allocsPer(len(qs), func(i int) { _, _ = sk.Encoder.EncodeQuery(qs[i], bitmaps[i]) })
	p.cardinalityAllocs = allocsPer(len(qs), func(i int) { _, _ = sk.Cardinality(qs[i]) })
	return p, nil
}

// allocsPer runs fn(0..n-1) and returns the heap allocations per call.
func allocsPer(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
