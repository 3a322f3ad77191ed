package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"deepsketch/internal/core"
	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/estimator"
	"deepsketch/internal/featurize"
	"deepsketch/internal/mscn"
	"deepsketch/internal/sample"
	"deepsketch/internal/trainmon"
	"deepsketch/internal/workload"
)

// replaySeconds caps the in-process replay of an open loop: the first
// replaySeconds of the schedule, at the same rate.
const replaySeconds = 4

// probeQueries caps the queries the model-path probe times.
const probeQueries = 512

// traceRun is the per-layer half of a traced run. The daemon phase has
// already run untraced; this replays its inputs in-process, without and
// with spans, checks that every replay answers exactly as the daemon did,
// times the sketch build pipeline stage by stage, and replaces the run's
// metrics with the per-layer ones.
func (r *runner) traceRun(ctx context.Context, sr *servedRun, cfg stackConfig, ops []op, rate float64, workers int) error {
	layers := map[string]metric{}
	set := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		layers[name] = metric{Value: v, Unit: unit}
	}
	d := sr.d
	set("datagen.imdb_ms", sr.imdbMS, "ms")
	t0 := time.Now()
	tp := datagen.TPCH(tpchConfig())
	set("datagen.tpch_ms", float64(time.Since(t0))/1e6, "ms")
	// The daemon's baselines: a HyPer-style sampler (1000 samples, seeded
	// by the dataset seed) and the PostgreSQL-style estimator, per dataset.
	t0 = time.Now()
	hyper, err := estimator.NewHyper(d, 1000, imdbConfig().Seed)
	if err != nil {
		return err
	}
	pg := estimator.NewPostgres(d, estimator.PostgresOptions{})
	if _, err := estimator.NewHyper(tp, 1000, tpchConfig().Seed); err != nil {
		return err
	}
	estimator.NewPostgres(tp, estimator.PostgresOptions{})
	set("estimator.baselines_ms", float64(time.Since(t0))/1e6, "ms")

	sk, _, err := checkServed(d, sr.blob, sr.parsed, nil)
	if err != nil {
		return err
	}
	set("core.sketch_bytes", float64(len(sr.blob)), "B")
	for _, stage := range []string{"generate", "execute", "featurize", "train"} {
		set("deepsketchd.stage_ms."+stage, sr.info.Progress.StageMS[stage], "ms")
	}
	// build_tpch_s is measured on sketch-build only and reads 0 elsewhere.
	for name, unit := range daemonExtras {
		set("deepsketchd."+name, r.all[name].Value, unit)
	}

	brec := newRecorder()
	if err := traceBuild(ctx, brec, d, sk); err != nil {
		return err
	}
	bl := summarize(brec.spans)
	set("workload.generate_ms", bl.total["workload.generate"]/1e3, "ms")
	set("workload.label_ms", bl.total["workload.label"]/1e3, "ms")
	set("sample.materialize_ms", bl.total["sample.materialize"]/1e3, "ms")
	set("featurize.encode_ms", bl.total["featurize.encode"]/1e3, "ms")
	set("mscn.epoch_ms", bl.total["mscn.epoch"]/1e3, "ms")
	set("mscn.train_ms", bl.total["mscn.train"]/1e3, "ms")
	set("core.refresh_ms", bl.total["core.refresh"]/1e3, "ms")

	// Three passes, untraced, traced, untraced: the tracing overhead is
	// the traced pass's process CPU time over the mean of the untraced
	// ones, which brackets it in time, so a slower or faster host moment
	// biases neither side. CPU time rather than latency, because the
	// host's CPU steal moves latency between passes by more than the
	// spans cost.
	var untracedCPU [2]float64
	var traced *replayResult
	var tracedCPU float64
	rec := newRecorder()
	for pass, name := range []string{"untraced-1", "traced", "untraced-2"} {
		pcfg := cfg
		if cfg.walDir != "" {
			pcfg.walDir = cfg.walDir + "-" + name
		}
		prec := rec
		if name != "traced" {
			prec = nil
		}
		cpu0 := processCPU()
		res, err := replay(ctx, prec, sr, sk, hyper, pg, pcfg, ops, rate, workers)
		if err != nil {
			return err
		}
		cpu := processCPU() - cpu0
		r.problem(compareAnswers(sr, res.answers, name)...)
		if prec != nil {
			traced, tracedCPU = res, cpu
		} else {
			untracedCPU[pass/2] = cpu
		}
	}
	if err := rec.write(filepath.Join(r.dir, "spans.jsonl")); err != nil {
		return err
	}
	if err := brec.write(filepath.Join(r.dir, "spans-build.jsonl")); err != nil {
		return err
	}

	l := traced.layers
	set("sqlparse.parse_us", l.self["sqlparse.parse"], "us")
	set("drift.observe_us", l.self["drift.observe"], "us")
	st := sr.stats
	set("serve.cache_hit_ratio", share(st.cacheHits, st.estimates), "ratio")
	set("serve.cache_self_us", l.self["serve.cache"], "us")
	set("serve.coalescer_batch_mean", traced.batchMean, "count")
	set("serve.coalescer_self_us", l.self["serve.coalescer"], "us")
	set("lifecycle.view_us", l.total["lifecycle.view"], "us")
	set("db.count_us", l.total["db.count"], "us")
	set("db.count_calls_per_request", share(st.overlays[0], st.estimates), "count")
	set("drift.truth_calls_per_request", traced.truthPer, "count")
	set("estimator.hyper_us", l.total["estimator.hyper"], "us")
	set("estimator.postgres_us", l.total["estimator.postgres"], "us")
	set("wal.admit_us", l.total["wal.admit"], "us")
	set("wal.admitted_share", traced.admitted, "ratio")
	set("drift.resolve_us", l.total["drift.resolve"], "us")
	set("drift.matched_share", share(st.matched, st.admitted), "ratio")
	set("wal.append_us", l.total["wal.append"], "us")
	set("wal.sync_us", traced.syncUS, "us")
	if ws := traced.walStats; ws.Appends > 0 {
		set("wal.syncs_per_append", float64(ws.Syncs)/float64(ws.Appends), "count")
		set("wal.bytes_per_record", float64(ws.Bytes)/float64(ws.Appends), "B")
	} else {
		set("wal.syncs_per_append", 0, "count")
		set("wal.bytes_per_record", 0, "B")
	}
	daemonP50, _ := tailQuantile(latenciesMS(sr.outs), 0.5)
	tracedP50, _ := tailQuantile(traced.latencies, 0.5)
	set("deepsketchd.residual_us", (daemonP50-tracedP50)*1e3, "us")
	set("trace.overhead_pct", (tracedCPU/((untracedCPU[0]+untracedCPU[1])/2)-1)*100, "%")
	set("loadgen.lateness_p99_ms", sr.lateP99, "ms")
	set("deepsketchd.failed_share", float64(r.res.Failed)/float64(max(r.res.Attempted, 1)), "ratio")

	var qs []db.Query
	for _, q := range estimateQueries(ops) {
		if len(qs) == probeQueries {
			break
		}
		qs = append(qs, sr.parsed[q])
	}
	p, err := probeModel(sk, qs)
	if err != nil {
		return err
	}
	set("sample.bitmaps_us", p.bitmapsUS, "us")
	set("featurize.encode_us", p.encodeUS, "us")
	set("featurize.allocs_per_query", p.encodeAllocs, "count")
	set("mscn.forward_us", p.forwardUS, "us")
	set("core.cardinality_us", p.cardinalityUS, "us")
	set("core.cardinality_allocs", p.cardinalityAllocs, "count")
	logf("traced replay of %d operations: daemon p50 %.3f ms, in-process p50 %.3f ms",
		len(ops), daemonP50, tracedP50)
	if len(layers) != len(perLayer) {
		return fmt.Errorf("traced run measured %d per-layer metrics, %d are declared", len(layers), len(perLayer))
	}
	for _, name := range perLayer {
		if _, ok := layers[name]; !ok {
			return fmt.Errorf("per-layer metric %s was not measured", name)
		}
	}
	r.res.Metrics = layers
	return nil
}

// share is n/of, or 0 when of is 0.
func share(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

func latenciesMS(outs []outcome) []float64 {
	out := make([]float64, len(outs))
	for i, o := range outs {
		out[i] = float64(o.latency) / float64(time.Millisecond)
	}
	return out
}

// processCPU is this process's user plus system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// compareAnswers checks that an in-process replay answered every query
// exactly as the daemon did.
func compareAnswers(sr *servedRun, answers map[string]float64, pass string) []string {
	idx := make(map[string]int32, len(sr.in.sqls))
	for i, sql := range sr.in.sqls {
		idx[sql] = int32(i)
	}
	var out []string
	for sql, got := range answers {
		want, ok := sr.s.served[idx[sql]]
		if !ok {
			continue // not estimated by the daemon phase
		}
		if math.Abs(got-want) > relTol*math.Max(math.Abs(want), 1) {
			out = append(out, fmt.Sprintf("%s replay answered %v, the daemon served %v, for %s", pass, got, want, sql))
		}
	}
	return out
}

// traceBuild runs the sketch creation pipeline of the daemon's -prebuilt
// imdb sketch in-process through each stage's public functions, with a
// span per stage and per training epoch, then refreshes the served sketch
// (sk) on the daemon's default delta workload.
func traceBuild(ctx context.Context, rec *recorder, d *db.DB, sk *core.Sketch) error {
	tables := d.TableNames()
	mcfg := mscn.DefaultConfig()
	mcfg.Epochs, mcfg.HiddenUnits, mcfg.Seed = sketchEpochs, sketchHidden, sketchSeed
	cfg := core.Config{
		Name: "traced-imdb", Tables: tables, SampleSize: sketchSamples, TrainQueries: sketchQueries,
		MaxJoins: 4, MaxPreds: 3, Seed: sketchSeed, Model: mcfg,
	}
	var qs []db.Query
	if err := rec.do(0, "workload.generate", func(int64) error {
		g, err := workload.NewGenerator(d, workload.GenConfig{Seed: cfg.Seed, Count: cfg.TrainQueries, Tables: tables,
			MaxJoins: cfg.MaxJoins, MaxPreds: cfg.MaxPreds, Dedup: true})
		if err != nil {
			return err
		}
		qs = g.Generate()
		return nil
	}); err != nil {
		return err
	}
	var labeled []workload.LabeledQuery
	if err := rec.do(0, "workload.label", func(int64) error {
		var err error
		labeled, err = workload.Label(d, qs, cfg.Workers, nil)
		return err
	}); err != nil {
		return err
	}
	var samples *sample.Set
	bitmaps := make([]map[string]sample.Bitmap, len(labeled))
	if err := rec.do(0, "sample.materialize", func(int64) error {
		var err error
		if samples, err = sample.New(d, tables, cfg.SampleSize, cfg.Seed); err != nil {
			return err
		}
		for i, lq := range labeled {
			if bitmaps[i], err = samples.Bitmaps(lq.Query); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var enc *featurize.Encoder
	examples := make([]mscn.Example, len(labeled))
	if err := rec.do(0, "featurize.encode", func(int64) error {
		var err error
		if enc, err = featurize.NewEncoder(d, tables, cfg.SampleSize); err != nil {
			return err
		}
		cards := make([]int64, len(labeled))
		for i, lq := range labeled {
			cards[i] = lq.Card
		}
		enc.FitLabels(cards)
		for i, lq := range labeled {
			e, err := enc.EncodeQuery(lq.Query, bitmaps[i])
			if err != nil {
				return err
			}
			examples[i] = mscn.Example{Enc: e, Card: lq.Card}
		}
		return nil
	}); err != nil {
		return err
	}
	td := &core.TrainingData{Cfg: cfg, Encoder: enc, Samples: samples, Examples: examples, Labeled: labeled, DBName: d.Name}
	if err := rec.do(0, "mscn.train", func(id int64) error {
		mon := trainmon.New()
		var mu sync.Mutex
		last := rec.now()
		mon.AddSink(func(ev trainmon.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.Kind {
			case trainmon.KindTrainStart:
				last = rec.now()
			case trainmon.KindEpoch:
				now := rec.now()
				rec.close(rec.next.Add(1), id, "mscn.epoch", last)
				last = now
			}
		})
		_, err := core.BuildFromData(td, mon)
		return err
	}); err != nil {
		return err
	}
	// The daemon's POST .../refresh default: 1000 fresh queries seeded by
	// the version history length (1 after the first build) plus one.
	g, err := workload.NewGenerator(d, workload.GenConfig{Seed: 2, Count: 1000, Tables: sk.Cfg.Tables,
		MaxJoins: sk.Cfg.MaxJoins, MaxPreds: sk.Cfg.MaxPreds, Dedup: true})
	if err != nil {
		return err
	}
	delta, err := workload.Label(d, g.Generate(), 0, nil)
	if err != nil {
		return err
	}
	return rec.do(0, "core.refresh", func(int64) error {
		_, err := core.Refresh(ctx, sk, delta, core.RefreshOptions{}, trainmon.New())
		return err
	})
}
