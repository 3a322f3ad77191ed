package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"deepsketch/internal/datagen"
	"deepsketch/internal/db"
	"deepsketch/internal/wal"
)

// capacityDur is the length of the closed-loop capacity phase. Only
// traced runs measure capacity (as deepsketchd.capacity_rps); the
// measured seconds of every run are its open loop or build rounds.
func (r *runner) capacityDur() time.Duration {
	return time.Duration(r.o.seconds) * time.Second / 3
}

// servedRun is what the daemon phase of a run hands to the traced
// replay.
type servedRun struct {
	d       *db.DB
	imdbMS  float64
	in      *inputs
	parsed  []db.Query
	s       *session
	blob    []byte
	info    sketchInfo
	outs    []outcome
	lateP99 float64
	// stats are the daemon's responses to the measured operations: the
	// open loop, or sketch-build's first round.
	stats serveStats
}

// serving runs estimate-cold or feedback-hot: build the imdb sketch, send
// the open loop (traced runs add the capacity phase), grade, check every
// served estimate against the downloaded sketch, refresh, and
// (feedback-hot) check the WAL.
func (r *runner) serving(ctx context.Context) error {
	rate := estimateColdRate
	cfg := stackConfig{truth: true}
	if r.o.workload == feedbackHot {
		rate = feedbackHotRate
	}
	nOpen := int(rate * float64(r.o.seconds))
	t0 := time.Now()
	d := datagen.IMDb(imdbConfig())
	sr := &servedRun{d: d, imdbMS: float64(time.Since(t0)) / 1e6}
	in, err := newInputs(r.o.workload, d, r.o.seed, nOpen)
	if err != nil {
		return err
	}
	if err := in.computeTruths(r.conns); err != nil {
		return err
	}
	parsed, err := parseAll(d, in.sqls)
	if err != nil {
		return err
	}
	sr.in, sr.parsed = in, parsed

	dm, launch, err := r.setup(ctx)
	if err != nil {
		return err
	}
	running := true
	defer func() {
		if running {
			if err := dm.stop(); err != nil {
				logf("stopping deepsketchd: %v", err)
			}
		}
	}()
	id, build, info, err := dm.buildSketch(ctx, "bench-imdb", "imdb")
	if err != nil {
		return err
	}
	r.set("build_imdb_s", build.wall, "s")
	r.set("build_imdb_cpu_s", build.cpu, "s")
	sr.info = info
	s := newSession(in, dm, id)
	sr.s = s
	// One after another, so the drift monitor sees them in order and
	// samples exactly in.sampled.
	for _, q := range in.prime(len(in.backlog)) {
		if err := s.do(ctx, op{kind: opEstimate, q: int32(q)}); err != nil {
			return fmt.Errorf("estimating the backlog and warming the cache: %w", err)
		}
	}
	s.takeStats()
	var outs []outcome
	loop, err := dm.timeAdmin(func() error {
		outs = openLoop(ctx, rate, nOpen, r.conns, func(ctx context.Context, i int) error { return s.do(ctx, in.ops[i]) })
		return nil
	})
	if err != nil {
		return err
	}
	r.set("cpu_us_per_op", loop.cpu/float64(nOpen)*1e6, "us")
	r.count(outs)
	sr.outs, sr.stats = outs, s.takeStats()
	est, act, late := splitLatencies(in.ops, outs)
	r.setLatency("estimate", est)
	r.setLatency("actuals", act)
	sr.lateP99, _ = tailQuantile(late, 0.99)
	logf("open loop: %d operations at %.0f/s, generator lateness p99 %.3f ms", len(outs), rate, sr.lateP99)
	logStats(sr.stats)
	if r.o.trace {
		r.capacityPhase(ctx, s)
	}
	r.gradePass(ctx, s)
	blob, err := dm.download(ctx, id)
	if err != nil {
		return err
	}
	sr.blob = blob
	_, probs, err := checkServed(d, blob, parsed, s.served)
	if err != nil {
		return err
	}
	r.problem(probs...)
	r.problem(s.problems...)
	logf("checked %d distinct served estimates against the downloaded sketch", len(s.served))
	refresh, err := dm.refreshSketch(ctx, id, info.Version)
	if err != nil {
		return err
	}
	r.set("refresh_s", refresh.wall, "s")
	r.set("refresh_cpu_s", refresh.cpu, "s")
	rss, err := dm.peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss, "MiB")
	running = false
	if err := dm.stop(); err != nil {
		return fmt.Errorf("deepsketchd did not shut down cleanly: %w", err)
	}
	if r.o.workload == feedbackHot {
		cfg = stackConfig{walDir: filepath.Join(r.dir, "replay-wal")}
		probs, err := checkWAL(filepath.Join(r.walDir(launch), "imdb"), in, parsed, s.admitted)
		if err != nil {
			return err
		}
		r.problem(probs...)
	}
	r.setQError(qerrors(in, s.served))
	if r.o.trace {
		return r.traceRun(ctx, sr, cfg, in.ops[:min(len(in.ops), int(rate*replaySeconds))], rate, r.conns)
	}
	return nil
}

// logStats logs what the daemon's responses said about the measured
// operations.
func logStats(st serveStats) {
	logf("daemon: %d of %d estimates were cache hits, %d/%d/%d carried the exact/HyPer/PostgreSQL overlays; %d of %d admitted actuals matched a sampled estimate",
		st.cacheHits, st.estimates, st.overlays[0], st.overlays[1], st.overlays[2], st.matched, st.admitted)
}

// capacityPhase runs the closed loop with nproc connections and reports
// capacity_rps.
func (r *runner) capacityPhase(ctx context.Context, s *session) {
	dur := r.capacityDur()
	outs := closedLoop(ctx, dur, r.conns, func(ctx context.Context, i int) error { return s.do(ctx, s.in.capOp(i)) })
	r.count(outs)
	r.set("capacity_rps", capacity(outs, dur, latencyLimit), "1/s")
	logf("capacity: %d operations in %v, %d within %v", len(outs), dur, withinLimit(outs, latencyLimit), latencyLimit)
}

// minBuildRounds is the fewest build rounds a sketch-build run makes, so
// each build time it reports is a median.
const minBuildRounds = 2

// sketchBuild runs the admin workload: rounds of imdb build, JOB-light
// estimates and actuals on the new sketch and imdb refresh, until the
// measured seconds are spent. A traced run makes one round, with a tpch
// build, and then a capacity phase on the refreshed sketch.
func (r *runner) sketchBuild(ctx context.Context) error {
	t0 := time.Now()
	d := datagen.IMDb(imdbConfig())
	sr := &servedRun{d: d, imdbMS: float64(time.Since(t0)) / 1e6}
	in, err := newInputs(sketchBuild, d, r.o.seed, 0)
	if err != nil {
		return err
	}
	if err := in.computeTruths(r.conns); err != nil {
		return err
	}
	parsed, err := parseAll(d, in.sqls)
	if err != nil {
		return err
	}
	sr.in, sr.parsed = in, parsed

	dm, _, err := r.setup(ctx)
	if err != nil {
		return err
	}
	running := true
	defer func() {
		if running {
			if err := dm.stop(); err != nil {
				logf("stopping deepsketchd: %v", err)
			}
		}
	}()
	start := time.Now()
	var imdbS, imdbC, tpchS, refreshS, refreshC, estL, actL []float64
	opsCPU := 0.0
	lastID := 0
	for round := 1; ; round++ {
		id, b, info, err := dm.buildSketch(ctx, fmt.Sprintf("bench-imdb-%d", round), "imdb")
		if err != nil {
			return err
		}
		imdbS, imdbC = append(imdbS, b.wall), append(imdbC, b.cpu)
		s := newSession(in, dm, id)
		var outs []outcome
		ops, err := dm.timeAdmin(func() error {
			outs = parallel(ctx, len(in.ops), 1, func(ctx context.Context, i int) error { return s.do(ctx, in.ops[i]) })
			return nil
		})
		if err != nil {
			return err
		}
		opsCPU += ops.cpu
		r.count(outs)
		e, a, _ := splitLatencies(in.ops, outs)
		estL, actL = append(estL, e...), append(actL, a...)
		blob, err := dm.download(ctx, id)
		if err != nil {
			return err
		}
		_, probs, err := checkServed(d, blob, parsed, s.served)
		if err != nil {
			return err
		}
		r.problem(probs...)
		r.problem(s.problems...)
		if round == 1 {
			sr.s, sr.blob, sr.info, sr.outs, sr.stats = s, blob, info, outs, s.takeStats()
			logStats(sr.stats)
		}
		// The tpch build is reported per layer only, so untraced runs,
		// whose time budget the imdb rounds need, skip it.
		if r.o.trace {
			_, bt, _, err := dm.buildSketch(ctx, fmt.Sprintf("bench-tpch-%d", round), "tpch")
			if err != nil {
				return err
			}
			tpchS = append(tpchS, bt.wall)
		}
		rs, err := dm.refreshSketch(ctx, id, info.Version)
		if err != nil {
			return err
		}
		refreshS, refreshC = append(refreshS, rs.wall), append(refreshC, rs.cpu)
		lastID = id
		logf("round %d: imdb build %.2fs (%.2f cpu-s), refresh %.2fs (%.2f cpu-s)", round, b.wall, b.cpu, rs.wall, rs.cpu)
		if r.o.trace || (round >= minBuildRounds && time.Since(start) >= time.Duration(r.o.seconds)*time.Second) {
			break
		}
	}
	r.set("cpu_us_per_op", opsCPU/float64(len(estL)+len(actL))*1e6, "us")
	r.set("build_imdb_s", median(imdbS), "s")
	r.set("build_imdb_cpu_s", median(imdbC), "s")
	r.set("refresh_s", median(refreshS), "s")
	r.set("refresh_cpu_s", median(refreshC), "s")
	if len(tpchS) > 0 {
		r.set("build_tpch_s", median(tpchS), "s")
	}
	r.setLatency("estimate", estL)
	r.setLatency("actuals", actL)
	if r.o.trace {
		s := newSession(in, dm, lastID)
		r.capacityPhase(ctx, s)
		blob, err := dm.download(ctx, lastID)
		if err != nil {
			return err
		}
		_, probs, err := checkServed(d, blob, parsed, s.served)
		if err != nil {
			return err
		}
		r.problem(probs...)
		r.problem(s.problems...)
	}
	rss, err := dm.peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss, "MiB")
	running = false
	if err := dm.stop(); err != nil {
		return fmt.Errorf("deepsketchd did not shut down cleanly: %w", err)
	}
	r.setQError(qerrors(in, sr.s.served))
	if r.o.trace {
		return r.traceRun(ctx, sr, stackConfig{truth: true}, in.ops, 0, 1)
	}
	return nil
}

// checkWAL replays the daemon's WAL directory from outside, after the
// daemon has shut down, and reports every admitted actual that is not in
// it.
func checkWAL(dir string, in *inputs, parsed []db.Query, admitted []op) ([]string, error) {
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, fmt.Errorf("opening the daemon's WAL: %w", err)
	}
	type key struct {
		client, sig string
		actual      float64
	}
	have := map[key]int{}
	rerr := l.Replay(func(rec wal.Record) {
		if rec.Kind == wal.KindActual && rec.Client != "" {
			have[key{rec.Client, rec.Signature, rec.Actual}]++
		}
	})
	cerr := l.Close()
	if rerr != nil {
		return nil, fmt.Errorf("replaying the daemon's WAL: %w", rerr)
	}
	if cerr != nil {
		return nil, fmt.Errorf("closing the daemon's WAL: %w", cerr)
	}
	missing := 0
	for _, o := range admitted {
		k := key{clientID(o.client), parsed[o.q].Signature(), float64(in.truth[o.q])}
		if have[k] > 0 {
			have[k]--
			continue
		}
		missing++
	}
	logf("wal: %d admitted actuals, %d missing after replay", len(admitted), missing)
	if missing > 0 {
		return []string{fmt.Sprintf("%d of %d admitted actuals are missing from the WAL", missing, len(admitted))}, nil
	}
	return nil, nil
}
