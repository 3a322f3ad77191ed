package deepsketch_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"deepsketch/internal/mscn"
	"deepsketch/internal/wal"
)

// TestPerfTrajectory emits the perf-trajectory artifact: one JSON file of
// headline numbers (estimate latency, training epoch time, WAL append
// throughput) that CI uploads from every run, so performance history is a
// downloadable series instead of something to dig out of benchmark logs.
// Gated by DEEPSKETCH_BENCH_JSON (the output path, e.g.
// BENCH_deepsketch.json); without it the test skips. The numbers are
// measured wall-clock on whatever machine runs the suite — they are a
// trajectory, not a gate: comparisons are only meaningful between runs on
// the same runner class.
func TestPerfTrajectory(t *testing.T) {
	out := os.Getenv("DEEPSKETCH_BENCH_JSON")
	if out == "" {
		t.Skip("set DEEPSKETCH_BENCH_JSON=<path> to emit the perf-trajectory artifact")
	}
	f := fixtureB(t)

	// Estimate latency: single ad-hoc estimates cycling JOB-light, so
	// caching cannot flatter the number (mirrors BenchmarkEstimateLatency).
	// A warm-up pass first builds the lazy engine and fills its scratch pool.
	const estimates = 2000
	sk := f.sketch
	for i := 0; i < 200; i++ {
		if _, err := sk.Cardinality(f.joblight[i%len(f.joblight)].Query); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	for i := 0; i < estimates; i++ {
		lq := f.joblight[i%len(f.joblight)]
		if _, err := sk.Cardinality(lq.Query); err != nil {
			t.Fatal(err)
		}
	}
	estimateUS := float64(time.Since(start).Microseconds()) / estimates

	// Epoch time: one serial epoch of packed data-parallel MSCN training on
	// the fixture's prepared examples (mirrors BenchmarkTrainEpoch p=1).
	enc := f.td.Encoder
	mcfg := f.td.Cfg.Model
	mcfg.Epochs = 1
	m := mscn.New(mcfg, enc.TableDim(), enc.JoinDim(), enc.PredDim())
	start = time.Now()
	if _, err := m.TrainWithOptions(f.td.Examples, enc.Norm, nil, mscn.TrainOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	epochMS := float64(time.Since(start).Milliseconds())

	// WAL append throughput: observation records with distinct signatures
	// at the default fsync batching (mirrors internal/wal BenchmarkAppend).
	l, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const appends = 5000
	rec := wal.Record{
		Kind: wal.KindActual, Name: "perf", Version: 1,
		SQL: "SELECT COUNT(*) FROM title t WHERE t.production_year>2000", Estimate: 120, Actual: 100,
	}
	start = time.Now()
	for i := 0; i < appends; i++ {
		rec.Signature = fmt.Sprintf("sig-%d", i)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	walPerSec := appends / time.Since(start).Seconds()

	artifact := map[string]any{
		"schema":     "deepsketch-perf-v1",
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"metrics": map[string]float64{
			"estimate_latency_us":  estimateUS,
			"train_epoch_ms":       epochMS,
			"wal_appends_per_sec":  walPerSec,
			"train_examples":       float64(len(f.td.Examples)),
			"estimate_queries":     float64(len(f.joblight)),
			"wal_appends_measured": appends,
			"estimates_measured":   estimates,
		},
	}
	blob, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("perf trajectory: estimate %.1fµs, epoch %.0fms, wal %.0f appends/s → %s",
		estimateUS, epochMS, walPerSec, out)
}
