// Command deepsketchd is the demonstration server: the reproduction of the
// paper's web demo (Figure 2). It serves the synthetic IMDb and TPC-H
// datasets and lets clients define Deep Sketches, monitor their training,
// and run ad-hoc and template queries against trained sketches — on
// request ("truth": true) with overlays from the HyPer-style and
// PostgreSQL-style estimators and the true cardinality, like the demo UI's
// chart. New sketches train in the background while existing ones keep
// serving queries ("we allow users to train new models while querying
// existing ones").
//
//	deepsketchd -addr :8080 -titles 20000 -orders 15000 -prebuilt
//
// JSON API:
//
//	GET  /api/datasets                 schemas of the available datasets
//	GET  /api/sketches                 sketch list with build status
//	POST /api/sketches                 define a sketch (async build; 409 if its store directory is taken)
//	GET  /api/sketches/{id}            status, progress, epochs, version history, canary
//	PUT  /api/sketches/{id}            upload a sketch file and swap it in as a new version
//	GET  /api/sketches/{id}/download   serialized sketch file
//	POST /api/sketches/{id}/refresh    warm-start retrain on a delta workload, swap in
//	POST /api/sketches/{id}/rollback   revert to the previous version
//	GET  /api/sketches/{id}/drift      live q-error windows, trigger state, canary cycle
//	POST /api/sketches/{id}/canary     refresh into a canary at a traffic fraction (or re-fraction)
//	POST /api/sketches/{id}/promote    make the canary live for 100% of traffic
//	DELETE /api/sketches/{id}/canary   abort the canary; the live version resumes all traffic
//	POST /api/estimate                 {sketch_id, sql[, truth]} -> sketch estimate (+ serving version; overlays with truth)
//	POST /api/template                 {sketch_id, sql, group, buckets[, truth]}
//
// # Refreshing a live sketch
//
// Sketches are versioned, long-lived serving artifacts managed by a
// per-dataset lifecycle registry: the initial build is version 1, and
// every refresh, upload or rollback changes which version serves — under
// traffic, atomically, with the estimate caches invalidated on the next
// request (they watch the registry generation). To refresh a sketch after
// the data has drifted:
//
//	POST /api/sketches/1/refresh
//	{"queries": 2000, "epochs": 5, "workers": 4}
//
// The daemon generates and labels a fresh delta workload over the sketch's
// tables, fine-tunes a clone of the serving model — resuming the Adam
// moments persisted in the sketch file, so a handful of epochs reaches
// full-build quality — and swaps the result in as the next version. The
// old version keeps serving until the swap; a failed refresh never
// replaces it. Poll GET /api/sketches/1 for status ("refreshing" → "ready",
// the version field bumps) and the full version history. If the refreshed
// model misbehaves, POST /api/sketches/1/rollback restores the previous
// version immediately; estimate responses carry the serving version so
// clients can tell which model answered. Retrained offline instead? Upload
// the .dsk file with PUT /api/sketches/1 to swap it in the same way.
//
// # Canary rollouts
//
// A refresh does not have to take 100% of traffic at once. POST
// /api/sketches/1/canary {"fraction": 0.1, "queries": 2000} fine-tunes
// like refresh but installs the result as a canary: 10% of the sketch's
// traffic (hash-split by query signature, so a given query is answered
// consistently) goes to the candidate while the live version keeps the
// rest. Estimate caches are keyed by serving version, so both splits stay
// coherent. Watch GET /api/sketches/1/drift for the per-version windowed
// q-error comparison, then POST /api/sketches/1/promote to make the
// candidate live — or DELETE /api/sketches/1/canary to withdraw it.
//
// # Automatic drift repair
//
// With -drift, the daemon closes the loop itself: a monitor samples live
// estimates (every -drift-sample'th per sketch), obtains the true
// cardinality asynchronously, and keeps a windowed q-error distribution
// per sketch version. When the windowed median or p95 exceeds its
// threshold — or the -drift-staleness clock expires — the daemon
// warm-refreshes the sketch on a fresh delta workload, canaries it at
// -canary-fraction, and promotes or aborts on the comparative windowed
// q-error once -canary-promote-after ground-truthed canary samples are in.
// All of it is persisted to -store, so a restart mid-canary resumes the
// rollout where it left off.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"deepsketch"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	titles := flag.Int("titles", 20000, "imdb scale (titles)")
	orders := flag.Int("orders", 15000, "tpch scale (orders)")
	seed := flag.Int64("seed", 1, "dataset seed")
	prebuilt := flag.Bool("prebuilt", false, "build a small ready-to-query sketch per dataset at startup")
	store := flag.String("store", "", "directory to persist sketches across restarts (empty = in-memory only)")
	driftAuto := flag.Bool("drift", false, "automatically refresh+canary sketches when live q-error drifts")
	driftSample := flag.Int("drift-sample", 10, "ground-truth every Nth estimate per sketch (0 disables sampling)")
	driftWindow := flag.Int("drift-window", 256, "rolling q-error window per sketch version")
	driftMedian := flag.Float64("drift-median", 0, "trigger when the windowed median q-error exceeds this (0 = off)")
	driftP95 := flag.Float64("drift-p95", 0, "trigger when the windowed p95 q-error exceeds this (0 = off)")
	driftStale := flag.Duration("drift-staleness", 0, "trigger when a sketch has not refreshed for this long (0 = off)")
	driftCooldown := flag.Duration("drift-cooldown", time.Minute, "minimum gap between drift triggers per sketch")
	driftInterval := flag.Duration("drift-interval", 5*time.Second, "canary gate / staleness evaluation interval")
	canaryFraction := flag.Float64("canary-fraction", 0.1, "traffic fraction automatic refreshes canary at")
	canaryPromote := flag.Int("canary-promote-after", 20, "ground-truthed canary samples before the gate judges")
	canaryRatio := flag.Float64("canary-max-ratio", 1.1, "promote iff canary median q-error ≤ ratio × live median")
	walDir := flag.String("wal", "", "directory for the observation WAL (empty = no durable feedback log)")
	driftTruth := flag.Bool("drift-truth", true, "ground-truth sampled estimates with the in-process exact executor; false relies on actuals POSTed to /api/sketches/{id}/actuals")
	actualsPerMin := flag.Int("actuals-per-min", 600, "per-client admission cap on POSTed actuals per minute (0 = unlimited)")
	actualsSample := flag.Int("actuals-sample", 0, "admit every Nth POSTed actual per client (<= 1 admits all)")
	walDelta := flag.Int("wal-delta", 512, "max WAL-logged actuals drawn into a refresh delta workload")
	pinnedDir := flag.String("pinned-benchmark", "", "directory of frozen per-dataset labeled workloads (<dataset>.workload) the drift controller judges every refresh candidate against before its canary starts; missing files are generated and persisted at boot (empty = rail off)")
	pinnedRegress := flag.Float64("pinned-max-regress", deepsketch.DefaultPinnedMaxRegress, "pinned-benchmark rail tolerance: a refresh candidate's median and p95 q-error on the pinned set may each be at most this ratio × the live version's")
	retainVersions := flag.Int("retain-versions", 0, "persisted non-live version files kept per sketch after a promote (0 = keep all)")
	retainWALBytes := flag.Int64("retain-wal-bytes", 0, "WAL size budget; checkpointed segments are pruned down to it after a promote (0 = keep all)")
	flag.Parse()

	driftCfg := deepsketch.DriftConfig{
		SampleEvery: *driftSample, Window: *driftWindow,
		MaxMedianQ: *driftMedian, MaxP95Q: *driftP95,
		MaxStaleness: *driftStale, Cooldown: *driftCooldown,
	}
	if *driftSample == 0 {
		// The monitor treats 0 as "default"; the flag documents 0 as
		// "sampling off" (no ground-truth executions at all).
		driftCfg.SampleEvery = -1
	}
	if !*driftAuto {
		// Without -drift nothing runs the canary gate (Controller.Run), so
		// a fired trigger would strand its sketch in a never-judged canary.
		// The monitor still observes — GET .../drift reports the windows —
		// but the thresholds are disarmed.
		if *driftMedian > 0 || *driftP95 > 0 || *driftStale > 0 {
			log.Printf("deepsketchd: drift thresholds set without -drift — monitoring only, no automatic refresh")
		}
		driftCfg.MaxMedianQ, driftCfg.MaxP95Q, driftCfg.MaxStaleness = 0, 0, 0
	}
	srv := newServer(serverOptions{
		titles: *titles, orders: *orders, seed: *seed,
		driftCfg: driftCfg,
		ctrlCfg: deepsketch.DriftControllerConfig{
			CanaryFraction: *canaryFraction, PromoteAfter: *canaryPromote, MaxQRatio: *canaryRatio,
		},
		walDir:           *walDir,
		driftTruth:       *driftTruth,
		admitCfg:         deepsketch.AdmitConfig{PerClientPerMin: *actualsPerMin, SampleEvery: *actualsSample},
		walDelta:         *walDelta,
		pinnedDir:        *pinnedDir,
		pinnedMaxRegress: *pinnedRegress,
		retainVersions:   *retainVersions,
		retainWALBytes:   *retainWALBytes,
	})
	if !*driftTruth {
		log.Printf("deepsketchd: exact executor off the serving path — ground truth via POST /api/sketches/{id}/actuals only")
		if *driftAuto && *walDir == "" {
			log.Printf("deepsketchd: -drift without -drift-truth refreshes on WAL-logged actuals only; set -wal")
		}
	}
	if *pinnedDir != "" {
		log.Printf("deepsketchd: pinned-benchmark rail on (%s, tolerance %.2fx)", *pinnedDir, *pinnedRegress)
	}
	srv.store = *store
	if srv.store != "" {
		if n, err := srv.loadStore(); err != nil {
			log.Printf("deepsketchd: loading store: %v", err)
		} else if n > 0 {
			log.Printf("deepsketchd: restored %d sketches from %s", n, srv.store)
		}
	}
	// WAL replay must follow the store load: it rebuilds the drift monitors'
	// q-error windows and pending observations for the restored sketches.
	srv.replayWAL()
	if *prebuilt {
		srv.startPrebuilt()
	}
	// Every background loop hangs off a signal-cancellable context: on
	// SIGINT/SIGTERM the monitors and controllers wind down, the HTTP
	// server drains, and Close joins the in-flight build/refresh goroutines
	// before the process exits — so a shutdown can never truncate a store
	// write or a WAL append mid-record.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	for _, ds := range srv.datasets {
		go ds.drift.Run(ctx)
		if *driftAuto {
			go ds.ctrl.Run(ctx, *driftInterval)
		}
	}
	if *driftAuto {
		log.Printf("deepsketchd: automatic drift repair on (median>%v p95>%v staleness>%v, canary %g%%)",
			*driftMedian, *driftP95, *driftStale, *canaryFraction*100)
	}
	log.Printf("deepsketchd listening on %s (imdb: %d total rows, tpch: %d total rows)",
		*addr, srv.datasets["imdb"].db.TotalRows(), srv.datasets["tpch"].db.TotalRows())
	httpSrv := &http.Server{Addr: *addr, Handler: srv.routes()}
	// ListenAndServe returns as soon as Shutdown starts; Close waits for
	// drained, since it stops the coalescers in-flight requests use.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			log.Printf("deepsketchd: http shutdown: %v", err)
		}
	}()
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	<-drained
	if err := srv.Close(); err != nil {
		log.Printf("deepsketchd: shutdown: %v", err)
	}
	log.Printf("deepsketchd: shut down cleanly")
}
