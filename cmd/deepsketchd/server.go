package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"deepsketch"
)

// dataset is one served database and everything the daemon runs over it.
type dataset struct {
	name string
	db   *deepsketch.DB
	// baseline holds the demo overlays a "truth" request adds.
	baseline baseline
	// reg holds the dataset's versioned sketch fleet: the admin endpoints
	// publish, swap, refresh, canary and roll back versions through it, and
	// its router dispatches auto-routed queries to the most specific ready
	// sketch.
	reg *deepsketch.SketchRegistry
	// auto serves auto-routed queries: the registry's router with a
	// PostgreSQL fallback, so a query no sketch covers still gets an answer.
	auto *deepsketch.EstimateCache
	// drift watches live estimate quality (per-version q-error windows);
	// ctrl closes the loop (trigger → refresh → canary → gate). The monitor
	// queue drains only once main starts its Run loop, or when a drift
	// cycle drains it explicitly.
	drift *deepsketch.DriftMonitor
	ctrl  *deepsketch.DriftController
	// wal is the observation WAL the drift monitor journals to and is
	// rebuilt from at startup (nil without -wal).
	wal *deepsketch.ObservationLog
	// pinned is the frozen benchmark refresh candidates are judged against
	// (nil without -pinned-benchmark).
	pinned *deepsketch.PinnedBenchmark
}

// sketchEntry tracks one sketch through its lifecycle.
type sketchEntry struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Dataset string `json:"dataset"`
	Status  string `json:"status"` // building | ready | refreshing | canarying | failed
	Error   string `json:"error,omitempty"`
	// Version is the serving sketch version in the dataset's lifecycle
	// registry: 1 after the initial build, bumped by every upload-and-swap
	// or refresh, moved back by rollback.
	Version int       `json:"version,omitempty"`
	Created time.Time `json:"created"`
	ds      *dataset
	sketch  *deepsketch.Sketch
	// serving is the entry's serving stack (see sketchStack). All request
	// traffic to this sketch goes through it. It is built once and
	// survives every version change: the registry view routes each query
	// to whichever version (live or canary split) should answer it, and
	// cache keys embed that serving version — so a swap, canary or
	// rollback can never surface a previous version's cached answer, and
	// only the remapped queries' entries go cold.
	serving deepsketch.Estimator
	mon     *deepsketch.Monitor
	// adminMu serializes version-changing admin operations on this entry
	// (upload-and-swap, refresh start/completion, rollback): each is a
	// check-then-act sequence across the registry, the entry fields and the
	// store file, and interleaving two of them could leave the entry's
	// serving stack and persisted file pointing at a different version than
	// the registry serves. Held around whole operations; s.mu (which only
	// guards field access) nests inside it.
	adminMu sync.Mutex
}

type server struct {
	opts     serverOptions
	datasets map[string]*dataset
	// admit rate-limits the logged-actuals ingest path per client.
	admit *deepsketch.ActualsAdmitter
	// walWorkloads counts refreshes whose delta workload came from the WAL
	// (vs synthetic generation) — observability for the feedback loop.
	walWorkloads atomic.Uint64

	// store, when non-empty, is a directory where ready sketches are
	// persisted and from which they are restored at startup.
	store string

	mu       sync.RWMutex
	sketches map[int]*sketchEntry
	nextID   int
	// coalescers are the flush loops of every serving stack built so far;
	// Close stops them.
	coalescers []*deepsketch.Coalescer

	// bg tracks every background build/refresh goroutine the server
	// launches. Close joins it before releasing the WALs: without the
	// join, Close could return — and a test or the process could tear the
	// store directory down — while a build is still writing sketch files.
	bg sync.WaitGroup
}

// serverOptions parameterizes newServer.
type serverOptions struct {
	titles, orders int
	seed           int64
	driftCfg       deepsketch.DriftConfig
	ctrlCfg        deepsketch.DriftControllerConfig
	// walDir, when non-empty, roots per-dataset observation WALs at
	// walDir/<dataset>.
	walDir string
	// driftTruth keeps the exact executor as the monitors' in-process
	// ground-truth source; false drops it from the serving path entirely —
	// actuals arrive only via POST /api/sketches/{id}/actuals, and
	// automatic refreshes train on logged actuals only.
	driftTruth bool
	admitCfg   deepsketch.AdmitConfig
	// walDelta caps how many WAL-logged actuals a refresh delta workload
	// draws (default 512); retainVersions / retainWALBytes are the
	// retention knobs applied after a promote.
	walDelta       int
	retainVersions int
	retainWALBytes int64
	// pinnedDir, when non-empty, roots per-dataset pinned benchmarks at
	// pinnedDir/<dataset>.workload — the frozen held-out sets the drift
	// controllers judge refresh candidates against before any canary.
	// Missing files are generated from the dataset and persisted at boot.
	// pinnedMaxRegress is the rail tolerance.
	pinnedDir        string
	pinnedMaxRegress float64
}

func newServer(opts serverOptions) *server {
	if opts.walDelta <= 0 {
		opts.walDelta = 512
	}
	s := &server{
		opts:     opts,
		datasets: map[string]*dataset{},
		admit:    deepsketch.NewActualsAdmitter(opts.admitCfg),
		sketches: map[int]*sketchEntry{},
		nextID:   1,
	}
	s.addDataset("imdb", deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: opts.seed, Titles: opts.titles}))
	s.addDataset("tpch", deepsketch.NewTPCH(deepsketch.TPCHConfig{Seed: opts.seed, Orders: opts.orders}))
	return s
}

// addDataset builds the per-dataset stack: overlays, registry, WAL, drift
// monitor, pinned benchmark, drift controller and the auto-routing stack.
func (s *server) addDataset(name string, d *deepsketch.DB) {
	opts := s.opts
	hyper, err := deepsketch.HyperEstimator(d, 1000, opts.seed)
	if err != nil {
		log.Fatalf("baseline for %s: %v", name, err)
	}
	ds := &dataset{
		name: name, db: d, reg: deepsketch.NewSketchRegistry(),
		baseline: baseline{truth: deepsketch.TruthEstimator(d), hyper: hyper, pg: deepsketch.PostgresEstimator(d)},
	}
	// The observation WAL journals every pending/resolved monitor
	// transition for this dataset; replayWAL rebuilds monitor state from
	// it after a restart.
	driftCfg := opts.driftCfg
	if opts.walDir != "" {
		if ds.wal, err = deepsketch.OpenObservationLog(filepath.Join(opts.walDir, name), deepsketch.WALOptions{}); err != nil {
			log.Fatalf("wal for %s: %v", name, err)
		}
		driftCfg.Journal = &walJournal{d: d, log: ds.wal}
	}
	// The drift monitor windows q-errors per sketch version; with
	// -drift-truth it ground-truths sampled estimates against the exact
	// executor (the demo's HyPer role), without it every sampled estimate
	// parks pending until a logged actual arrives.
	var truth deepsketch.Estimator
	if opts.driftTruth {
		truth = ds.baseline.truth
	}
	ds.drift = deepsketch.NewDriftMonitor(driftCfg, truth)
	// The pinned-benchmark rail: a frozen clean labeled set per dataset,
	// loaded (or generated once and persisted) at boot, that every
	// refresh candidate must not regress on before its canary starts.
	// Unlike the live windows and the WAL-derived delta workload — both
	// functions of observed traffic, which an adaptive feedback source
	// controls — the pinned set predates any attack traffic.
	if opts.pinnedDir != "" {
		if ds.pinned, err = loadOrCreatePinned(d, filepath.Join(opts.pinnedDir, name+".workload"), opts.seed); err != nil {
			log.Fatalf("pinned benchmark for %s: %v", name, err)
		}
	}
	ds.ctrl = s.newController(ds, opts.ctrlCfg)
	// Auto-routed traffic gets the same serving treatment as explicit
	// sketch requests: coalesced batched inference behind the router,
	// clamped, PostgreSQL fallback for uncovered queries, all cached.
	// The fallback sits inside the coalescer so a coalesced batch that
	// contains uncovered queries bisects into batched router calls plus
	// per-query PostgreSQL answers, instead of failing wholesale and
	// serializing the whole flush. The drift monitor taps the router
	// path below the cache (hits repeat known answers). The cache is
	// keyed by the router's CacheKey — the query signature qualified by
	// the answering sketch version — which keeps it coherent across
	// every registry mutation with no wholesale invalidation: a swap,
	// canary start, re-fraction, promote or rollback changes the key of
	// exactly the queries whose answering version changed, so their old
	// entries are simply never looked up again while the rest of the
	// cache stays warm.
	ds.auto = deepsketch.WithCache(
		s.coalesce(
			deepsketch.Fallback(
				deepsketch.ObserveEstimates(
					deepsketch.Clamp(ds.reg.Router(), deepsketch.MaxCardinality(d)), ds.drift),
				ds.baseline.pg)),
		1024).KeyFunc(ds.reg.Router().CacheKey)
	s.datasets[name] = ds
}

// sketchStack builds an entry's serving stack: an LRU estimate cache over
// a drift-observed, clamped, micro-batching coalescer over the registry's
// per-name view. Caller holds s.mu.
func (s *server) sketchStack(e *sketchEntry) deepsketch.Estimator {
	return deepsketch.WithCache(
		deepsketch.ObserveEstimates(
			deepsketch.Clamp(
				s.coalesce(e.ds.reg.Serving(e.Name)),
				deepsketch.MaxCardinality(e.ds.db)),
			e.ds.drift),
		1024).KeyFunc(e.ds.reg.CacheKey(e.Name))
}

// coalesce starts a coalescer over inner and records it for Close. Caller
// holds s.mu, or is the constructor.
func (s *server) coalesce(inner deepsketch.Estimator) *deepsketch.Coalescer {
	c := deepsketch.NewCoalescer(inner, deepsketch.CoalesceOptions{})
	s.coalescers = append(s.coalescers, c)
	return c
}

// Close joins the in-flight background build/refresh goroutines, stops
// every coalescer and then closes the observation WALs. Call it once no
// request is in flight. A drift-controller cycle already running is not
// joined: the drift package offers no way to wait for one.
func (s *server) Close() error {
	s.bg.Wait()
	s.mu.Lock()
	coalescers := s.coalescers
	s.coalescers = nil
	s.mu.Unlock()
	for _, c := range coalescers {
		c.Close()
	}
	var firstErr error
	for name, ds := range s.datasets {
		if ds.wal == nil {
			continue
		}
		if err := ds.wal.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("closing %s wal: %w", name, err)
		}
	}
	return firstErr
}

// register adds a building entry for a new sketch. A sketch persists to
// the store directory named after its sanitized name, whichever dataset
// it serves, so a name whose directory an entry that has not failed
// already owns is refused — with or without a store, so the API does not
// depend on it.
func (s *server) register(name string, ds *dataset) (*sketchEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	if name == "" {
		name = fmt.Sprintf("%s-sketch-%d", ds.name, id)
	}
	for _, e := range s.sketches {
		if e.Status != "failed" && sanitizeName(e.Name) == sanitizeName(name) {
			return nil, fmt.Errorf("sketch %q on %s (id %d) already owns the store directory of %q; upload to PUT /api/sketches/%d to replace it", e.Name, e.Dataset, e.ID, name, e.ID)
		}
	}
	s.nextID++
	e := &sketchEntry{
		ID: id, Name: name, Dataset: ds.name, Status: "building",
		Created: time.Now(), ds: ds, mon: deepsketch.NewMonitor(),
	}
	s.sketches[id] = e
	return e, nil
}

// startBuild runs the creation pipeline of a registered entry in the
// background and publishes the result as version 1.
func (s *server) startBuild(e *sketchEntry, req createReq) {
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		mcfg := deepsketch.DefaultModelConfig()
		if req.Epochs > 0 {
			mcfg.Epochs = req.Epochs
		}
		if req.HiddenUnits > 0 {
			mcfg.HiddenUnits = req.HiddenUnits
		}
		mcfg.Seed = req.Seed
		sk, err := deepsketch.Build(e.ds.db, deepsketch.Config{
			Name: e.Name, Tables: req.Tables, SampleSize: req.SampleSize,
			TrainQueries: req.TrainQueries, Seed: req.Seed, Model: mcfg,
		}, e.mon)
		var ver int
		if err == nil {
			ver, err = e.ds.reg.Publish(e.Name, sk)
		}
		if err != nil {
			s.setStatus(e, "failed", err.Error())
			return
		}
		s.installVersion(e, sk, ver, "ready", "")
		s.persistVersion(e, sk, ver)
	}()
}

// startPrebuilt creates one small high-quality sketch per dataset so users
// can query immediately ("we offer pre-built (high quality) models that can
// be queried right away").
func (s *server) startPrebuilt() {
	for name, ds := range s.datasets {
		e, err := s.register("prebuilt-"+name, ds)
		if err != nil {
			log.Printf("deepsketchd: prebuilt %s: %v", name, err)
			continue
		}
		s.startBuild(e, createReq{SampleSize: 500, TrainQueries: 3000, Epochs: 20, HiddenUnits: 32, Seed: 7})
	}
}

// installVersion points the entry at a (new or rolled-back) sketch version.
// The serving stack is built on the first install and shared across
// versions: it serves through the registry's per-name view, whose answers
// and cache keys are version-aware, so a version change needs no stack
// rebuild — the old version's cache lines simply stop being looked up.
func (s *server) installVersion(e *sketchEntry, sk *deepsketch.Sketch, ver int, status, errMsg string) {
	s.mu.Lock()
	if e.serving == nil {
		e.serving = s.sketchStack(e)
	}
	e.sketch = sk
	e.Version = ver
	e.Status = status
	e.Error = errMsg
	s.mu.Unlock()
}

// setStatus sets the entry's status and error under the lock.
func (s *server) setStatus(e *sketchEntry, status, errMsg string) {
	s.mu.Lock()
	e.Status, e.Error = status, errMsg
	s.mu.Unlock()
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", s.handleIndex)
	mux.HandleFunc("GET /api/datasets", s.handleDatasets)
	mux.HandleFunc("GET /api/sketches", s.handleSketchList)
	mux.HandleFunc("POST /api/sketches", s.handleSketchCreate)
	mux.HandleFunc("GET /api/sketches/{id}", s.withEntry(s.handleSketchGet))
	mux.HandleFunc("PUT /api/sketches/{id}", s.withEntry(s.handleSketchUpload))
	mux.HandleFunc("GET /api/sketches/{id}/download", s.withEntry(s.handleSketchDownload))
	mux.HandleFunc("POST /api/sketches/{id}/refresh", s.withEntry(s.handleSketchRefresh))
	mux.HandleFunc("POST /api/sketches/{id}/rollback", s.withEntry(s.handleSketchRollback))
	mux.HandleFunc("GET /api/sketches/{id}/drift", s.withEntry(s.handleSketchDrift))
	mux.HandleFunc("POST /api/sketches/{id}/actuals", s.withEntry(s.handleSketchActuals))
	mux.HandleFunc("POST /api/sketches/{id}/canary", s.withEntry(s.handleSketchCanary))
	mux.HandleFunc("POST /api/sketches/{id}/promote", s.withEntry(s.handleSketchPromote))
	mux.HandleFunc("DELETE /api/sketches/{id}/canary", s.withEntry(s.handleSketchCanaryAbort))
	mux.HandleFunc("POST /api/estimate", s.handleEstimate)
	mux.HandleFunc("POST /api/template", s.handleTemplate)
	return mux
}

// withEntry adapts a handler of one sketch to a /api/sketches/{id}… route:
// an id that is not a number or names no sketch is a 404.
func (s *server) withEntry(h func(http.ResponseWriter, *http.Request, *sketchEntry)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeErr(w, http.StatusNotFound, fmt.Errorf("bad sketch id"))
			return
		}
		s.mu.RLock()
		e, ok := s.sketches[id]
		s.mu.RUnlock()
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no sketch %d", id))
			return
		}
		h(w, r, e)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("deepsketchd: encode response: %v", err)
	}
}

// writeSnapshot responds with v marshaled under the server read lock —
// entry fields are mutex-guarded, but the lock must never be held across
// the network write (a client that stops reading would otherwise block
// every other request behind the next writer).
func (s *server) writeSnapshot(w http.ResponseWriter, status int, v any) {
	s.mu.RLock()
	blob, err := json.Marshal(v)
	s.mu.RUnlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(blob, '\n')); err != nil {
		log.Printf("deepsketchd: write response: %v", err)
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
