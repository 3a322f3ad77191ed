package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"

	"deepsketch"
	"deepsketch/internal/trainmon"
)

// The admin and lifecycle handlers: define, inspect, download, upload,
// refresh, canary, promote, abort and roll back sketches. Every route on
// one sketch resolves its {id} through withEntry.

type createReq struct {
	Name         string   `json:"name"`
	Dataset      string   `json:"dataset"`
	Tables       []string `json:"tables"`
	SampleSize   int      `json:"sample_size"`
	TrainQueries int      `json:"train_queries"`
	Epochs       int      `json:"epochs"`
	HiddenUnits  int      `json:"hidden_units"`
	Seed         int64    `json:"seed"`
}

func (s *server) handleSketchCreate(w http.ResponseWriter, r *http.Request) {
	var req createReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Dataset == "" {
		req.Dataset = "imdb"
	}
	ds, ok := s.datasets[req.Dataset]
	if !ok {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown dataset %q", req.Dataset))
		return
	}
	entry, err := s.register(req.Name, ds)
	if err != nil {
		// A name whose store directory is taken conflicts with the
		// lifecycle registry's version keying: 409, not a silent second
		// fleet member.
		writeErr(w, http.StatusConflict, err)
		return
	}
	// Respond before the build starts, so the 202 shows "building".
	s.writeSnapshot(w, http.StatusAccepted, entry)
	s.startBuild(entry, req)
}

func (s *server) handleSketchList(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	out := make([]*sketchEntry, 0, len(s.sketches))
	for id := 1; id < s.nextID; id++ {
		if e, ok := s.sketches[id]; ok {
			out = append(out, e)
		}
	}
	s.mu.RUnlock()
	s.writeSnapshot(w, http.StatusOK, out)
}

func (s *server) handleSketchGet(w http.ResponseWriter, _ *http.Request, e *sketchEntry) {
	type resp struct {
		*sketchEntry
		Progress trainmon.Snapshot          `json:"progress"`
		Epochs   []trainmon.Event           `json:"epoch_events"`
		Versions []deepsketch.SketchVersion `json:"versions,omitempty"`
		Canary   *deepsketch.SketchCanary   `json:"canary,omitempty"`
	}
	var epochs []trainmon.Event
	for _, ev := range e.mon.Events() {
		if ev.Kind == trainmon.KindEpoch {
			epochs = append(epochs, ev)
		}
	}
	// A sketch that never reached the registry (still building, or failed)
	// has no version history; any other error would also mean "nothing to
	// show", so the list stays empty rather than failing the GET.
	var versions []deepsketch.SketchVersion
	if vs, err := e.ds.reg.Versions(e.Name); err == nil {
		versions = vs
	}
	var canary *deepsketch.SketchCanary
	if ci, ok := e.ds.reg.Canary(e.Name); ok {
		canary = &ci
	}
	s.writeSnapshot(w, http.StatusOK, resp{sketchEntry: e, Progress: e.mon.Snapshot(), Epochs: epochs, Versions: versions, Canary: canary})
}

func (s *server) handleSketchDownload(w http.ResponseWriter, _ *http.Request, e *sketchEntry) {
	_, sk, _, err := s.readySketch(e.ID)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", e.Name+".dsk"))
	if err := sk.Save(w); err != nil {
		log.Printf("deepsketchd: download: %v", err)
	}
}

// claimReady is the admin routes' one readiness gate: it fails unless the
// entry is ready and, when next is non-empty, moves it to next and clears
// its error under the same lock. It returns the serving sketch.
func (s *server) claimReady(e *sketchEntry, next string) (*deepsketch.Sketch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Status != "ready" {
		return nil, fmt.Errorf("sketch %d is %s", e.ID, e.Status)
	}
	if next != "" {
		e.Status, e.Error = next, ""
	}
	return e.sketch, nil
}

// handleSketchUpload is upload-and-swap: the request body is a serialized
// sketch file (as produced by download or `deepsketch build/refresh`),
// which atomically replaces the entry's serving sketch as a new version.
// The uploaded sketch must belong to the entry's dataset; its name is
// overridden to the entry's name, since the version chain is keyed by it.
func (s *server) handleSketchUpload(w http.ResponseWriter, r *http.Request, e *sketchEntry) {
	// Cap the upload: sketches are a few MiB; a stream claiming more is
	// not a sketch file.
	sk, err := deepsketch.Load(http.MaxBytesReader(w, r.Body, 1<<28))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("not a sketch file: %w", err))
		return
	}
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	if _, err := s.claimReady(e, ""); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	if sk.DBName != e.Dataset {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("uploaded sketch is for dataset %q, entry %d serves %q", sk.DBName, e.ID, e.Dataset))
		return
	}
	sk.Cfg.Name = e.Name
	ver, err := e.ds.reg.Swap(e.Name, sk)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	s.installVersion(e, sk, ver, "ready", "")
	s.persistVersion(e, sk, ver)
	s.writeSnapshot(w, http.StatusOK, e)
}

type refreshReq struct {
	// Queries sizes the generated drift-delta workload (default 1000).
	Queries int `json:"queries"`
	// Seed drives delta workload generation; vary it across refreshes so
	// each one sees fresh queries (default: see historySeed).
	Seed int64 `json:"seed"`
	// Epochs caps the fine-tune budget (default: the sketch's build epochs).
	Epochs int `json:"epochs"`
	// StopAtValQ stops early at this validation mean q-error (0 disables).
	StopAtValQ float64 `json:"stop_at_val_q"`
	// Workers bounds labeling and training parallelism (0 = GOMAXPROCS).
	Workers int `json:"workers"`
}

// handleSketchRefresh warm-start retrains the serving sketch on a freshly
// generated delta workload in the background and swaps the result in as a
// new version. The current version keeps serving until the swap; a failed
// refresh leaves it serving and records the error on the entry.
func (s *server) handleSketchRefresh(w http.ResponseWriter, r *http.Request, e *sketchEntry) {
	var req refreshReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	if err := s.startRefresh(e, req, 0); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	s.writeSnapshot(w, http.StatusAccepted, e)
}

// startRefresh moves a ready entry to "refreshing" and runs the delta
// fine-tune in the background, landing as a new live version (fraction 0)
// or as a canary at the fraction. Caller holds e.adminMu.
func (s *server) startRefresh(e *sketchEntry, req refreshReq, fraction float64) error {
	sk, err := s.claimReady(e, "refreshing")
	if err != nil {
		return err
	}
	if req.Queries <= 0 {
		req.Queries = 1000
	}
	if req.Seed == 0 {
		req.Seed = e.ds.historySeed(e.Name)
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		s.refresh(e, sk, req, fraction)
	}()
	return nil
}

// refresh runs the delta-workload fine-tune in the background and lands
// the result as a direct swap (fraction 0) or as a canary at the given
// traffic fraction. Entry status is "refreshing" for the whole run, which
// 409s any concurrent upload/rollback/refresh; completion takes adminMu so
// the install+persist pair cannot interleave with an admin operation
// racing the final status flip.
func (s *server) refresh(e *sketchEntry, sk *deepsketch.Sketch, req refreshReq, fraction float64) {
	fail := func(err error) {
		// The old version never stopped serving; keep it and record why
		// the refresh did not land.
		e.adminMu.Lock()
		defer e.adminMu.Unlock()
		s.setStatus(e, "ready", "refresh failed: "+err.Error())
	}
	labeled, err := e.ds.syntheticDelta(sk, req.Seed, req.Queries, req.Workers)
	if err != nil {
		fail(err)
		return
	}
	ver, ns, err := e.ds.reg.Refresh(context.Background(), deepsketch.RegistryRefreshOptions{
		Name: e.Name, Workload: labeled,
		Epochs: req.Epochs, StopAtValQ: req.StopAtValQ, Workers: req.Workers,
		Monitor: e.mon, Canary: fraction,
	})
	if err != nil {
		fail(err)
		return
	}
	e.ds.drift.MarkRefreshed(e.Name)
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	if fraction > 0 {
		// The canary is in the registry history but not live: the entry
		// keeps reporting the live version; only the status changes.
		s.setStatus(e, "canarying", "")
		s.persistVersion(e, ns, ver)
		log.Printf("deepsketchd: refreshed sketch %q into canary v%d at %g%% (%d delta queries)",
			e.Name, ver, fraction*100, len(labeled))
		return
	}
	s.installVersion(e, ns, ver, "ready", "")
	s.persistVersion(e, ns, ver)
	log.Printf("deepsketchd: refreshed sketch %q to version %d (%d delta queries)", e.Name, ver, len(labeled))
}

// canaryReq parameterizes POST /api/sketches/{id}/canary: the refresh
// fields plus the traffic fraction to canary at. On a sketch with an
// active canary, only Fraction is honoured (the split is re-fractioned).
type canaryReq struct {
	refreshReq
	// Fraction is the share of traffic the canary answers (default 0.1).
	Fraction float64 `json:"fraction"`
}

// handleSketchCanary refreshes the sketch into a canary at the requested
// traffic fraction — or, when a canary is already active, widens or
// narrows its split.
func (s *server) handleSketchCanary(w http.ResponseWriter, r *http.Request, e *sketchEntry) {
	var req canaryReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Fraction == 0 {
		req.Fraction = 0.1
	}
	if req.Fraction < 0 || req.Fraction > 1 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("fraction %v outside (0, 1]", req.Fraction))
		return
	}
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	if _, ok := e.ds.reg.Canary(e.Name); ok {
		// Active canary: adjust the traffic split.
		if err := e.ds.reg.SetCanaryFraction(e.Name, req.Fraction); err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		s.persistState(e)
		s.writeSnapshot(w, http.StatusOK, e)
		return
	}
	if err := s.startRefresh(e, req.refreshReq, req.Fraction); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	s.writeSnapshot(w, http.StatusAccepted, e)
}

// handleSketchPromote makes the active canary the live version for all
// traffic.
func (s *server) handleSketchPromote(w http.ResponseWriter, _ *http.Request, e *sketchEntry) {
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	ver, err := e.ds.reg.PromoteCanary(e.Name)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	if err := s.landPromoted(e, ver); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	log.Printf("deepsketchd: canary v%d of %q promoted by operator", ver, e.Name)
	s.writeSnapshot(w, http.StatusOK, e)
}

// landPromoted lands a promoted canary on the entry: it serves as version
// ver, the store records the new live pointer, and retention runs. Caller
// holds e.adminMu.
func (s *server) landPromoted(e *sketchEntry, ver int) error {
	sk, err := e.ds.reg.Sketch(e.Name, ver)
	if err != nil {
		return err
	}
	s.installVersion(e, sk, ver, "ready", "")
	s.persistState(e)
	s.applyRetention(e)
	return nil
}

// handleSketchCanaryAbort withdraws the active canary; the live version
// resumes answering all traffic. The aborted version stays in the history.
func (s *server) handleSketchCanaryAbort(w http.ResponseWriter, _ *http.Request, e *sketchEntry) {
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	ci, ok := e.ds.reg.Canary(e.Name)
	if !ok {
		writeErr(w, http.StatusConflict, fmt.Errorf("sketch %d has no active canary", e.ID))
		return
	}
	if err := e.ds.reg.AbortCanary(e.Name); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	if err := s.landLive(e, ""); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	log.Printf("deepsketchd: canary v%d of %q aborted by operator", ci.Version, e.Name)
	s.writeSnapshot(w, http.StatusOK, e)
}

// landLive reinstalls the live version on the entry after its canary was
// withdrawn and records the live pointer in the store. Caller holds
// e.adminMu.
func (s *server) landLive(e *sketchEntry, errMsg string) error {
	live, lv, err := e.ds.reg.Live(e.Name)
	if err != nil {
		return err
	}
	s.installVersion(e, live, lv, "ready", errMsg)
	s.persistState(e)
	return nil
}

// handleSketchDrift reports the sketch's live-quality picture: the drift
// monitor's windowed q-error per version, the controller's cycle state,
// and the active canary, if any.
func (s *server) handleSketchDrift(w http.ResponseWriter, _ *http.Request, e *sketchEntry) {
	ds := e.ds
	resp := map[string]any{
		"monitor": ds.drift.Status(e.Name),
		"cycle":   ds.ctrl.Cycle(e.Name),
	}
	if ci, ok := ds.reg.Canary(e.Name); ok {
		resp["canary"] = ci
	}
	if ds.wal != nil {
		resp["wal"] = ds.wal.Stats()
		resp["wal_actuals"] = ds.wal.ActualCount(e.Name)
		resp["wal_workloads"] = s.walWorkloads.Load()
	}
	// The rail's last judgment travels inside "cycle" (CycleStatus.Pinned);
	// these describe the rail configuration itself.
	if ds.pinned != nil {
		resp["pinned_size"] = ds.pinned.Len()
		resp["pinned_max_regress"] = s.opts.pinnedMaxRegress
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSketchRollback reverts the entry to the version before the live
// one; the rolled-back-to version serves immediately.
func (s *server) handleSketchRollback(w http.ResponseWriter, _ *http.Request, e *sketchEntry) {
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	if _, err := s.claimReady(e, ""); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	ver, sk, err := e.ds.reg.Rollback(e.Name)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	s.installVersion(e, sk, ver, "ready", "")
	s.persistState(e)
	s.writeSnapshot(w, http.StatusOK, e)
}
