package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"deepsketch"
)

// The serving handlers: ad-hoc estimates, template series, dataset schemas
// and the demo UI.

// baseline holds a dataset's demo overlays: the exact executor and the
// HyPer- and PostgreSQL-style estimators the demo chart compares a Deep
// Sketch against. They run only when a request asks for "truth".
type baseline struct {
	truth deepsketch.Estimator
	hyper deepsketch.Estimator
	pg    deepsketch.Estimator
}

// overlay runs the exact executor and both baseline estimators on q.
func (b baseline) overlay(ctx context.Context, q deepsketch.Query) (truth int64, hyper, pg float64, err error) {
	t, err := b.truth.Estimate(ctx, q)
	if err != nil {
		return 0, 0, 0, err
	}
	h, err := b.hyper.Estimate(ctx, q)
	if err != nil {
		return 0, 0, 0, err
	}
	p, err := b.pg.Estimate(ctx, q)
	if err != nil {
		return 0, 0, 0, err
	}
	return int64(t.Cardinality), h.Cardinality, p.Cardinality, nil
}

func (s *server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	type colInfo struct {
		Name string `json:"name"`
		Type string `json:"type"`
	}
	type tblInfo struct {
		Name string    `json:"name"`
		Rows int       `json:"rows"`
		Cols []colInfo `json:"columns"`
	}
	out := map[string][]tblInfo{}
	for name, ds := range s.datasets {
		var tbls []tblInfo
		for _, tn := range ds.db.TableNames() {
			t := ds.db.Table(tn)
			ti := tblInfo{Name: tn, Rows: t.NumRows()}
			for _, c := range t.Cols {
				ti.Cols = append(ti.Cols, colInfo{Name: c.Name, Type: c.Type.String()})
			}
			tbls = append(tbls, ti)
		}
		out[name] = tbls
	}
	writeJSON(w, http.StatusOK, out)
}

// readySketch snapshots a ready entry under the lock: installVersion
// rewrites the entry's sketch on every refresh, rollback or upload, so a
// handler uses the returned values, never the entry's fields.
func (s *server) readySketch(id int) (ds *dataset, sk *deepsketch.Sketch, serving deepsketch.Estimator, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.sketches[id]
	if !ok {
		return nil, nil, nil, fmt.Errorf("no sketch %d", id)
	}
	if e.sketch == nil {
		return nil, nil, nil, fmt.Errorf("sketch %d is %s", id, e.Status)
	}
	return e.ds, e.sketch, e.serving, nil
}

type estimateReq struct {
	// SketchID selects a sketch explicitly; 0 routes automatically through
	// the dataset's sketch router, falling back to the PostgreSQL-style
	// estimator when no ready sketch covers the query's tables.
	SketchID int    `json:"sketch_id"`
	Dataset  string `json:"dataset,omitempty"`
	SQL      string `json:"sql"`
	// Truth adds the demo chart's overlays: the true cardinality, the
	// HyPer and PostgreSQL estimates and the q-errors against the truth.
	Truth bool `json:"truth"`
}

// handleEstimate serves one ad-hoc query through the serving stack. Only a
// request with "truth" pays for the demo's overlays, which run the exact
// executor. The client disconnecting cancels the work via the request
// context.
func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req estimateReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	var ds *dataset
	var serving deepsketch.Estimator
	if req.SketchID == 0 {
		if req.Dataset == "" {
			req.Dataset = "imdb"
		}
		if ds = s.datasets[req.Dataset]; ds == nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown dataset %q", req.Dataset))
			return
		}
		serving = ds.auto
	} else {
		var err error
		if ds, _, serving, err = s.readySketch(req.SketchID); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
	}
	q, err := deepsketch.ParseSQL(ds.db, req.SQL)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	est, err := serving.Estimate(ctx, q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp := map[string]any{
		"sql":         q.SQL(ds.db),
		"deep_sketch": est.Cardinality,
		"source":      est.Source,
		"latency_ms":  float64(est.Latency.Microseconds()) / 1000.0,
		"cache_hit":   est.CacheHit,
	}
	if req.Truth {
		truth, hyper, pg, err := ds.baseline.overlay(ctx, q)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		resp["true"] = truth
		resp["hyper"] = hyper
		resp["postgresql"] = pg
		resp["q_errors"] = map[string]float64{
			"deep_sketch": deepsketch.QError(est.Cardinality, float64(truth)),
			"hyper":       deepsketch.QError(hyper, float64(truth)),
			"postgresql":  deepsketch.QError(pg, float64(truth)),
		}
	}
	// Tag which version of the answering sketch served the estimate (absent
	// when a baseline fallback answered). The version is stamped on the
	// estimate by the registry's routing layer itself — exact even when a
	// swap, canary split or rollback races the request.
	if est.Version > 0 {
		resp["version"] = est.Version
	}
	writeJSON(w, http.StatusOK, resp)
}

type templateReq struct {
	SketchID int    `json:"sketch_id"`
	SQL      string `json:"sql"`
	Group    string `json:"group"`   // distinct | buckets
	Buckets  int    `json:"buckets"` // for group=buckets
	Truth    bool   `json:"truth"`   // include the overlays
}

// handleTemplate serves the demo's placeholder queries: one series point per
// template instance, with optional overlays.
func (s *server) handleTemplate(w http.ResponseWriter, r *http.Request) {
	var req templateReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ds, sk, _, err := s.readySketch(req.SketchID)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	g := deepsketch.GroupDistinct
	if req.Group == "buckets" {
		g = deepsketch.GroupBuckets
		if req.Buckets <= 0 {
			req.Buckets = 20
		}
	}
	res, err := sk.EstimateTemplateSQL(r.Context(), req.SQL, g, req.Buckets)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	type point struct {
		Label      string  `json:"label"`
		Estimate   float64 `json:"deep_sketch"`
		Hyper      float64 `json:"hyper,omitempty"`
		PostgreSQL float64 `json:"postgresql,omitempty"`
		True       *int64  `json:"true,omitempty"`
	}
	points := make([]point, 0, len(res))
	for _, inst := range res {
		p := point{Label: inst.Label, Estimate: inst.Estimate}
		if req.Truth {
			tc, he, pe, err := ds.baseline.overlay(r.Context(), inst.Query)
			if err != nil {
				writeErr(w, http.StatusBadRequest, err)
				return
			}
			p.True, p.Hyper, p.PostgreSQL = &tc, he, pe
		}
		points = append(points, p)
	}
	writeJSON(w, http.StatusOK, map[string]any{"points": points})
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}
