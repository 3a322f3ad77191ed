package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"deepsketch"
)

// countingEstimator counts the queries it answers for the estimator it
// wraps.
type countingEstimator struct {
	deepsketch.Estimator
	calls atomic.Int64
}

func (c *countingEstimator) Estimate(ctx context.Context, q deepsketch.Query) (deepsketch.Estimate, error) {
	c.calls.Add(1)
	return c.Estimator.Estimate(ctx, q)
}

func (c *countingEstimator) EstimateBatch(ctx context.Context, qs []deepsketch.Query) ([]deepsketch.Estimate, error) {
	c.calls.Add(int64(len(qs)))
	return c.Estimator.EstimateBatch(ctx, qs)
}

// countOverlays swaps the imdb overlays for counting wrappers and returns
// them as truth, hyper, postgresql.
func countOverlays(s *server) (truth, hyper, pg *countingEstimator) {
	bl := s.datasets["imdb"].baseline
	truth = &countingEstimator{Estimator: bl.truth}
	hyper = &countingEstimator{Estimator: bl.hyper}
	pg = &countingEstimator{Estimator: bl.pg}
	s.datasets["imdb"].baseline = baseline{truth: truth, hyper: hyper, pg: pg}
	return truth, hyper, pg
}

func TestEstimateRunsOverlaysOnlyWithTruth(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	id := buildReadySketch(t, h, "overlays")
	truth, hyper, pg := countOverlays(srv)
	calls := func() [3]int64 { return [3]int64{truth.calls.Load(), hyper.calls.Load(), pg.calls.Load()} }

	for i, sketchID := range []int{id, 0} {
		// Distinct queries per round, so every estimate misses the cache and
		// reaches the model.
		sql := fmt.Sprintf("SELECT COUNT(*) FROM title t WHERE t.production_year>%d", 1990+i)
		rec := post(t, h, "/api/estimate", estimateReq{SketchID: sketchID, SQL: sql})
		if rec.Code != http.StatusOK {
			t.Fatalf("sketch_id %d: status %d: %s", sketchID, rec.Code, rec.Body)
		}
		if got := calls(); got != [3]int64{} {
			t.Errorf("sketch_id %d: default estimate called truth/hyper/postgresql %v times, want none", sketchID, got)
		}
		var resp map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp["source"] != "overlays" {
			t.Errorf("sketch_id %d: source = %v, want the sketch", sketchID, resp["source"])
		}
	}

	rec := post(t, h, "/api/estimate", estimateReq{
		SketchID: id, SQL: "SELECT COUNT(*) FROM title t WHERE t.kind_id=1", Truth: true,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("truth estimate status %d: %s", rec.Code, rec.Body)
	}
	if got := calls(); got != [3]int64{1, 1, 1} {
		t.Errorf("truth estimate called truth/hyper/postgresql %v times, want once each", got)
	}
}

func TestTruthlessServingNeverCallsExecutor(t *testing.T) {
	srv := noTruthServer(deepsketch.DriftConfig{SampleEvery: 1, Window: 64, QueueSize: 4096}, deepsketch.DriftControllerConfig{}, "")
	defer srv.Close()
	h := srv.routes()
	id := buildReadySketch(t, h, "truthless")
	truth, hyper, pg := countOverlays(srv)

	for i := range 20 {
		sql := fmt.Sprintf("SELECT COUNT(*) FROM title t WHERE t.production_year>%d", 1980+i)
		sketchID := id
		if i%2 == 1 {
			sketchID = 0
		}
		if rec := post(t, h, "/api/estimate", estimateReq{SketchID: sketchID, SQL: sql}); rec.Code != http.StatusOK {
			t.Fatalf("estimate status %d: %s", rec.Code, rec.Body)
		}
		if rec := postActual(t, h, id, sql, 100, "c1"); rec.Code != http.StatusOK {
			t.Fatalf("actual status %d: %s", rec.Code, rec.Body)
		}
	}
	if n := truth.calls.Load() + hyper.calls.Load() + pg.calls.Load(); n != 0 {
		t.Errorf("truthless serving made %d executor and baseline calls, want 0", n)
	}
}

// TestTemplateDuringVersionSwaps runs template queries while uploads and
// rollbacks swap the serving version; under -race it catches a handler
// reading the entry's sketch outside the lock.
func TestTemplateDuringVersionSwaps(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	id := buildReadySketch(t, h, "swapped")
	blob := get(t, h, fmt.Sprintf("/api/sketches/%d/download", id)).Body.Bytes()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := post(t, h, "/api/template", templateReq{
					SketchID: id, SQL: "SELECT COUNT(*) FROM title t WHERE t.kind_id=?", Group: "distinct",
				})
				if rec.Code != http.StatusOK {
					t.Errorf("template status %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	for range 10 {
		if rec := put(t, h, fmt.Sprintf("/api/sketches/%d", id), blob); rec.Code != http.StatusOK {
			t.Errorf("upload status %d: %s", rec.Code, rec.Body)
		}
		if rec := post(t, h, fmt.Sprintf("/api/sketches/%d/rollback", id), nil); rec.Code != http.StatusOK {
			t.Errorf("rollback status %d: %s", rec.Code, rec.Body)
		}
	}
	close(stop)
	wg.Wait()
}
