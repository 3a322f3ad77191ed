package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// put sends a raw-body PUT (the upload-and-swap endpoint takes a sketch
// file, not JSON).
func put(t *testing.T, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("PUT", path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// awaitStatus polls a sketch until it reaches want (failing fast on
// "failed") and returns the final entry JSON.
func awaitStatus(t *testing.T, h http.Handler, id int, want string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		rec := get(t, h, fmt.Sprintf("/api/sketches/%d", id))
		if rec.Code != 200 {
			t.Fatalf("get status %d", rec.Code)
		}
		var st struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == "failed" || st.Error != "" {
			t.Fatalf("sketch %d failed: %s", id, st.Error)
		}
		if st.Status == want {
			return rec.Body.Bytes()
		}
		if time.Now().After(deadline) {
			t.Fatalf("sketch %d stuck in %q waiting for %q", id, st.Status, want)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func buildReadySketch(t *testing.T, h http.Handler, name string) int {
	t.Helper()
	rec := post(t, h, "/api/sketches", createReq{
		Name: name, Dataset: "imdb", SampleSize: 24, TrainQueries: 100, Epochs: 2, HiddenUnits: 8, Seed: 1,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create status %d: %s", rec.Code, rec.Body)
	}
	var entry sketchEntry
	if err := json.Unmarshal(rec.Body.Bytes(), &entry); err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, h, entry.ID, "ready")
	return entry.ID
}

func TestDuplicateSketchNameConflicts(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	id := buildReadySketch(t, h, "dup")
	rec := post(t, h, "/api/sketches", createReq{
		Name: "dup", Dataset: "imdb", SampleSize: 24, TrainQueries: 100, Epochs: 1, HiddenUnits: 8, Seed: 2,
	})
	if rec.Code != http.StatusConflict {
		t.Fatalf("duplicate name status = %d, want 409 (%s)", rec.Code, rec.Body)
	}
	// Same name on the other dataset would share the store directory
	// (named by the sanitized sketch name alone) — refused too.
	rec = post(t, h, "/api/sketches", createReq{
		Name: "dup", Dataset: "tpch", SampleSize: 24, TrainQueries: 100, Epochs: 1, HiddenUnits: 8, Seed: 2,
	})
	if rec.Code != http.StatusConflict {
		t.Fatalf("same name on other dataset status = %d, want 409", rec.Code)
	}
	_ = id
}

func TestUploadSwapRollbackVersions(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	id := buildReadySketch(t, h, "lifecycle")

	// Version 1 after the initial build, visible in GET and estimates.
	body := awaitStatus(t, h, id, "ready")
	var info struct {
		Version  int `json:"version"`
		Versions []struct {
			Version int  `json:"version"`
			Live    bool `json:"live"`
		} `json:"versions"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || len(info.Versions) != 1 || !info.Versions[0].Live {
		t.Fatalf("fresh sketch version info: %s", body)
	}

	estimate := func() (float64, int, string) {
		rec := post(t, h, "/api/estimate", estimateReq{
			SketchID: id, SQL: "SELECT COUNT(*) FROM title t WHERE t.production_year>2000",
		})
		if rec.Code != 200 {
			t.Fatalf("estimate status %d: %s", rec.Code, rec.Body)
		}
		var out struct {
			DeepSketch float64 `json:"deep_sketch"`
			Version    int     `json:"version"`
			Source     string  `json:"source"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out.DeepSketch, out.Version, out.Source
	}
	v1Answer, ver, _ := estimate()
	if ver != 1 {
		t.Errorf("estimate version = %d, want 1", ver)
	}

	// Upload-and-swap: download the current file, build a differently
	// trained sketch? Simplest distinguishable upload: another entry's
	// file. Build one with a different seed and upload its bytes.
	otherID := buildReadySketch(t, h, "donor")
	recDl := get(t, h, fmt.Sprintf("/api/sketches/%d/download", otherID))
	if recDl.Code != 200 {
		t.Fatalf("download status %d", recDl.Code)
	}
	recUp := put(t, h, fmt.Sprintf("/api/sketches/%d", id), recDl.Body.Bytes())
	if recUp.Code != 200 {
		t.Fatalf("upload status %d: %s", recUp.Code, recUp.Body)
	}
	var upEntry sketchEntry
	if err := json.Unmarshal(recUp.Body.Bytes(), &upEntry); err != nil {
		t.Fatal(err)
	}
	if upEntry.Version != 2 {
		t.Errorf("after upload version = %d, want 2", upEntry.Version)
	}
	v2Answer, ver, src := estimate()
	if ver != 2 {
		t.Errorf("post-upload estimate version = %d, want 2", ver)
	}
	if src != "lifecycle" {
		t.Errorf("post-upload estimate source = %q, want the entry's name", src)
	}

	// Rollback restores version 1's answers.
	recRb := post(t, h, fmt.Sprintf("/api/sketches/%d/rollback", id), nil)
	if recRb.Code != 200 {
		t.Fatalf("rollback status %d: %s", recRb.Code, recRb.Body)
	}
	back, ver, _ := estimate()
	if ver != 1 {
		t.Errorf("post-rollback estimate version = %d, want 1", ver)
	}
	if back != v1Answer {
		t.Errorf("post-rollback answer %v, want version 1's %v (v2 was %v)", back, v1Answer, v2Answer)
	}
	// Rolling back past version 1 conflicts.
	if rec := post(t, h, fmt.Sprintf("/api/sketches/%d/rollback", id), nil); rec.Code != http.StatusConflict {
		t.Errorf("rollback past v1 status = %d, want 409", rec.Code)
	}

	// Bad uploads: garbage body, wrong dataset.
	if rec := put(t, h, fmt.Sprintf("/api/sketches/%d", id), []byte("junk")); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage upload status = %d, want 400", rec.Code)
	}
	tpchID := buildReadySketch(t, h, "wrong-ds")
	_ = tpchID
	recDl = get(t, h, fmt.Sprintf("/api/sketches/%d/download", id))
	rec := post(t, h, "/api/sketches", createReq{
		Name: "tpch-target", Dataset: "tpch", SampleSize: 24, TrainQueries: 100, Epochs: 1, HiddenUnits: 8, Seed: 3,
	})
	var tpchEntry sketchEntry
	if err := json.Unmarshal(rec.Body.Bytes(), &tpchEntry); err != nil {
		t.Fatal(err)
	}
	awaitStatus(t, h, tpchEntry.ID, "ready")
	if rec := put(t, h, fmt.Sprintf("/api/sketches/%d", tpchEntry.ID), recDl.Body.Bytes()); rec.Code != http.StatusBadRequest {
		t.Errorf("cross-dataset upload status = %d, want 400", rec.Code)
	}
}

func TestRefreshEndpoint(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	id := buildReadySketch(t, h, "refresh-me")

	rec := post(t, h, fmt.Sprintf("/api/sketches/%d/refresh", id), refreshReq{
		Queries: 80, Epochs: 1, Workers: 2, Seed: 99,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("refresh status %d: %s", rec.Code, rec.Body)
	}
	body := awaitStatus(t, h, id, "ready")
	var info struct {
		Version  int `json:"version"`
		Versions []struct {
			Version int  `json:"version"`
			Live    bool `json:"live"`
			Epochs  int  `json:"epochs"`
		} `json:"versions"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("after refresh version = %d, want 2 (%s)", info.Version, body)
	}
	if len(info.Versions) != 2 || !info.Versions[1].Live || info.Versions[0].Live {
		t.Fatalf("version history after refresh: %s", body)
	}
	if info.Versions[1].Epochs <= info.Versions[0].Epochs {
		t.Errorf("refreshed version should accumulate epochs: %+v", info.Versions)
	}
	// Refresh of a missing sketch 404s.
	if rec := post(t, h, "/api/sketches/999/refresh", refreshReq{}); rec.Code != http.StatusNotFound {
		t.Errorf("missing sketch refresh status = %d", rec.Code)
	}
}

// TestFailedEntryDoesNotShadowItsName: a failed build leaves its entry in
// the list and frees its name, so a second entry may reuse it. Drift events
// and triggers name the sketch, not the entry; they must resolve to the
// entry that serves it, never the failed one.
func TestFailedEntryDoesNotShadowItsName(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	rec := post(t, h, "/api/sketches", createReq{Name: "retried", Dataset: "imdb", Tables: []string{"no_such_table"}})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create status %d: %s", rec.Code, rec.Body)
	}
	srv.bg.Wait()
	id := buildReadySketch(t, h, "retried")
	for i := 0; i < 20; i++ {
		if e := srv.entryByName("imdb", "retried"); e == nil || e.ID != id {
			t.Fatalf("entryByName resolved %+v, want the ready entry %d", e, id)
		}
	}
}
