package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"deepsketch"
)

func TestStorePersistAndRestore(t *testing.T) {
	dir := t.TempDir()

	// First server: build a sketch; it should land in the store.
	srv1 := newServer(serverOptions{titles: 600, orders: 300, seed: 2, driftTruth: true})
	srv1.store = dir
	h1 := srv1.routes()
	rec := post(t, h1, "/api/sketches", createReq{
		Name: "persisted one", Dataset: "imdb",
		SampleSize: 24, TrainQueries: 80, Epochs: 1, HiddenUnits: 8, Seed: 2,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create status %d", rec.Code)
	}
	var entry sketchEntry
	if err := json.Unmarshal(rec.Body.Bytes(), &entry); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		rec := get(t, h1, fmt.Sprintf("/api/sketches/%d", entry.ID))
		var status struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
			t.Fatal(err)
		}
		if status.Status == "failed" {
			t.Fatalf("build failed: %s", status.Error)
		}
		if status.Status == "ready" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for build")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Second server: must restore the sketch from disk and serve estimates.
	srv2 := newServer(serverOptions{titles: 600, orders: 300, seed: 2, driftTruth: true})
	srv2.store = dir
	n, err := srv2.loadStore()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d sketches, want 1", n)
	}
	h2 := srv2.routes()
	rec = post(t, h2, "/api/estimate", estimateReq{
		SketchID: 1, SQL: "SELECT COUNT(*) FROM title t WHERE t.production_year>2000",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("estimate from restored sketch: %d %s", rec.Code, rec.Body)
	}
}

// TestStoreRestartMidCanaryResumes is the restart half of the canary
// acceptance criterion: a daemon that goes down mid-canary comes back with
// the full version history, the same live pointer, and the canary re-armed
// at the same version and fraction — and the rollout can be finished on
// the restarted process.
func TestStoreRestartMidCanaryResumes(t *testing.T) {
	dir := t.TempDir()

	srv1 := newServer(serverOptions{titles: 600, orders: 300, seed: 2, driftTruth: true})
	srv1.store = dir
	h1 := srv1.routes()
	rec := post(t, h1, "/api/sketches", createReq{
		Name: "mid canary", Dataset: "imdb",
		SampleSize: 24, TrainQueries: 100, Epochs: 1, HiddenUnits: 8, Seed: 2,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	awaitStatus(t, h1, 1, "ready")
	rec = post(t, h1, "/api/sketches/1/canary", map[string]any{
		"fraction": 0.25, "queries": 120, "epochs": 1, "workers": 2,
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("canary: %d %s", rec.Code, rec.Body)
	}
	awaitStatus(t, h1, 1, "canarying")

	// "Restart": a fresh server over the same store directory.
	srv2 := newServer(serverOptions{titles: 600, orders: 300, seed: 2, driftTruth: true})
	srv2.store = dir
	n, err := srv2.loadStore()
	if err != nil || n != 1 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	h2 := srv2.routes()
	status, version, canary := entryState(t, h2, 1)
	if status != "canarying" || version != 1 {
		t.Fatalf("restored entry: status=%s version=%d, want canarying v1", status, version)
	}
	if canary == nil || canary.Version != 2 || canary.BaseVersion != 1 || canary.Fraction != 0.25 {
		t.Fatalf("restored canary: %+v, want v2 at 25%% over v1", canary)
	}
	if vs, err := srv2.datasets["imdb"].reg.Versions("mid canary"); err != nil || len(vs) != 2 || !vs[0].Live || !vs[1].Canary {
		t.Fatalf("restored history: %+v, %v", vs, err)
	}
	// The drift controller adopted the resumed canary: were the automatic
	// loop running, its gate would finish the rollout.
	if cy := srv2.datasets["imdb"].ctrl.Cycle("mid canary"); cy.State != "canarying" {
		t.Fatalf("controller did not adopt the resumed canary: %+v", cy)
	}

	// The resumed rollout finishes on the restarted daemon.
	if rec := post(t, h2, "/api/sketches/1/promote", nil); rec.Code != http.StatusOK {
		t.Fatalf("promote on restarted daemon: %d %s", rec.Code, rec.Body)
	}
	status, version, canary = entryState(t, h2, 1)
	if status != "ready" || version != 2 || canary != nil {
		t.Fatalf("post-promote: status=%s version=%d canary=%+v", status, version, canary)
	}
	rec = post(t, h2, "/api/estimate", estimateReq{
		SketchID: 1, SQL: "SELECT COUNT(*) FROM title t WHERE t.production_year>2000",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("estimate after resumed promote: %d %s", rec.Code, rec.Body)
	}

	// Third start: the promoted state persisted — live v2, no canary.
	srv3 := newServer(serverOptions{titles: 600, orders: 300, seed: 2, driftTruth: true})
	srv3.store = dir
	if n, err := srv3.loadStore(); err != nil || n != 1 {
		t.Fatalf("second restore: n=%d err=%v", n, err)
	}
	h3 := srv3.routes()
	status, version, canary = entryState(t, h3, 1)
	if status != "ready" || version != 2 || canary != nil {
		t.Fatalf("after promote restart: status=%s version=%d canary=%+v", status, version, canary)
	}
}

func TestLoadStoreMissingDir(t *testing.T) {
	srv := newServer(serverOptions{titles: 400, orders: 200, seed: 1, driftTruth: true})
	srv.store = t.TempDir() + "/does-not-exist"
	n, err := srv.loadStore()
	if err != nil || n != 0 {
		t.Errorf("missing dir should be a clean no-op, got n=%d err=%v", n, err)
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"hello-world_1": "hello-world_1",
		"a b/c":         "a_b_c",
		"":              "sketch",
		"ü":             "_",
	}
	for in, want := range cases {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPersistStateCrashConsistent is the regression test for the
// missing-fsync-before-rename bug in persistState: a daemon killed
// mid-persist used to be able to leave a torn state.json.tmp (and, on a
// journaling filesystem replaying the rename without the data blocks, a
// torn state.json). The store must ignore the crash artifact on restore,
// and a fresh persist must replace state.json atomically and leave no
// temp file behind.
func TestPersistStateCrashConsistent(t *testing.T) {
	dir := t.TempDir()

	// Hand-write the layout a crashed daemon leaves: a valid version file
	// and state.json, plus a torn state.json.tmp cut down mid-write.
	db := deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: 7, Titles: 400, Keywords: 20, Companies: 10, Persons: 60})
	sk, err := deepsketch.Build(db, deepsketch.Config{
		Name: "crashy", SampleSize: 16, TrainQueries: 60, MaxJoins: 1, MaxPreds: 1, Seed: 3,
		Model: deepsketch.ModelConfig{HiddenUnits: 8, Epochs: 1, BatchSize: 16, Seed: 3},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	skDir := filepath.Join(dir, "crashy")
	if err := os.MkdirAll(skDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := deepsketch.SaveFile(sk, filepath.Join(skDir, "v1.dsk")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(skDir, "state.json"), []byte(`{"name":"crashy","dataset":"imdb","live":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(skDir, "state.json.tmp")
	if err := os.WriteFile(tmp, []byte(`{"name":"crashy","data`), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := newServer(serverOptions{titles: 400, orders: 200, seed: 1, driftTruth: true})
	srv.store = dir
	n, err := srv.loadStore()
	if err != nil || n != 1 {
		t.Fatalf("loadStore: n=%d err=%v, want 1 restored despite torn tmp", n, err)
	}
	var entry *sketchEntry
	for _, e := range srv.sketches {
		if e.Name == "crashy" {
			entry = e
		}
	}
	if entry == nil {
		t.Fatal("restored sketch not registered")
	}

	// A fresh persist must atomically replace state.json and consume the
	// temp path (fsx.AtomicWriteFile syncs then renames it).
	srv.persistState(entry)
	blob, err := os.ReadFile(filepath.Join(skDir, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	var st storeState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatalf("state.json torn after persist: %v\n%s", err, blob)
	}
	if st.Name != "crashy" || st.Live != 1 {
		t.Fatalf("persisted state %+v, want live v1 of crashy", st)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("state.json.tmp still present after persist (err=%v); atomic write must consume it", err)
	}
}

// TestStoreDirectoryOwnedByOneSketch: a sketch's store directory is named
// after its sanitized name alone, so two live entries whose names sanitize
// alike — the same name on both datasets, or "a.b" and "a_b" — would
// overwrite each other's version files and state.json, and a restart would
// silently restore only one of them. Creating the second is a 409, with or
// without a store, and a version file for another dataset than state.json
// names is refused on restore.
func TestStoreDirectoryOwnedByOneSketch(t *testing.T) {
	for _, store := range []string{"", t.TempDir()} {
		srv := newServer(serverOptions{titles: 400, orders: 200, seed: 1, driftTruth: true})
		srv.store = store
		h := srv.routes()
		for _, owner := range []string{"same", "a.b"} {
			if _, err := srv.register(owner, srv.datasets["imdb"]); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct{ name, dataset string }{{"same", "tpch"}, {"a_b", "imdb"}, {"a_b", "tpch"}} {
			rec := post(t, h, "/api/sketches", createReq{Name: c.name, Dataset: c.dataset})
			if rec.Code != http.StatusConflict {
				t.Errorf("store %q: create %q on %s = %d, want 409 (%s)", store, c.name, c.dataset, rec.Code, rec.Body)
			}
		}
	}

	dir := t.TempDir()
	db := deepsketch.NewIMDb(deepsketch.IMDbConfig{Seed: 7, Titles: 400, Keywords: 20, Companies: 10, Persons: 60})
	sk, err := deepsketch.Build(db, deepsketch.Config{
		Name: "misfiled", SampleSize: 16, TrainQueries: 60, MaxJoins: 1, MaxPreds: 1, Seed: 3,
		Model: deepsketch.ModelConfig{HiddenUnits: 8, Epochs: 1, BatchSize: 16, Seed: 3},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	skDir := filepath.Join(dir, "misfiled")
	if err := os.MkdirAll(skDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := deepsketch.SaveFile(sk, filepath.Join(skDir, "v1.dsk")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(skDir, "state.json"), []byte(`{"name":"misfiled","dataset":"tpch","live":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := newServer(serverOptions{titles: 400, orders: 200, seed: 1, driftTruth: true})
	srv.store = dir
	if n, err := srv.loadStore(); err != nil || n != 0 {
		t.Fatalf("loadStore of an imdb version file under a tpch state.json: n=%d err=%v, want 0 restored", n, err)
	}
}
