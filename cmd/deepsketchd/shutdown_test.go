package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// TestCloseJoinsInFlightRefresh is the regression test for the shutdown
// race this PR closes: the daemon used to fire build/refresh goroutines
// with no join, so a shutdown could return — and tear down the store
// directory — while a refresh was still writing sketch files. Close must
// block until the in-flight refresh has fully landed or failed, and the
// store it leaves behind must restore cleanly on a fresh server.
func TestCloseJoinsInFlightRefresh(t *testing.T) {
	dir := t.TempDir()
	srv := newServer(serverOptions{titles: 600, orders: 300, seed: 2, driftTruth: true})
	srv.store = dir
	h := srv.routes()
	id := buildReadySketch(t, h, "joined")

	rec := post(t, h, fmt.Sprintf("/api/sketches/%d/refresh", id), refreshReq{Queries: 120, Epochs: 1})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("refresh status %d: %s", rec.Code, rec.Body)
	}

	// Close while the refresh goroutine is in flight. It must not return
	// until the goroutine is done — and must not hang either.
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("Close did not return while a refresh was in flight")
	}

	// The join guarantees the refresh reached a terminal state before
	// Close returned: "refreshing" after Close would mean the goroutine
	// outlived the shutdown.
	rec = get(t, h, fmt.Sprintf("/api/sketches/%d", id))
	var st struct {
		Status  string `json:"status"`
		Error   string `json:"error"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Status == "refreshing" {
		t.Fatalf("entry still refreshing after Close (error %q)", st.Error)
	}
	if st.Status != "ready" {
		t.Fatalf("entry is %q after Close: %s", st.Status, st.Error)
	}
	if st.Version != 2 {
		t.Fatalf("serving version %d after joined refresh, want 2", st.Version)
	}

	// The store the shutdown left behind is complete and consistent: a
	// fresh daemon restores the sketch and its refreshed version.
	srv2 := newServer(serverOptions{titles: 600, orders: 300, seed: 2, driftTruth: true})
	srv2.store = dir
	n, err := srv2.loadStore()
	if err != nil {
		t.Fatalf("restoring store written under shutdown: %v", err)
	}
	if n != 1 {
		t.Fatalf("restored %d sketches, want 1", n)
	}
	rec = get(t, srv2.routes(), fmt.Sprintf("/api/sketches/%d", id))
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "ready" || st.Version != 2 {
		t.Fatalf("restored entry status %q version %d, want ready v2", st.Status, st.Version)
	}
}

// TestCloseStopsCoalescers: every serving stack the server builds — the
// per-dataset auto stacks and one per installed sketch — runs a coalescer
// flush goroutine. Close must stop them all, so a server that served a
// sketch leaves no goroutine behind.
func TestCloseStopsCoalescers(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := newServer(serverOptions{titles: 600, orders: 300, seed: 2, driftTruth: true})
	h := srv.routes()
	id := buildReadySketch(t, h, "closed")
	for _, req := range []estimateReq{{SketchID: id, SQL: "SELECT COUNT(*) FROM title"}, {SQL: "SELECT COUNT(*) FROM title"}} {
		if rec := post(t, h, "/api/estimate", req); rec.Code != http.StatusOK {
			t.Fatalf("estimate %+v: %d %s", req, rec.Code, rec.Body)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the server", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
