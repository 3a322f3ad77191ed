package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestSketchRoutesResolveIDs pins the status codes of every
// /api/sketches/{id}… route for ids that do not resolve to a ready entry:
// an unknown id and a non-numeric id are 404 everywhere, and the
// version-changing routes refuse an entry that is still building with 409.
func TestSketchRoutesResolveIDs(t *testing.T) {
	srv := testServer(t)
	h := srv.routes()
	building, err := srv.register("still building", srv.datasets["imdb"])
	if err != nil {
		t.Fatal(err)
	}
	routes := []struct {
		method, suffix string
		body           string
		// onBuilding is the status for an entry that is still building;
		// 0 leaves it unchecked.
		onBuilding int
	}{
		{method: "GET", suffix: ""},
		{method: "PUT", suffix: ""},
		{method: "GET", suffix: "/download", onBuilding: http.StatusConflict},
		{method: "POST", suffix: "/refresh", body: `{}`, onBuilding: http.StatusConflict},
		{method: "POST", suffix: "/rollback", onBuilding: http.StatusConflict},
		{method: "GET", suffix: "/drift", onBuilding: http.StatusOK},
		{method: "POST", suffix: "/actuals", body: `{"sql":"SELECT COUNT(*) FROM title","actual":1}`},
		{method: "POST", suffix: "/canary", body: `{"fraction":0.5}`, onBuilding: http.StatusConflict},
		{method: "POST", suffix: "/promote", onBuilding: http.StatusConflict},
		{method: "DELETE", suffix: "/canary", onBuilding: http.StatusConflict},
	}
	do := func(method, path, body string) int {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	for _, rt := range routes {
		t.Run(rt.method+rt.suffix, func(t *testing.T) {
			for _, id := range []string{"99", "abc"} {
				path := "/api/sketches/" + id + rt.suffix
				if got := do(rt.method, path, rt.body); got != http.StatusNotFound {
					t.Errorf("%s %s = %d, want 404", rt.method, path, got)
				}
			}
			if rt.onBuilding == 0 {
				return
			}
			path := fmt.Sprintf("/api/sketches/%d%s", building.ID, rt.suffix)
			if got := do(rt.method, path, rt.body); got != rt.onBuilding {
				t.Errorf("%s %s on a building entry = %d, want %d", rt.method, path, got, rt.onBuilding)
			}
		})
	}
}
