package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dupserve/internal/obs"
	"dupserve/internal/stats"
)

// do runs one request against h and returns the recorded response.
func do(h http.Handler, method, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec
}

func TestGuardRejectsNonGET(t *testing.T) {
	called := false
	h := guard(serving, func(w http.ResponseWriter, r *http.Request) { called = true })
	for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
		rec := do(h, method, "/debug/x")
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("%s: status %d, want 405", method, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); !strings.Contains(allow, "GET") {
			t.Fatalf("%s: Allow = %q, want GET listed", method, allow)
		}
	}
	if called {
		t.Fatal("a non-GET request reached the handler")
	}
}

func TestGuardAnswersJSON503BeforeReady(t *testing.T) {
	ready := false
	called := false
	h := guard(func() bool { return ready }, func(w http.ResponseWriter, r *http.Request) {
		called = true
		w.WriteHeader(http.StatusTeapot)
	})

	rec := do(h, http.MethodGet, "/debug/x")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("before ready: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("before ready: no Retry-After")
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("before ready: Content-Type %q, want application/json", ct)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == nil {
		t.Fatalf("before ready: body %q is not a JSON error (%v)", rec.Body.String(), err)
	}
	if called {
		t.Fatal("handler reached before ready")
	}

	ready = true
	if rec := do(h, http.MethodGet, "/debug/x"); rec.Code != http.StatusTeapot || !called {
		t.Fatalf("after ready: status %d, handler reached %v", rec.Code, called)
	}
}

// TestRoleDebugSurfacesAreReadOnly drives the node and master roles' real
// HTTP surfaces: every /debug endpoint refuses POST and serves GET.
func TestRoleDebugSurfacesAreReadOnly(t *testing.T) {
	reg := stats.NewRegistry()
	master := &masterPlane{reg: reg, suite: obs.NewSuite()}
	surfaces := []struct {
		role  string
		mux   http.Handler
		paths []string
	}{
		{"node", nodeMux(reg), []string{"/debug/metrics"}},
		{"master", master.mux(), []string{"/debug/metrics", "/debug/journal"}},
	}
	for _, s := range surfaces {
		for _, path := range s.paths {
			if rec := do(s.mux, http.MethodPost, path); rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") == "" {
				t.Fatalf("%s POST %s: status %d Allow %q, want 405 with Allow", s.role, path, rec.Code, rec.Header().Get("Allow"))
			}
			if rec := do(s.mux, http.MethodGet, path); rec.Code != http.StatusOK {
				t.Fatalf("%s GET %s: status %d, want 200", s.role, path, rec.Code)
			}
		}
	}
}
