package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/deploy"
	"dupserve/internal/httpserver"
)

// do runs one request against h and returns the recorded response.
func do(h http.Handler, method, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec
}

func TestGuardRejectsNonGET(t *testing.T) {
	called := false
	h := guard(func() bool { return true }, func(w http.ResponseWriter, r *http.Request) { called = true })
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

// debugRoutes is every /debug route the all role mounts, each with the
// query that makes its GET answer 200 quickly.
var debugRoutes = []string{
	"/debug/metrics", "/debug/metrics.json", "/debug/traces", "/debug/serve",
	"/debug/journal", "/debug/flight?capture=1", "/debug/audit",
	"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/profile?seconds=1",
	"/debug/pprof/symbol", "/debug/pprof/trace?seconds=0.01",
}

// TestRoleDebugSurfacesAreReadOnly drives the real HTTP surfaces over an
// in-process deployment: every /debug route of the serving plant answers a
// JSON 503 before the caches are primed, 405 to a non-GET, and 200 once
// ready; the node role's /debug/metrics refuses POST and serves GET.
func TestRoleDebugSurfacesAreReadOnly(t *testing.T) {
	p := newPlant(flags{nodes: 2, days: 2, slo: time.Minute}, deploy.ComplexSpec{Name: "nagano", NodesPerFrame: 2})
	t.Cleanup(func() { _ = p.d.Shutdown(context.Background()) })
	surfaces := []struct {
		role  string
		mux   http.Handler
		paths []string
	}{
		{"node", nodeMux(p.reg), []string{"/debug/metrics"}},
		{"all", p.mux(), debugRoutes},
	}
	all := surfaces[1]
	for _, path := range all.paths {
		rec := do(all.mux, http.MethodGet, path)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("GET %s before ready: status %d Content-Type %q, want a JSON 503", path, rec.Code, rec.Header().Get("Content-Type"))
		}
	}
	p.prime()
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

// TestWritePage pins the outcome-to-HTTP mapping both the all and master
// roles answer page requests with.
func TestWritePage(t *testing.T) {
	page := &cache.Object{Key: "/en/medals", Value: []byte("<html>medals</html>"),
		ContentType: "text/html; charset=utf-8", Version: 42}
	for _, tc := range []struct {
		name    string
		obj     *cache.Object
		outcome httpserver.Outcome
		err     error
		status  int
		body    string
	}{
		{"notfound", nil, httpserver.OutcomeNotFound, httpserver.ErrNoRoute, http.StatusNotFound, "404 page not found\n"},
		{"shed", nil, httpserver.OutcomeShed, httpserver.ErrOverloaded, http.StatusServiceUnavailable, "overloaded\n"},
		{"error", nil, httpserver.OutcomeError, errors.New("render exploded"), http.StatusInternalServerError, "render exploded\n"},
		{"hit", page, httpserver.OutcomeHit, nil, http.StatusOK, "<html>medals</html>"},
		{"miss", page, httpserver.OutcomeMiss, nil, http.StatusOK, "<html>medals</html>"},
		{"static", page, httpserver.OutcomeStatic, nil, http.StatusOK, "<html>medals</html>"},
		{"stale", page, httpserver.OutcomeStale, nil, http.StatusOK, "<html>medals</html>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			status, n := writePage(rec, httptest.NewRequest(http.MethodGet, "/en/medals", nil), tc.obj, tc.outcome, tc.err)
			if status != tc.status || rec.Code != tc.status {
				t.Fatalf("status = %d, recorded %d, want %d", status, rec.Code, tc.status)
			}
			if got := rec.Body.String(); got != tc.body {
				t.Fatalf("body = %q, want %q", got, tc.body)
			}
			h := rec.Header()
			if tc.status != http.StatusOK {
				if n != 0 {
					t.Fatalf("bytes = %d for an error answer, want 0", n)
				}
				if got := h.Get("Retry-After"); (tc.outcome == httpserver.OutcomeShed) != (got != "") {
					t.Fatalf("Retry-After = %q on a %s answer", got, tc.name)
				}
				return
			}
			if n != len(page.Value) {
				t.Fatalf("bytes = %d, want %d", n, len(page.Value))
			}
			for key, want := range map[string]string{
				"Content-Type": page.ContentType,
				"X-Cache":      tc.name,
				"X-Version":    "42",
			} {
				if got := h.Get(key); got != want {
					t.Fatalf("%s = %q, want %q", key, got, want)
				}
			}
		})
	}
}
