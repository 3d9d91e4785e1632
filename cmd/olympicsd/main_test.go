package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/deploy"
	"dupserve/internal/dispatch"
	"dupserve/internal/httpserver"
	"dupserve/internal/weblog"
	"dupserve/internal/wire"
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
	t.Cleanup(func() { _ = p.shutdown(context.Background()) })
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
		{"nobackends", nil, httpserver.OutcomeError, fmt.Errorf("%w (nagano)", dispatch.ErrNoBackends),
			http.StatusServiceUnavailable, "dispatch: no healthy backends (nagano)\n"},
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
				if got := h.Get("Retry-After"); (tc.status == http.StatusServiceUnavailable) != (got != "") {
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

// TestEvictedPlantAnswers503: with every node out of the distribution list
// a page GET has no node to try, a transient state: the plant answers 503
// with Retry-After, never 500.
func TestEvictedPlantAnswers503(t *testing.T) {
	p := newPlant(flags{nodes: 2, days: 2, slo: time.Minute}, deploy.ComplexSpec{Name: "nagano", NodesPerFrame: 2})
	t.Cleanup(func() { _ = p.shutdown(context.Background()) })
	p.prime()
	// Failed nodes fail their probes too, so no advisor sweep readmits them.
	for _, n := range p.cx.Cluster.Nodes() {
		n.Fail()
	}
	mux, page := p.mux(), p.cx.Site.Pages()[0]
	for i := 0; i < 3; i++ {
		rec := do(mux, http.MethodGet, page)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Fatalf("GET %s %d: status %d Retry-After %q, want 503 with Retry-After: %s",
				page, i, rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
		}
	}
	if n := p.cx.Dispatcher.HealthyCount(); n != 0 {
		t.Fatalf("%d nodes still in the distribution list, want none", n)
	}
}

// TestPagesAnswer503BeforePrime: until prime has warmed the caches a page
// GET answers 503 with Retry-After, never a render error's 500 (the replica
// may not have applied the seed yet); after prime the same GET is a 200.
func TestPagesAnswer503BeforePrime(t *testing.T) {
	p := newPlant(flags{nodes: 2, days: 2, slo: time.Minute}, deploy.ComplexSpec{Name: "nagano", NodesPerFrame: 2})
	t.Cleanup(func() { _ = p.shutdown(context.Background()) })
	mux, page := p.mux(), p.cx.Site.Pages()[0]
	for i := 0; i < 3; i++ {
		rec := do(mux, http.MethodGet, page)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Fatalf("GET %s %d before prime: status %d Retry-After %q, want 503 with Retry-After: %s",
				page, i, rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
		}
	}
	p.prime()
	if rec := do(mux, http.MethodGet, page); rec.Code != http.StatusOK {
		t.Fatalf("GET %s after prime: status %d, want 200: %s", page, rec.Code, rec.Body.String())
	}
}

// TestAccessLogFileFlushes: the -accesslog file shows every request within
// two flush intervals without anyone reading /logreport, and every request
// once the plant has shut down.
func TestAccessLogFileFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "access.log")
	p := newPlant(flags{nodes: 2, days: 2, slo: time.Minute, accessLog: path},
		deploy.ComplexSpec{Name: "nagano", NodesPerFrame: 2})
	p.prime()
	h := p.mux()
	pages := p.cx.Site.Pages()[:5]
	var want []string
	get := func(paths []string) {
		for _, path := range paths {
			if rec := do(h, http.MethodGet, path); rec.Code != http.StatusOK {
				t.Fatalf("GET %s: status %d", path, rec.Code)
			}
			want = append(want, path)
		}
	}
	logged := func() []string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if line == "" {
				continue
			}
			e, err := weblog.ParseEntry(line)
			if err != nil {
				t.Fatal(err)
			}
			paths = append(paths, e.Path)
		}
		return paths
	}

	get(pages)
	for deadline := time.Now().Add(2 * logFlushInterval); len(logged()) < len(want); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after %v the file holds %d of %d lines", 2*logFlushInterval, len(logged()), len(want))
		}
	}
	get(pages[:3])
	if err := p.shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := logged(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("after shutdown the file holds %v, want %v", got, want)
	}
}

// discard is a ResponseWriter that keeps only the status, so the soak
// measures the plant and not a recorder's buffered bodies.
type discard struct {
	h    http.Header
	code int
}

func (w *discard) Header() http.Header         { return w.h }
func (w *discard) Write(b []byte) (int, error) { return len(b), nil }
func (w *discard) WriteHeader(code int)        { w.code = code }

// soakGETs is how many page GETs the soak drives through a plant, from
// soakClients goroutines at once.
const (
	soakGETs    = 100_000
	soakClients = 4
)

// soak drives soakGETs page GETs, cycling the site's pages, through the
// primed plant's mux in-process. Post-GC heap may grow by under 2 MB from
// the 10% mark to the end: nothing the plant keeps may grow with the
// request count.
func soak(t *testing.T, p *plant) {
	t.Helper()
	h := p.mux()
	pages := p.cx.Site.Pages()
	// Each client reuses one request per page: the mux records its match
	// in the request, so clients do not share them.
	reqs := make([][]*http.Request, soakClients)
	for c := range reqs {
		for _, path := range pages {
			reqs[c] = append(reqs[c], httptest.NewRequest(http.MethodGet, path, nil))
		}
	}
	drive := func(n int) {
		var wg sync.WaitGroup
		for c := 0; c < soakClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				w := &discard{h: http.Header{}}
				for i := c; i < n; i += soakClients {
					r := reqs[c][i%len(pages)]
					w.code = http.StatusOK
					h.ServeHTTP(w, r)
					if w.code != http.StatusOK {
						t.Errorf("GET %s: status %d", r.URL.Path, w.code)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	drive(soakGETs / 10)
	mark := heap()
	drive(soakGETs - soakGETs/10)
	end := heap()
	t.Logf("%d GETs over %d pages: post-GC heap %.1f MB at the 10%% mark, %.1f MB at the end",
		soakGETs, len(pages), float64(mark)/1e6, float64(end)/1e6)
	if end > mark+2<<20 {
		t.Fatalf("post-GC heap grew %.1f MB over %d GETs, want under 2 MB",
			float64(end-mark)/1e6, soakGETs-soakGETs/10)
	}
	if rep := p.access.Report(1); rep.Entries != soakGETs || rep.Errors != 0 {
		t.Fatalf("/logreport entries=%d errors=%d, want %d and 0", rep.Entries, rep.Errors, soakGETs)
	}
}

// waitGoroutines waits for the goroutine count to come back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after shutdown, %d before the plant:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestSoakAllRole soaks the all role's in-process plant, then shuts it
// down: every goroutine it started must end.
func TestSoakAllRole(t *testing.T) {
	base := runtime.NumGoroutine()
	p := newPlant(flags{nodes: 2, days: 2, slo: time.Minute}, deploy.ComplexSpec{Name: "nagano", NodesPerFrame: 2})
	p.prime()
	soak(t, p)
	if err := p.shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// TestSoakMasterRole soaks the master role's plant over two node servers
// built as the node role builds them, listening on loopback; after the
// plant and the nodes shut down every goroutine they started must end.
func TestSoakMasterRole(t *testing.T) {
	base := runtime.NumGoroutine()
	var nodes []*wire.Server
	var peers []string
	for i := 0; i < 2; i++ {
		ws, _ := newNode(flags{name: fmt.Sprintf("soak%d", i), days: 2})
		t.Cleanup(ws.Close)
		addr, err := ws.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes, peers = append(nodes, ws), append(peers, addr.String())
	}
	p := newPlant(flags{days: 2, slo: time.Minute}, deploy.ComplexSpec{Name: "master", Peers: peers})
	p.prime()
	soak(t, p)
	if err := p.shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, ws := range nodes {
		ws.Close()
	}
	waitGoroutines(t, base)
}
