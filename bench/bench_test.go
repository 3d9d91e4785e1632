package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dupserve/internal/site"
)

// manifest is BENCHMARK.json as the tests read it.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func smoke(t *testing.T, w workloadSpec, seed int64) *result {
	t.Helper()
	res, err := runWorkload(runConfig{
		w: w, spec: site.DefaultSpec(), seed: seed,
		warmup: 100 * time.Millisecond, window: 400 * time.Millisecond,
		setups: 1, trace: true, outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSmoke runs every workload on the toy site with a short window and
// checks that each metric BENCHMARK.json declares is reported, finite and in
// the declared unit, that nothing failed, and that every dynamic response
// was a cache hit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four plants")
	}
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the bench has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the bench has %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		t.Run(w.name, func(t *testing.T) {
			res := smoke(t, w, 7)
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Problems)
			}
			for _, d := range m.EndToEnd {
				checkMetric(t, res.EndToEnd, d.Name, d.Unit)
			}
			for _, d := range m.PerLayer {
				checkMetric(t, res.PerLayer, d.Name, d.Unit)
			}
			if n := len(res.EndToEnd) + len(res.PerLayer); n != len(m.EndToEnd)+len(m.PerLayer) {
				t.Errorf("%d metrics reported, %d declared", n, len(m.EndToEnd)+len(m.PerLayer))
			}
			if got := res.EndToEnd["hit_ratio"].Value; got != 1 {
				t.Errorf("hit_ratio = %v, want exactly 1 under update-in-place", got)
			}
			for _, name := range []string{"serve_rps", "serve_p95_ms", "fresh_p50_ms", "propagate_pages_per_s", "setup_s"} {
				if res.EndToEnd[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.EndToEnd[name].Value)
				}
			}
		})
	}
}

func checkMetric(t *testing.T, got map[string]metric, name, unit string) {
	t.Helper()
	m, ok := got[name]
	switch {
	case !ok:
		t.Errorf("%s: not reported", name)
	case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
		t.Errorf("%s = %v, want a finite number", name, m.Value)
	case m.Unit != unit:
		t.Errorf("%s is in %q, BENCHMARK.json says %q", name, m.Unit, unit)
	}
}

// TestCountsRepeat: where commits come at the live rate the seed fixes which
// transactions fall in the window, so the counts a later change may rest a
// claim on come out the same twice. (A closed-loop committer commits as many
// as it gets through, so update_burst makes no such promise.)
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two plants")
	}
	w, _ := findWorkload("mixed_live")
	a, b := smoke(t, w, 11), smoke(t, w, 11)
	for _, name := range []string{"odg.affected_per_tx", "fragment.renders", "core.pages_per_batch"} {
		if a.PerLayer[name].Value != b.PerLayer[name].Value || a.PerLayer[name].Value == 0 {
			t.Errorf("%s: %v then %v, want the same non-zero count twice", name, a.PerLayer[name].Value, b.PerLayer[name].Value)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, used float64
	}{
		{1000, 99, 99}, // exactly ten beyond
		{999, 99, 95},
		{200, 95, 95},
		{199, 95, 90},
		{480, 95, 95},
		{480, 99, 95},
		{25, 99, 50},
		{3, 99, 50},
	} {
		if got := supportedPercentile(c.n, c.want); got != c.used {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.used)
		}
	}
	var d dist
	for i := 1; i <= 100; i++ {
		d.add(float64(i))
	}
	if v, used := d.tail(99); used != 90 || v != 90 {
		t.Errorf("tail(99) of 1..100 = %v at p%v, want 90 at p90 (ten samples beyond)", v, used)
	}
	if v := d.at(50); v != 50 {
		t.Errorf("median of 1..100 = %v, want 50", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

// TestOpenLoopChargesStall: when the server stalls once, an open-loop
// generator must charge the stall to every request that came due meanwhile,
// not only to the one that was in flight, and must report how late it ran.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 40 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 20 {
			time.Sleep(stall)
		}
		w.Header().Set("X-Cache", "hit")
		w.Header().Set("X-Version", "1")
		w.Write([]byte("<html></html>"))
	}))
	defer srv.Close()
	c, err := dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()

	r := &run{p: &plant{}, paths: []string{"/x"}, reqs: [][]byte{request("/x")}}
	r.start = now()
	r.winStart = r.start
	r.winEnd = r.start + int64(200*time.Millisecond)
	r.sliceLen = r.winEnd - r.winStart
	l := &readerLog{}
	r.readOpen(l, c, 1000)

	if l.failed != 0 || l.ok != 200 {
		t.Fatalf("ok %d, failed %d (%v), want all 200 requests of the schedule answered", l.ok, l.failed, l.errs)
	}
	delayed, late := 0, 0
	for _, slice := range l.latency {
		for _, ns := range slice {
			if time.Duration(ns) >= stall/4 {
				delayed++
			}
		}
	}
	for _, ns := range l.late {
		if time.Duration(ns) >= stall/4 {
			late++
		}
	}
	// Roughly 40 requests came due during the stall; three quarters of them
	// waited at least a quarter of it. Timed from the send, only one would.
	if delayed < 20 {
		t.Errorf("%d requests show the stall in their latency, want at least 20: latency must run from the due time", delayed)
	}
	if late < 20 {
		t.Errorf("%d requests reported as sent late, want at least 20", late)
	}
}
