package stats

import (
	"strings"
	"testing"
)

func TestRegistryCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	var c Counter
	var g Gauge
	r.RegisterCounter("requests_total", "total requests", Labels{"node": "up0"}, &c)
	r.RegisterGauge("cache_bytes", "cache size", nil, &g)
	c.Add(3)
	g.Set(42)

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("families = %d, want 2", len(snap))
	}
	// Families come back sorted by name.
	if snap[0].Name != "cache_bytes" || snap[1].Name != "requests_total" {
		t.Fatalf("unexpected family order: %q, %q", snap[0].Name, snap[1].Name)
	}
	if snap[0].Series[0].Value != 42 {
		t.Fatalf("gauge value = %v, want 42", snap[0].Series[0].Value)
	}
	if snap[1].Series[0].Value != 3 {
		t.Fatalf("counter value = %v, want 3", snap[1].Series[0].Value)
	}
	if snap[1].Series[0].Labels["node"] != "up0" {
		t.Fatalf("labels lost: %v", snap[1].Series[0].Labels)
	}
}

func TestRegistryLabeledFamily(t *testing.T) {
	r := NewRegistry()
	for _, node := range []string{"up1", "up0", "up2"} {
		var c Counter
		r.RegisterCounter("hits_total", "", Labels{"node": node}, &c)
	}
	fams := r.Families()
	if len(fams) != 1 {
		t.Fatalf("families = %d, want 1", len(fams))
	}
	snap := r.Snapshot()
	if len(snap[0].Series) != 3 {
		t.Fatalf("series = %d, want 3", len(snap[0].Series))
	}
	// Series are sorted by canonical label key.
	for i, want := range []string{"up0", "up1", "up2"} {
		if got := snap[0].Series[i].Labels["node"]; got != want {
			t.Fatalf("series %d node = %q, want %q", i, got, want)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	var a, b Counter
	r.RegisterCounter("x", "", Labels{"n": "1"}, &a)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.RegisterCounter("x", "", Labels{"n": "1"}, &b)
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	var c Counter
	var g Gauge
	r.RegisterCounter("x", "", nil, &c)
	defer func() {
		if recover() == nil {
			t.Fatal("type conflict did not panic")
		}
	}()
	r.RegisterGauge("x", "", Labels{"n": "2"}, &g)
}

func TestRegistryFuncMetric(t *testing.T) {
	r := NewRegistry()
	v := 0.25
	r.RegisterFunc("hit_rate", "aggregate hit rate", nil, func() float64 { return v })
	if got := r.Snapshot()[0].Series[0].Value; got != 0.25 {
		t.Fatalf("func value = %v, want 0.25", got)
	}
	v = 0.75
	if got := r.Snapshot()[0].Series[0].Value; got != 0.75 {
		t.Fatalf("func value after change = %v, want 0.75 (must compute on read)", got)
	}
}

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(7)
	r.RegisterCounter("reqs_total", "requests", Labels{"node": "up0"}, &c)
	h := NewHistogram(1, 10)
	r.RegisterHistogram("lat_seconds", "latency", nil, h)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	r.RegisterFunc("up", "", nil, func() float64 { return 1 })

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP reqs_total requests",
		"# TYPE reqs_total counter",
		`reqs_total{node="up0"} 7`,
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="10"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3",
		"# TYPE up gauge",
		"up 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryHistogramSnapshotQuantiles(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram(1, 2, 4, 8)
	r.RegisterHistogram("d", "", nil, h)
	for i := 0; i < 100; i++ {
		h.Observe(1.5)
	}
	s := r.Snapshot()[0].Series[0]
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.P50 < 1 || s.P50 > 2 {
		t.Fatalf("p50 = %v, want within (1,2]", s.P50)
	}
	if len(s.Bounds) != 4 || len(s.Counts) != 5 {
		t.Fatalf("bounds/counts lens = %d/%d, want 4/5", len(s.Bounds), len(s.Counts))
	}
}
