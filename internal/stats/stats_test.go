package stats

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterBasic(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	if got := c.Reset(); got != 42 {
		t.Fatalf("Reset returned %d, want 42", got)
	}
	if got := c.Value(); got != 0 {
		t.Fatalf("after Reset Value = %d, want 0", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, per = 16, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestGaugeTracksMax(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Set(5)
	if g.Value() != 5 || g.Max() != 10 {
		t.Fatalf("Value=%d Max=%d, want 5/10", g.Value(), g.Max())
	}
	g.Add(20)
	if g.Value() != 25 || g.Max() != 25 {
		t.Fatalf("Value=%d Max=%d, want 25/25", g.Value(), g.Max())
	}
	g.Add(-30)
	if g.Value() != -5 || g.Max() != 25 {
		t.Fatalf("Value=%d Max=%d, want -5/25", g.Value(), g.Max())
	}
}

func TestGaugeConcurrentMax(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 1; i <= 100; i++ {
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			g.Set(v)
		}(int64(i))
	}
	wg.Wait()
	if g.Max() != 100 {
		t.Fatalf("Max = %d, want 100", g.Max())
	}
}

func TestGaugeConcurrentAddMax(t *testing.T) {
	// Workers each add +1 n times then -1 n times; the peak must equal the
	// moment every +1 had landed, and Max must never lose a raise even when
	// adders race through the shared updateMax CAS loop.
	const workers, per = 8, 1000
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if g.Max() != workers*per {
		t.Fatalf("Max after adds = %d, want %d", g.Max(), workers*per)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 0 {
		t.Fatalf("Value after drain = %d, want 0", g.Value())
	}
	if g.Max() != workers*per {
		t.Fatalf("Max after drain = %d, want %d (max must not decay)", g.Max(), workers*per)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{{}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	_, counts := h.Buckets()
	want := []int64{2, 1, 1, 1} // <=1: {0.5,1}; <=10: {5}; <=100: {50}; overflow: {500}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, counts[i], want[i], counts)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(1000)
	h.Observe(2)
	h.Observe(4)
	if got := h.Mean(); math.Abs(got-3) > 1e-6 {
		t.Fatalf("Mean = %g, want 3", got)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(1, 2)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("Quantile on empty = %g, want 0", got)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8, 16, 32)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		h.Observe(rng.Float64() * 40)
	}
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone: q=%g v=%g prev=%g", q, v, prev)
		}
		prev = v
	}
}

func TestSummaryPercentiles(t *testing.T) {
	var s Summary
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}
	cases := []struct {
		p, want float64
	}{{0, 1}, {100, 100}, {50, 50.5}}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := s.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Mean = %g, want 50.5", got)
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Errorf("Min/Max = %g/%g, want 1/100", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

// Property: Summary.Percentile must agree with a direct sort-based
// computation for the extremes, and be monotone in p.
func TestSummaryPercentileProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return true
		}
		var s Summary
		for _, v := range vs {
			s.Observe(v)
		}
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		if s.Percentile(0) != sorted[0] || s.Percentile(100) != sorted[len(sorted)-1] {
			return false
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
