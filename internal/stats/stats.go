// Package stats provides the lightweight metric primitives used throughout
// dupserve: atomic counters, gauges, fixed-bucket histograms, and
// streaming mean/percentile summaries.
//
// Everything in this package is safe for concurrent use and allocation-free
// on the hot paths (Counter.Add, Histogram.Observe), because the serving and
// trigger pipelines record metrics on every request and every propagation.
package stats

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically updated instantaneous value that also tracks the
// maximum it has ever reached (used, e.g., for peak cache memory).
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set stores v and updates the running maximum.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	g.updateMax(v)
}

// Add adjusts the gauge by delta (which may be negative) and updates the
// running maximum.
func (g *Gauge) Add(delta int64) {
	g.updateMax(g.v.Add(delta))
}

// updateMax raises the running maximum to v with a CAS loop; concurrent
// raisers may interleave, so losing the CAS means re-checking against the
// new maximum rather than giving up.
func (g *Gauge) updateMax(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the maximum value ever set.
func (g *Gauge) Max() int64 { return g.max.Load() }

// Histogram is a fixed-boundary histogram. Boundaries are upper bounds of
// each bucket; observations greater than the last boundary land in the
// overflow bucket. Observe is lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	sum    atomic.Int64   // sum in micro-units to keep it integral
	n      atomic.Int64
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds. It panics if bounds is empty or not strictly ascending, because a
// malformed histogram is a programming error, not a runtime condition.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: NewHistogram requires at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records a single observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(int64(v * 1e6))
	h.n.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Mean returns the arithmetic mean of all observations, or 0 if empty.
func (h *Histogram) Mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / 1e6 / float64(n)
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) by linear
// interpolation within the containing bucket. Values in the overflow bucket
// are reported as the last boundary.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if cum+c >= rank || i == len(h.counts)-1 {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			if c == 0 {
				return hi
			}
			frac := (rank - cum) / c
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Buckets returns a copy of the bucket upper bounds and counts (the final
// count is the overflow bucket and has no bound).
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	bounds = make([]float64, len(h.bounds))
	copy(bounds, h.bounds)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// Summary accumulates observations and reports exact mean, min, max, and
// percentiles. Unlike Histogram it stores every observation, so it is meant
// for bounded result sets (per-day response samples, bench outputs), not
// unbounded hot paths.
type Summary struct {
	mu sync.Mutex
	vs []float64
	st bool // sorted
}

// Observe records one observation.
func (s *Summary) Observe(v float64) {
	s.mu.Lock()
	s.vs = append(s.vs, v)
	s.st = false
	s.mu.Unlock()
}

// Count returns the number of observations.
func (s *Summary) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vs)
}

// Mean returns the arithmetic mean, or 0 if empty.
func (s *Summary) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vs) == 0 {
		return 0
	}
	var t float64
	for _, v := range s.vs {
		t += v
	}
	return t / float64(len(s.vs))
}

// Max returns the largest observation, or 0 if empty.
func (s *Summary) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vs) == 0 {
		return 0
	}
	s.sortLocked()
	return s.vs[len(s.vs)-1]
}

// Percentile returns the p-th percentile (0-100) using nearest-rank with
// linear interpolation, or 0 if empty.
func (s *Summary) Percentile(p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.vs)
	if n == 0 {
		return 0
	}
	s.sortLocked()
	if p <= 0 {
		return s.vs[0]
	}
	if p >= 100 {
		return s.vs[n-1]
	}
	r := p / 100 * float64(n-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	if lo == hi {
		return s.vs[lo]
	}
	frac := r - float64(lo)
	// Convex combination rather than lo + frac*(hi-lo): the subtraction can
	// overflow for extreme values while the combination stays in [lo, hi].
	return s.vs[lo]*(1-frac) + s.vs[hi]*frac
}

func (s *Summary) sortLocked() {
	if !s.st {
		sort.Float64s(s.vs)
		s.st = true
	}
}
