package httpserver

import (
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/overload"
)

func newHitServer(t *testing.T) *Server {
	t.Helper()
	c := cache.New("alloc-node")
	c.Put(&cache.Object{
		Key:         "/en/results",
		Value:       []byte("<html>results</html>"),
		ContentType: "text/html; charset=utf-8",
		Version:     42,
		StoredAt:    time.Now(),
	})
	return New("alloc-node", c, nil, func() int64 { return 42 })
}

// TestServeHitZeroAlloc pins the transport-independent cache-hit path at
// zero heap allocations per request.
func TestServeHitZeroAlloc(t *testing.T) {
	s := newHitServer(t)
	if _, outcome, err := s.Serve("/en/results"); err != nil || outcome != OutcomeHit {
		t.Fatalf("warmup: outcome=%v err=%v", outcome, err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, outcome, _ := s.Serve("/en/results"); outcome != OutcomeHit {
			t.Fatalf("outcome = %v, want hit", outcome)
		}
	})
	if allocs != 0 {
		t.Fatalf("Serve hit path allocates %.1f per run, want 0", allocs)
	}
}

// TestServeHitZeroAllocWithOverload proves admission control costs the hit
// path nothing: hits bypass the limiter entirely.
func TestServeHitZeroAllocWithOverload(t *testing.T) {
	c := cache.New("alloc-ov")
	c.Put(&cache.Object{Key: "/p", Value: []byte("x"), Version: 1})
	lim := overload.NewLimiter(overload.Config{MaxConcurrent: 1, MaxQueue: 0})
	s := New("alloc-ov", c, nil, nil, WithOverload(lim, time.Second))
	allocs := testing.AllocsPerRun(1000, func() {
		if _, outcome, _ := s.Serve("/p"); outcome != OutcomeHit {
			t.Fatalf("outcome = %v, want hit", outcome)
		}
	})
	if allocs != 0 {
		t.Fatalf("Serve hit path with limiter allocates %.1f per run, want 0", allocs)
	}
}
