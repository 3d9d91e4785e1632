package cluster

import (
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/httpserver"
	"dupserve/internal/overload"
)

// TestFullHitPathZeroAlloc pins the complete serve hit path — dispatcher
// pick, kill-switch wrapper, httpserver, cache — at zero heap
// allocations per request. This is the end-to-end guarantee the serve-path
// benchmark depends on: at saturation the hit path generates no garbage.
func TestFullHitPathZeroAlloc(t *testing.T) {
	cx := NewComplex(Config{
		Name:          "alloc",
		Frames:        1,
		NodesPerFrame: 4,
		NodeOptions: func(name string) []httpserver.Option {
			return []httpserver.Option{httpserver.WithOverload(
				overload.NewLimiter(overload.Config{MaxConcurrent: 4}), time.Second)}
		},
	})
	obj := &cache.Object{
		Key:     "/en/day7/home",
		Value:   []byte("<html>day seven</html>"),
		Version: 7,
	}
	if n := cx.Caches.BroadcastPut(obj); n != 4 {
		t.Fatalf("broadcast reached %d caches, want 4", n)
	}
	if _, outcome, err := cx.Serve("/en/day7/home"); err != nil || outcome != httpserver.OutcomeHit {
		t.Fatalf("warmup: outcome=%v err=%v", outcome, err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, outcome, _ := cx.Serve("/en/day7/home"); outcome != httpserver.OutcomeHit {
			t.Fatalf("outcome = %v, want hit", outcome)
		}
	})
	if allocs != 0 {
		t.Fatalf("dispatcher->node->server->cache hit path allocates %.1f per run, want 0", allocs)
	}
}

// TestPickPathRoundRobinsIdlePool drives the lock-free pick path through the
// full complex stack: with every node idle, the round-robin tiebreak spreads
// hits exactly evenly.
func TestPickPathRoundRobinsIdlePool(t *testing.T) {
	cx := NewComplex(Config{Name: "rr", Frames: 1, NodesPerFrame: 4})
	obj := &cache.Object{Key: "/p", Value: []byte("x"), Version: 1}
	cx.Caches.BroadcastPut(obj)
	for i := 0; i < 40; i++ {
		if _, outcome, err := cx.Serve("/p"); err != nil || outcome != httpserver.OutcomeHit {
			t.Fatalf("outcome=%v err=%v", outcome, err)
		}
	}
	st := cx.Dispatcher.Stats()
	if st.Forwarded != 40 {
		t.Fatalf("forwarded = %d, want 40", st.Forwarded)
	}
	for _, n := range st.Nodes {
		if n.Served != 10 {
			t.Fatalf("node %s served %d, want 10 (round-robin)", n.Name, n.Served)
		}
	}
}
