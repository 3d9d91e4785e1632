package cache

import (
	"testing"
	"time"
)

// tick is a manual clock for stale-age control.
type tick struct{ t time.Time }

func newTick() *tick {
	return &tick{t: time.Date(1998, 2, 7, 0, 0, 0, 0, time.UTC)}
}
func (k *tick) now() time.Time          { return k.t }
func (k *tick) advance(d time.Duration) { k.t = k.t.Add(d) }

func TestStaleRetentionOnInvalidate(t *testing.T) {
	clk := newTick()
	c := New("t", WithStaleRetention(), WithClock(clk.now))
	o := &Object{Key: "k", Value: []byte("v1"), Version: 1}
	c.Put(o)
	c.Invalidate("k")

	if _, ok := c.Get("k"); ok {
		t.Fatal("invalidated entry still served by Get")
	}
	if _, ok := c.Peek("k"); ok {
		t.Fatal("invalidated entry visible to Peek")
	}
	clk.advance(time.Second)
	got, age, ok := c.GetStale("k", 5*time.Second)
	if !ok {
		t.Fatal("stale copy not retained")
	}
	if got.Version != 1 || age != time.Second {
		t.Fatalf("stale copy version=%d age=%v, want 1/1s", got.Version, age)
	}
}

func TestStaleBudgetEnforced(t *testing.T) {
	clk := newTick()
	c := New("t", WithStaleRetention(), WithClock(clk.now))
	c.Put(&Object{Key: "k", Value: []byte("v1")})
	c.Invalidate("k")
	clk.advance(10 * time.Second)
	if _, _, ok := c.GetStale("k", 5*time.Second); ok {
		t.Fatal("stale copy served beyond its freshness budget")
	}
	// The over-budget copy is dropped, not just hidden.
	if got := staleLen(c); got != 0 {
		t.Fatalf("stale entries after budget expiry = %d, want 0", got)
	}
}

func TestStaleSupersededByPut(t *testing.T) {
	c := New("t", WithStaleRetention())
	c.Put(&Object{Key: "k", Value: []byte("v1"), Version: 1})
	c.Invalidate("k")
	c.Put(&Object{Key: "k", Value: []byte("v2"), Version: 2})
	if got := staleLen(c); got != 0 {
		t.Fatalf("stale entries after fresh put = %d, want 0", got)
	}
	// Invalidate again: the retained copy must be the newer version.
	c.Invalidate("k")
	got, _, ok := c.GetStale("k", time.Hour)
	if !ok || got.Version != 2 {
		t.Fatalf("retained copy = %+v ok=%t, want version 2", got, ok)
	}
}

func TestStaleKeepsEarliestSince(t *testing.T) {
	clk := newTick()
	c := New("t", WithStaleRetention(), WithClock(clk.now))
	c.Put(&Object{Key: "k", Value: []byte("v1"), Version: 1})
	c.Invalidate("k")
	clk.advance(3 * time.Second)
	// A second invalidation without an intervening Put (e.g. a prefix sweep)
	// must not refresh the staleness clock.
	c.Invalidate("k")
	_, age, ok := c.GetStale("k", time.Hour)
	if !ok || age != 3*time.Second {
		t.Fatalf("age = %v ok=%t, want 3s (earliest since-time)", age, ok)
	}
}

func TestStaleDroppedOnClear(t *testing.T) {
	c := New("t", WithStaleRetention())
	c.Put(&Object{Key: "k", Value: []byte("v1")})
	c.Invalidate("k")
	c.Clear()
	if _, _, ok := c.GetStale("k", time.Hour); ok {
		t.Fatal("stale copy survived Clear (node death)")
	}
}

func TestStaleRetentionOffByDefault(t *testing.T) {
	c := New("t")
	c.Put(&Object{Key: "k", Value: []byte("v1")})
	c.Invalidate("k")
	if _, _, ok := c.GetStale("k", time.Hour); ok {
		t.Fatal("stale copy retained without WithStaleRetention")
	}
}

func TestStaleRetentionOnPrefixInvalidate(t *testing.T) {
	c := New("t", WithStaleRetention())
	c.Put(&Object{Key: "/en/a", Value: []byte("a")})
	c.Put(&Object{Key: "/en/b", Value: []byte("b")})
	c.Put(&Object{Key: "/ja/a", Value: []byte("c")})
	c.InvalidatePrefix("/en/")
	if got := staleLen(c); got != 2 {
		t.Fatalf("stale entries after prefix invalidate = %d, want 2", got)
	}
	if _, _, ok := c.GetStale("/en/a", time.Hour); !ok {
		t.Fatal("prefix-invalidated entry not retained")
	}
	if _, _, ok := c.GetStale("/ja/a", time.Hour); ok {
		t.Fatal("untouched entry present in stale table")
	}
}

// staleLen counts c's retained stale copies.
func staleLen(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.stale)
}
