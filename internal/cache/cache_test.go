package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func obj(key string, size int) *Object {
	return &Object{Key: Key(key), Value: make([]byte, size)}
}

func TestGetMiss(t *testing.T) {
	c := New("t")
	if _, ok := c.Get("nope"); ok {
		t.Fatal("empty cache returned a hit")
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPutGetHit(t *testing.T) {
	c := New("t")
	c.Put(&Object{Key: "k", Value: []byte("v"), ContentType: "text/html", Version: 7})
	got, ok := c.Get("k")
	if !ok || string(got.Value) != "v" || got.Version != 7 || got.ContentType != "text/html" {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if got.StoredAt.IsZero() {
		t.Fatal("StoredAt not stamped")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Puts != 1 || s.Items != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestUpdateInPlace(t *testing.T) {
	c := New("t")
	if replaced := c.Put(obj("k", 10)); replaced {
		t.Fatal("first Put reported replacement")
	}
	if replaced := c.Put(obj("k", 20)); !replaced {
		t.Fatal("second Put did not report replacement")
	}
	s := c.Stats()
	if s.Updates != 1 || s.Items != 1 {
		t.Fatalf("stats = %+v", s)
	}
	got, _ := c.Get("k")
	if len(got.Value) != 20 {
		t.Fatalf("value len = %d, want 20", len(got.Value))
	}
}

func TestInvalidate(t *testing.T) {
	c := New("t")
	c.Put(obj("k", 5))
	if !c.Invalidate("k") {
		t.Fatal("Invalidate returned false for present key")
	}
	if c.Invalidate("k") {
		t.Fatal("Invalidate returned true for absent key")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("invalidated key still cached")
	}
	s := c.Stats()
	if s.Invalidations != 1 || s.Items != 0 || s.Bytes != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInvalidatePrefix(t *testing.T) {
	c := New("t")
	for _, k := range []string{"/ski/a", "/ski/b", "/skate/a", "/home"} {
		c.Put(obj(k, 5))
	}
	if n := c.InvalidatePrefix("/ski/"); n != 2 {
		t.Fatalf("InvalidatePrefix = %d, want 2", n)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if !present(c.Peek("/skate/a")) || !present(c.Peek("/home")) {
		t.Fatal("unrelated keys were invalidated")
	}
}

func TestClear(t *testing.T) {
	c := New("t")
	c.Put(obj("a", 5))
	c.Put(obj("b", 5))
	if n := c.Clear(); n != 2 {
		t.Fatalf("Clear = %d, want 2", n)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("len=%d bytes=%d after Clear", c.Len(), c.Bytes())
	}
	if c.Stats().Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", c.Stats().Invalidations)
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	c := New("t")
	for i := 0; i < 1000; i++ {
		c.Put(obj(fmt.Sprintf("k%d", i), 1000))
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d", c.Len())
	}
	for i := 0; i < 1000; i++ {
		if !present(c.Peek(Key(fmt.Sprintf("k%d", i)))) {
			t.Fatalf("k%d left the cache without an invalidation", i)
		}
	}
}

func TestPeakBytes(t *testing.T) {
	c := New("t")
	c.Put(obj("a", 100))
	c.Put(obj("b", 100))
	peak := c.PeakBytes()
	c.Invalidate("a")
	c.Invalidate("b")
	if c.Bytes() != 0 {
		t.Fatalf("Bytes = %d, want 0", c.Bytes())
	}
	if c.PeakBytes() != peak || peak < 200 {
		t.Fatalf("PeakBytes = %d (was %d)", c.PeakBytes(), peak)
	}
}

func TestPeekDoesNotCount(t *testing.T) {
	c := New("t")
	c.Put(obj("k", 1))
	if _, ok := c.Peek("k"); !ok {
		t.Fatal("Peek missed")
	}
	if _, ok := c.Peek("absent"); ok {
		t.Fatal("Peek hit on absent key")
	}
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("Peek affected counters: %+v", s)
	}
}

func TestWithClock(t *testing.T) {
	fixed := time.Date(1998, 2, 13, 12, 0, 0, 0, time.UTC)
	c := New("t", WithClock(func() time.Time { return fixed }))
	c.Put(obj("k", 1))
	got, _ := c.Get("k")
	if !got.StoredAt.Equal(fixed) {
		t.Fatalf("StoredAt = %v, want %v", got.StoredAt, fixed)
	}
}

func TestHitRate(t *testing.T) {
	c := New("t")
	c.Put(obj("k", 1))
	c.Get("k")
	c.Get("k")
	c.Get("absent")
	s := c.Stats()
	if got := s.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("HitRate = %v, want ~2/3", got)
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty HitRate should be 0")
	}
}

func TestResetCounters(t *testing.T) {
	c := New("t")
	c.Put(obj("k", 1))
	c.Get("k")
	c.ResetCounters()
	s := c.Stats()
	if s.Hits != 0 || s.Puts != 0 {
		t.Fatalf("counters not reset: %+v", s)
	}
	if s.Items != 1 {
		t.Fatal("ResetCounters must not drop contents")
	}
}

func TestKeysSorted(t *testing.T) {
	c := New("t")
	for _, k := range []string{"c", "a", "b"} {
		c.Put(obj(k, 1))
	}
	keys := c.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New("t")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(100))
				switch rng.Intn(3) {
				case 0:
					c.Put(obj(k, rng.Intn(200)))
				case 1:
					c.Get(Key(k))
				case 2:
					c.Invalidate(Key(k))
				}
			}
		}(w)
	}
	wg.Wait()
	// Byte accounting must be consistent with contents.
	var want int64
	for _, k := range c.Keys() {
		o, _ := c.Peek(k)
		want += o.Size()
	}
	if got := c.Bytes(); got != want {
		t.Fatalf("Bytes = %d, recount = %d", got, want)
	}
}

// Property: byte accounting matches a full recount after any operation mix.
func TestByteAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New("t")
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(40))
			switch rng.Intn(20) {
			case 0:
				c.Clear()
			case 1:
				c.InvalidatePrefix("k1")
			case 2, 3, 4, 5:
				c.Invalidate(Key(k))
			case 6, 7, 8, 9:
				c.Get(Key(k))
			default:
				c.Put(obj(k, rng.Intn(150)))
			}
		}
		var want int64
		for _, k := range c.Keys() {
			o, _ := c.Peek(k)
			want += o.Size()
		}
		return c.Bytes() == want && c.Bytes() <= c.PeakBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupBroadcastPut(t *testing.T) {
	g := NewGroup()
	for i := 0; i < 8; i++ {
		g.Add(New(fmt.Sprintf("up%d", i)))
	}
	n := g.BroadcastPut(&Object{Key: "/home", Value: []byte("x"), Version: 3})
	if n != 8 {
		t.Fatalf("BroadcastPut reached %d, want 8", n)
	}
	for _, c := range g.Members() {
		o, ok := c.Peek("/home")
		if !ok || o.Version != 3 {
			t.Fatalf("cache %s missing broadcast object", c.Name())
		}
	}
}

func TestGroupBroadcastInvalidate(t *testing.T) {
	g := NewGroup()
	a, b := New("a"), New("b")
	g.Add(a)
	g.Add(b)
	a.Put(obj("k", 1))
	if n := g.BroadcastInvalidate("k"); n != 1 {
		t.Fatalf("BroadcastInvalidate = %d, want 1", n)
	}
}

func TestGroupBroadcastInvalidatePrefix(t *testing.T) {
	g := NewGroup()
	a, b := New("a"), New("b")
	g.Add(a)
	g.Add(b)
	a.Put(obj("/ski/1", 1))
	b.Put(obj("/ski/1", 1))
	b.Put(obj("/ski/2", 1))
	if n := g.BroadcastInvalidatePrefix("/ski/"); n != 3 {
		t.Fatalf("BroadcastInvalidatePrefix = %d, want 3", n)
	}
}

func TestGroupMembership(t *testing.T) {
	g := NewGroup()
	c := New("n1")
	g.Add(c)
	if got, ok := g.Get("n1"); !ok || got != c {
		t.Fatal("Get after Add failed")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
	if rem := g.Remove("n1"); rem != c {
		t.Fatal("Remove returned wrong cache")
	}
	if g.Len() != 0 {
		t.Fatal("Remove did not shrink group")
	}
	if g.Remove("ghost") != nil {
		t.Fatal("Remove of absent member should return nil")
	}
}

func TestGroupAggregateStats(t *testing.T) {
	g := NewGroup()
	a, b := New("a"), New("b")
	g.Add(a)
	g.Add(b)
	a.Put(obj("k", 1))
	a.Get("k")
	b.Get("k") // miss
	s := g.AggregateStats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 || s.Items != 1 {
		t.Fatalf("aggregate = %+v", s)
	}
}

func TestGroupBroadcastSharesObject(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []GroupOption
	}{
		{"no hook", nil},
		{"hook", []GroupOption{WithPutHook(func(string, *Object, int) error { return nil })}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stamps int
			clock := func() time.Time {
				stamps++
				return time.Unix(int64(stamps), 0)
			}
			g := NewGroup(tc.opts...)
			for i := 0; i < 4; i++ {
				g.Add(New(fmt.Sprintf("up%d", i), WithClock(clock)))
			}
			src := &Object{Key: "k", Value: []byte("v"), Version: 3}
			if n := g.BroadcastPut(src); n != 4 {
				t.Fatalf("BroadcastPut reached %d members, want 4", n)
			}
			for _, c := range g.Members() {
				if got, _ := c.Peek("k"); got != src {
					t.Fatalf("member %s holds %p, want the broadcast object %p", c.Name(), got, src)
				}
			}
			// The first member's Put stamps StoredAt; the others find it set.
			if stamps != 1 || !src.StoredAt.Equal(time.Unix(1, 0)) {
				t.Fatalf("clock read %d times, StoredAt %v; want one stamp at 1s", stamps, src.StoredAt)
			}
		})
	}
}

func TestGroupBroadcastReplaceAllocs(t *testing.T) {
	g := NewGroup()
	for i := 0; i < 4; i++ {
		g.Add(New(fmt.Sprintf("up%d", i)))
	}
	g.BroadcastPut(&Object{Key: "k", Value: []byte("v1"), Version: 1})
	next := &Object{Key: "k", Value: []byte("v2"), Version: 2}
	allocs := testing.AllocsPerRun(100, func() { g.BroadcastPut(next) })
	// The member-list snapshot is the one allocation; the fan-out itself
	// installs the caller's object and allocates nothing per member.
	if allocs > 1 {
		t.Fatalf("BroadcastPut of a replacing object to 4 members: %v allocs/op, want <= 1", allocs)
	}
}

// BenchmarkCacheGetHit measures the hit path with every goroutine on one
// cache and one key: the contended case for the cache's single lock. Run it
// with -cpu 1,2 to compare a uniprocessor node with two cores.
func BenchmarkCacheGetHit(b *testing.B) {
	c := New("b")
	c.Put(obj("k", 8192))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Get("k")
		}
	})
}

func BenchmarkCachePutUpdate(b *testing.B) {
	c := New("b")
	o := obj("k", 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(o)
	}
}

func BenchmarkGroupBroadcast8(b *testing.B) {
	g := NewGroup()
	for i := 0; i < 8; i++ {
		g.Add(New(fmt.Sprintf("up%d", i)))
	}
	o := &Object{Key: "k", Value: make([]byte, 8192)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BroadcastPut(o)
	}
}

// present reports the ok of a cache Peek: whether the key is cached.
func present(_ *Object, ok bool) bool { return ok }
