package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withShards sets the stripe count, rounded up to a power of two and
// clamped to [1, 4096]. n = 1 is the single-lock reference layout the
// torture and fuzz tests compare the default striping against; production
// caches always use DefaultShards.
func withShards(n int) Option {
	return func(c *Cache) { c.nshards = n }
}

// TestStripedMatchesSingleLockReference drives an identical randomized op
// stream — Put, Get, Invalidate, GetStale, InvalidatePrefix, Clear —
// through a striped cache and a single-shard (single-lock) reference, and
// requires every observable result and the final state to match exactly.
// Striping must be a pure concurrency optimization with no semantic drift.
func TestStripedMatchesSingleLockReference(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	striped := New("striped", withShards(8), WithStaleRetention(), WithClock(now))
	ref := New("ref", withShards(1), WithStaleRetention(), WithClock(now))

	rng := rand.New(rand.NewSource(7))
	keys := make([]Key, 40)
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("/en/p%02d", i))
	}
	version := int64(0)
	for op := 0; op < 20000; op++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(10) {
		case 0, 1, 2: // Put
			version++
			val := []byte(fmt.Sprintf("%s@%d", k, version))
			a := striped.Put(&Object{Key: k, Value: val, Version: version, StoredAt: clock})
			b := ref.Put(&Object{Key: k, Value: val, Version: version, StoredAt: clock})
			if a != b {
				t.Fatalf("op %d: Put(%s) fresh=%v, ref %v", op, k, a, b)
			}
		case 3: // Invalidate
			a := striped.Invalidate(k)
			b := ref.Invalidate(k)
			if a != b {
				t.Fatalf("op %d: Invalidate(%s) = %v, ref %v", op, k, a, b)
			}
		case 4: // GetStale within budget
			ao, aage, aok := striped.GetStale(k, time.Minute)
			bo, bage, bok := ref.GetStale(k, time.Minute)
			if aok != bok || aage != bage || (aok && ao.Version != bo.Version) {
				t.Fatalf("op %d: GetStale(%s) = (%v,%v,%v), ref (%v,%v,%v)",
					op, k, ao, aage, aok, bo, bage, bok)
			}
		case 5: // InvalidatePrefix
			p := fmt.Sprintf("/en/p%d", rng.Intn(4))
			a := striped.InvalidatePrefix(p)
			b := ref.InvalidatePrefix(p)
			if a != b {
				t.Fatalf("op %d: InvalidatePrefix(%s) = %d, ref %d", op, p, a, b)
			}
		case 6: // time advances (staleness decays)
			clock = clock.Add(time.Duration(rng.Intn(20)) * time.Second)
		case 7:
			if rng.Intn(50) == 0 { // rare full clear
				a := striped.Clear()
				b := ref.Clear()
				if a != b {
					t.Fatalf("op %d: Clear() = %d, ref %d", op, a, b)
				}
			}
		default: // Get
			ao, aok := striped.Get(k)
			bo, bok := ref.Get(k)
			if aok != bok || (aok && (ao.Version != bo.Version || string(ao.Value) != string(bo.Value))) {
				t.Fatalf("op %d: Get(%s) = (%v,%v), ref (%v,%v)", op, k, ao, aok, bo, bok)
			}
		}
	}

	// Final state identical: same keys, same stats (modulo nothing — the op
	// streams were identical, so even counters must agree).
	sa, sb := striped.Stats(), ref.Stats()
	if sa != sb {
		t.Fatalf("final stats diverge:\nstriped %+v\nref     %+v", sa, sb)
	}
	ka, kb := striped.Keys(), ref.Keys()
	if len(ka) != len(kb) {
		t.Fatalf("key count %d, ref %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("key[%d] = %s, ref %s", i, ka[i], kb[i])
		}
	}
	if striped.StaleLen() != ref.StaleLen() {
		t.Fatalf("stale len %d, ref %d", striped.StaleLen(), ref.StaleLen())
	}
}

// TestStripedTorture hammers one striped cache from many goroutines with
// overlapping keys — gets, puts, invalidations, warm-style peer copies,
// prefix invalidations and stats reads — and checks structural invariants
// the whole way: a Get hit always returns the object stored under that key,
// versions returned for a key never regress below the floor established by
// a completed Put, and the cache's byte accounting ends exactly consistent
// with its contents. Run under -race this is the striping memory-safety
// proof.
func TestStripedTorture(t *testing.T) {
	c := New("torture", withShards(8), WithStaleRetention())
	const (
		workers = 8
		iters   = 4000
		nkeys   = 16
	)
	keys := make([]Key, nkeys)
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("/p%02d", i))
	}
	// floor[i] is a version known to be fully Put for keys[i]; a later Get
	// may see a newer version but never an older one once the floor is set
	// (Invalidate clears the floor first, so the invariant stays sound).
	var floor [nkeys]atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				ki := rng.Intn(nkeys)
				k := keys[ki]
				switch rng.Intn(8) {
				case 0, 1: // Put a strictly newer version
					v := floor[ki].Load() + 1 + int64(rng.Intn(3))
					c.Put(&Object{Key: k, Value: []byte(fmt.Sprintf("%s@%d", k, v)), Version: v})
					// Raise the floor only if nobody raced past us.
					for {
						cur := floor[ki].Load()
						if v <= cur || floor[ki].CompareAndSwap(cur, v) {
							break
						}
					}
				case 2: // Invalidate: clear the floor before dropping the entry
					floor[ki].Store(0)
					c.Invalidate(k)
				case 3: // warm-style re-Put of a peer's object (recovery Warmer discipline)
					if obj, ok := c.Peek(k); ok {
						c.Put(obj)
					}
				case 4:
					c.GetStale(k, time.Minute)
				case 5:
					if rng.Intn(100) == 0 {
						c.InvalidatePrefix("/p0")
						for j := range keys {
							if j < 10 { // "/p00".."/p09" share the prefix
								floor[j].Store(0)
							}
						}
					} else {
						_ = c.Stats()
						_ = c.Len()
					}
				default:
					if obj, ok := c.Get(k); ok {
						if obj.Key != k {
							t.Errorf("Get(%s) returned object for %s", k, obj.Key)
							return
						}
						want := fmt.Sprintf("%s@%d", k, obj.Version)
						if string(obj.Value) != want {
							t.Errorf("Get(%s) torn object: version %d value %q", k, obj.Version, obj.Value)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Quiescent consistency: byte gauge equals the sum of live objects, and
	// every key is findable through the shard it hashes to.
	var sum int64
	for _, k := range c.Keys() {
		obj, ok := c.Peek(k)
		if !ok {
			t.Fatalf("Keys() listed %s but Peek missed", k)
		}
		sum += obj.Size()
	}
	st := c.Stats()
	if st.Bytes != sum {
		t.Fatalf("byte gauge %d, live objects sum to %d", st.Bytes, sum)
	}
	if st.Items != len(c.Keys()) {
		t.Fatalf("Items %d, Keys %d", st.Items, len(c.Keys()))
	}
}

// TestShardDistribution sanity-checks the stripe hash: across a realistic
// page population every shard of a 64-way cache gets some keys (no dead or
// pathologically hot stripes).
func TestShardDistribution(t *testing.T) {
	c := New("dist", withShards(64))
	counts := make([]int, c.ShardCount())
	for i := 0; i < 6400; i++ {
		k := Key(fmt.Sprintf("/en/event%d/results", i))
		counts[c.shardIndex(k)]++
	}
	for i, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d received no keys", i)
		}
		if n > 400 { // mean is 100; 4x the mean means the hash is broken
			t.Fatalf("shard %d received %d of 6400 keys", i, n)
		}
	}
}
