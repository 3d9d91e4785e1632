package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mapModel is the reference semantics of a Cache with stale retention: a
// plain map of live objects, a map of retained stale copies with the
// instant each went stale, and the counters Stats reports.
type mapModel struct {
	now   func() time.Time
	items map[Key]*Object
	stale map[Key]staleEntry
	stats Stats
}

func (m *mapModel) put(o *Object) bool {
	old, replaced := m.items[o.Key]
	if replaced && o.Version < old.Version {
		m.stats.Older++
		return false
	}
	if replaced {
		m.stats.Bytes -= old.Size()
		m.stats.Updates++
	}
	m.items[o.Key] = o
	delete(m.stale, o.Key)
	m.stats.Puts++
	m.stats.Installed = max(m.stats.Installed, o.Version)
	m.stats.Bytes += o.Size()
	m.stats.PeakBytes = max(m.stats.PeakBytes, m.stats.Bytes)
	return replaced
}

func (m *mapModel) invalidate(k Key) bool {
	o, ok := m.items[k]
	if !ok {
		return false
	}
	delete(m.items, k)
	m.stats.Invalidations++
	m.stats.Bytes -= o.Size()
	m.stale[k] = staleEntry{obj: o, since: m.now()}
	return true
}

func (m *mapModel) getStale(k Key, maxAge time.Duration) (*Object, time.Duration, bool) {
	se, ok := m.stale[k]
	if !ok {
		return nil, 0, false
	}
	age := m.now().Sub(se.since)
	if age > maxAge {
		delete(m.stale, k)
		return nil, 0, false
	}
	return se.obj, age, true
}

func (m *mapModel) invalidatePrefix(p string) int {
	n := 0
	for k := range m.items {
		if strings.HasPrefix(string(k), p) && m.invalidate(k) {
			n++
		}
	}
	return n
}

func (m *mapModel) clear() int {
	n := len(m.items)
	m.stats.Invalidations += int64(n)
	m.stats.Bytes = 0
	m.stats.Installed = 0
	m.items = make(map[Key]*Object)
	m.stale = make(map[Key]staleEntry)
	return n
}

func (m *mapModel) get(k Key) (*Object, bool) {
	o, ok := m.items[k]
	if ok {
		m.stats.Hits++
	} else {
		m.stats.Misses++
	}
	return o, ok
}

// TestCacheMatchesMapModel drives a randomized op stream — Put (some of them
// late and older than the entry held), Get, Invalidate, GetStale,
// InvalidatePrefix, Clear — through a cache and a plain-map model of its
// semantics, and requires every observable result and the final state
// (keys, stale copies, counters) to match exactly.
func TestCacheMatchesMapModel(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	c := New("cache", WithStaleRetention(), WithClock(now))
	ref := &mapModel{now: now, items: make(map[Key]*Object), stale: make(map[Key]staleEntry)}

	rng := rand.New(rand.NewSource(7))
	keys := make([]Key, 40)
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("/en/p%02d", i))
	}
	version := int64(0)
	for op := 0; op < 20000; op++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(10) {
		case 0, 1, 2: // Put; one in four is a late push of an older version
			version++
			v := version
			if rng.Intn(4) == 0 {
				v -= rng.Int63n(100)
			}
			val := []byte(fmt.Sprintf("%s@%d", k, v))
			a := c.Put(&Object{Key: k, Value: val, Version: v, StoredAt: clock})
			b := ref.put(&Object{Key: k, Value: val, Version: v, StoredAt: clock})
			if a != b {
				t.Fatalf("op %d: Put(%s) fresh=%v, ref %v", op, k, a, b)
			}
		case 3: // Invalidate
			a := c.Invalidate(k)
			b := ref.invalidate(k)
			if a != b {
				t.Fatalf("op %d: Invalidate(%s) = %v, ref %v", op, k, a, b)
			}
		case 4: // GetStale within budget
			ao, aage, aok := c.GetStale(k, time.Minute)
			bo, bage, bok := ref.getStale(k, time.Minute)
			if aok != bok || aage != bage || (aok && ao.Version != bo.Version) {
				t.Fatalf("op %d: GetStale(%s) = (%v,%v,%v), ref (%v,%v,%v)",
					op, k, ao, aage, aok, bo, bage, bok)
			}
		case 5: // InvalidatePrefix
			p := fmt.Sprintf("/en/p%d", rng.Intn(4))
			a := c.InvalidatePrefix(p)
			b := ref.invalidatePrefix(p)
			if a != b {
				t.Fatalf("op %d: InvalidatePrefix(%s) = %d, ref %d", op, p, a, b)
			}
		case 6: // time advances (staleness decays)
			clock = clock.Add(time.Duration(rng.Intn(20)) * time.Second)
		case 7:
			if rng.Intn(50) == 0 { // rare full clear
				a := c.Clear()
				b := ref.clear()
				if a != b {
					t.Fatalf("op %d: Clear() = %d, ref %d", op, a, b)
				}
			}
		default: // Get
			ao, aok := c.Get(k)
			bo, bok := ref.get(k)
			if aok != bok || (aok && (ao.Version != bo.Version || string(ao.Value) != string(bo.Value))) {
				t.Fatalf("op %d: Get(%s) = (%v,%v), ref (%v,%v)", op, k, ao, aok, bo, bok)
			}
		}
	}

	// Final state identical: same keys, same stats (the op streams were
	// identical, so even counters must agree).
	ref.stats.Items = len(ref.items)
	if sa := c.Stats(); sa != ref.stats {
		t.Fatalf("final stats diverge:\ncache %+v\nref   %+v", sa, ref.stats)
	}
	ka := c.Keys()
	if len(ka) != len(ref.items) {
		t.Fatalf("key count %d, ref %d", len(ka), len(ref.items))
	}
	for i, k := range ka {
		if _, ok := ref.items[k]; !ok || (i > 0 && ka[i-1] >= k) {
			t.Fatalf("key[%d] = %s: not in the model or out of order", i, k)
		}
	}
	if staleLen(c) != len(ref.stale) {
		t.Fatalf("stale len %d, ref %d", staleLen(c), len(ref.stale))
	}
}

// TestCacheTorture hammers one cache from many goroutines with
// overlapping keys — gets, puts, invalidations, warm-style peer copies,
// prefix invalidations and stats reads — and checks structural invariants
// the whole way: a Get hit always returns the object stored under that key,
// versions returned for a key never regress below the floor established by
// a completed Put, and the cache's byte accounting ends exactly consistent
// with its contents. Run under -race this is the cache's memory-safety
// proof.
func TestCacheTorture(t *testing.T) {
	c := New("torture", WithStaleRetention())
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
	// every listed key is findable.
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
