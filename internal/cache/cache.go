// Package cache implements the dynamic-page object cache used by the 1998
// Olympic Games web site (section 2 of the paper).
//
// A Cache stores rendered objects (pages, fragments) keyed by name. It
// supports the two staleness remedies DUP can apply: Invalidate (drop the
// entry; next request regenerates it — the 1996 behaviour) and Put of a
// freshly rendered value over the old one (update-in-place — the 1998
// behaviour that achieved hit rates near 100%, because hot pages are never
// absent from the cache).
//
// # Locking
//
// Each cache is one mutex over one item map, its stale side-table and
// plain-integer counters, as in the paper, where every serving node was a
// uniprocessor holding one cache. Byte accounting is an atomic gauge
// (stats.Gauge) so the metrics registry reads it, and its high-water mark
// (the paper's "~175 MB for a single copy of all cached objects" figure),
// without the lock.
//
// Caches are unbounded, as in the paper: "the system never had to apply a
// cache replacement algorithm" because every dynamic page fits in memory.
// An entry leaves only by Invalidate, InvalidatePrefix or Clear. PeakBytes
// is the measured footprint that claim rests on.
package cache

import (
	"sort"
	"strings"
	"sync"
	"time"

	"dupserve/internal/stats"
)

// Key names a cached object. dupserve uses the page path ("/en/day7/home").
type Key string

// Object is an immutable cached value. Callers must not modify an Object
// after handing it to a cache: Put stores the pointer itself, and one
// Object may be served by several caches at once (Group.BroadcastPut and
// peer warm-up install the same Object in every cache). The one write Put
// makes, stamping a zero StoredAt, happens before the object is visible
// anywhere.
type Object struct {
	Key         Key
	Value       []byte
	ContentType string
	// Version is a monotonically increasing generation number assigned by
	// the writer (the trigger monitor uses the database transaction LSN),
	// letting readers detect which update a page reflects.
	Version int64
	// StoredAt is the (possibly simulated) time the object first entered a
	// cache; Put stamps it only when it is zero.
	StoredAt time.Time
}

// Size returns the accounted byte size of the object.
func (o *Object) Size() int64 {
	return int64(len(o.Value)) + int64(len(o.Key)) + int64(len(o.ContentType))
}

type entry struct {
	obj  *Object
	hits int64
}

// staleEntry is an invalidated object retained for bounded-staleness
// fallback: the value the cache held just before the invalidation, plus the
// instant it stopped being fresh.
type staleEntry struct {
	obj   *Object
	since time.Time
}

// Stats is a point-in-time snapshot of cache counters.
type Stats struct {
	Hits          int64
	Misses        int64
	Puts          int64
	Updates       int64 // Puts that replaced an existing entry (update-in-place)
	Invalidations int64
	Items         int
	Bytes         int64
	PeakBytes     int64
}

// HitRate returns hits/(hits+misses), or 0 when no lookups occurred.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a concurrency-safe, unbounded object cache. The zero value is
// not usable; call New.
type Cache struct {
	name string
	now  func() time.Time

	mu    sync.Mutex
	items map[Key]*entry
	// stale holds the last value of invalidated entries when stale
	// retention is on (non-nil), for overload fallback (GetStale). At most
	// one copy per key; replaced entries and Clear drop it.
	stale map[Key]*staleEntry

	// Counters; mutated under mu.
	hits          int64
	misses        int64
	puts          int64
	updates       int64
	invalidations int64

	bytes stats.Gauge // exact bytes + high-water mark
}

// Option configures a Cache.
type Option func(*Cache)

// WithClock substitutes the time source that stamps StoredAt and ages
// stale-retained copies.
// It is a test seam: production always runs on the real clock.
func WithClock(now func() time.Time) Option {
	return func(c *Cache) { c.now = now }
}

// WithStaleRetention keeps the last value of every invalidated entry in a
// stale side-table, so that an overloaded node can degrade to serving a
// bounded-staleness copy (GetStale) instead of a 503. The stale copy never
// satisfies Get — fresh-path semantics are unchanged — and it is dropped as
// soon as a fresh Put arrives, the freshness budget expires, or the cache
// is cleared (node death loses memory-resident state, stale or not).
func WithStaleRetention() Option {
	return func(c *Cache) { c.stale = make(map[Key]*staleEntry) }
}

// New returns an empty cache. name appears in diagnostics only.
func New(name string, opts ...Option) *Cache {
	c := &Cache{
		name:  name,
		now:   time.Now,
		items: make(map[Key]*entry),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// Get returns the cached object for key, recording a hit or miss. The
// returned object must be treated as read-only.
func (c *Cache) Get(key Key) (*Object, bool) {
	c.mu.Lock()
	e, ok := c.items[key]
	if ok {
		e.hits++
		c.hits++
		obj := e.obj
		c.mu.Unlock()
		return obj, true
	}
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// HitCount returns how many times key has been served from this cache
// since it was first inserted (reinsertion via Put preserves the count;
// Invalidate resets it). The hybrid propagation policy uses it as its
// hot-page signal.
func (c *Cache) HitCount(key Key) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		return e.hits
	}
	return 0
}

// Peek returns the cached object without affecting the hit/miss counters.
// Monitoring code uses it so that diagnostics do not perturb hit rates or
// the hybrid policy's per-page hit counts.
func (c *Cache) Peek(key Key) (*Object, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return e.obj, true
}

// Put inserts or replaces the object stored under obj.Key. Replacing an
// existing entry is the paper's update-in-place: the page never leaves the
// cache, so no request ever misses on it. Returns true if an existing entry
// was replaced. Put stamps StoredAt with the cache's clock when it is zero
// and otherwise never writes to obj, so an object already stored elsewhere
// may be Put again and shared.
func (c *Cache) Put(obj *Object) bool {
	if obj.StoredAt.IsZero() {
		obj.StoredAt = c.now()
	}
	delta := obj.Size()
	c.mu.Lock()
	e, replaced := c.items[obj.Key]
	if replaced {
		delta -= e.obj.Size()
		e.obj = obj
		c.updates++
	} else {
		c.items[obj.Key] = &entry{obj: obj}
	}
	delete(c.stale, obj.Key) // fresh value supersedes any retained copy
	c.puts++
	c.mu.Unlock()
	c.bytes.Add(delta)
	return replaced
}

// Invalidate removes key from the cache, returning true if it was present.
// With stale retention on, the removed value stays reachable via GetStale
// until a fresh Put or its freshness budget expires.
func (c *Cache) Invalidate(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if ok {
		c.removeLocked(e.obj)
	}
	return ok
}

// removeLocked drops obj's entry, counts the invalidation and, when
// retention is enabled, moves obj into the stale side-table. Caller holds
// mu. A key has no stale copy while it is cached (Put drops it), so the
// copy stored here is the only one and is stale from now on.
func (c *Cache) removeLocked(obj *Object) {
	delete(c.items, obj.Key)
	c.invalidations++
	c.bytes.Add(-obj.Size())
	if c.stale != nil {
		c.stale[obj.Key] = &staleEntry{obj: obj, since: c.now()}
	}
}

// GetStale returns the retained copy of an invalidated entry, provided it
// went stale no longer than maxAge ago — the overload path's bounded
// staleness budget. The second return is how stale the copy is. A retained
// copy past the budget is dropped on the spot and never returned, so a
// caller can never observe staleness beyond maxAge. GetStale does not touch
// the hit/miss counters; fresh-path behaviour is unchanged.
func (c *Cache) GetStale(key Key, maxAge time.Duration) (*Object, time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	se, ok := c.stale[key]
	if !ok {
		return nil, 0, false
	}
	age := c.now().Sub(se.since)
	if age > maxAge {
		delete(c.stale, key)
		return nil, 0, false
	}
	return se.obj, age, true
}

// InvalidatePrefix removes every key with the given prefix and returns the
// number removed. This is the conservative 1996-style remedy: after a
// database update, drop whole sections of the site ("all ski pages") rather
// than computing the precise affected set.
func (c *Cache) InvalidatePrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, e := range c.items {
		if strings.HasPrefix(string(k), prefix) {
			c.removeLocked(e.obj)
			n++
		}
	}
	return n
}

// ApplyPut implements the DUP store contract (core.Store) directly on a
// single cache: install a freshly generated object.
func (c *Cache) ApplyPut(obj *Object) { c.Put(obj) }

// ApplyInvalidate implements the DUP store contract: remove an object,
// reporting how many replicas held it (0 or 1 for a single cache).
func (c *Cache) ApplyInvalidate(key Key) int {
	if c.Invalidate(key) {
		return 1
	}
	return 0
}

// ApplyInvalidatePrefix implements the DUP store contract: remove every
// object whose key has the prefix.
func (c *Cache) ApplyInvalidatePrefix(prefix string) int {
	return c.InvalidatePrefix(prefix)
}

// Clear removes every entry, counting them as invalidations. Stale-retained
// copies are dropped too: Clear models losing the node's memory-resident
// state, and a rebooted node has nothing to degrade to.
func (c *Cache) Clear() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.items)
	var freed int64
	for _, e := range c.items {
		freed += e.obj.Size()
	}
	c.items = make(map[Key]*entry)
	if c.stale != nil {
		c.stale = make(map[Key]*staleEntry)
	}
	c.invalidations += int64(n)
	c.bytes.Add(-freed)
	return n
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Bytes returns the current accounted size of the cache.
func (c *Cache) Bytes() int64 { return c.bytes.Value() }

// PeakBytes returns the largest size the cache ever reached — the number the
// paper reports as "maximum memory required for a single copy of all cached
// objects was around 175 Mbytes".
func (c *Cache) PeakBytes() int64 { return c.bytes.Max() }

// Keys returns all cached keys, sorted.
func (c *Cache) Keys() []Key {
	c.mu.Lock()
	out := make([]Key, 0, len(c.items))
	for k := range c.items {
		out = append(out, k)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Puts:          c.puts,
		Updates:       c.updates,
		Invalidations: c.invalidations,
		Items:         len(c.items),
		Bytes:         c.bytes.Value(),
		PeakBytes:     c.bytes.Max(),
	}
}

// RegisterMetrics publishes the cache's counters into a registry under a
// node label (plus any extra labels), the thin adapter replacing ad-hoc
// Stats polling. Counter families are shared across caches; each cache is
// one labeled series, read from a Stats snapshot at scrape time.
func (c *Cache) RegisterMetrics(reg *stats.Registry, extra stats.Labels) {
	labels := stats.Labels{"node": c.name}
	for k, v := range extra {
		labels[k] = v
	}
	counter := func(pick func(Stats) int64) func() int64 {
		return func() int64 { return pick(c.Stats()) }
	}
	reg.RegisterCounterFunc("cache_hits_total", "cache lookups served", labels,
		counter(func(s Stats) int64 { return s.Hits }))
	reg.RegisterCounterFunc("cache_misses_total", "cache lookups that missed", labels,
		counter(func(s Stats) int64 { return s.Misses }))
	reg.RegisterCounterFunc("cache_puts_total", "objects stored", labels,
		counter(func(s Stats) int64 { return s.Puts }))
	reg.RegisterCounterFunc("cache_updates_total", "puts that replaced an entry (update-in-place)", labels,
		counter(func(s Stats) int64 { return s.Updates }))
	reg.RegisterCounterFunc("cache_invalidations_total", "entries invalidated", labels,
		counter(func(s Stats) int64 { return s.Invalidations }))
	reg.RegisterGauge("cache_bytes", "accounted bytes cached", labels, &c.bytes)
	reg.RegisterFunc("cache_items", "entries cached", labels,
		func() float64 { return float64(c.Len()) })
	reg.RegisterFunc("cache_hit_ratio", "hits/(hits+misses) since start", labels,
		func() float64 { return c.Stats().HitRate() })
}

// ResetCounters zeroes hit/miss/put/update/invalidation counters while
// leaving contents intact. Experiments use it to discard warm-up effects.
func (c *Cache) ResetCounters() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses, c.puts, c.updates, c.invalidations = 0, 0, 0, 0, 0
}
