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
// # Striping
//
// The cache is lock-striped: keys hash onto N independent shards, each with
// its own mutex, item table, and stale side-table, so concurrent hits on
// different pages never contend on a shared lock. Per-shard counters are
// plain integers mutated under the shard lock and folded into totals at
// Stats()/RegisterMetrics read time — the hit path pays no shared atomic
// traffic at all. Byte accounting is the one global: an atomic gauge keeps
// the exact aggregate (and its high-water mark, the paper's "~175 MB for a
// single copy of all cached objects" figure).
//
// Caches are unbounded, as in the paper: "the system never had to apply a
// cache replacement algorithm" because every dynamic page fits in memory.
// An entry leaves only by Invalidate, InvalidatePrefix or Clear. PeakBytes
// is the measured footprint that claim rests on.
package cache

import (
	"hash/maphash"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
// anywhere. Object is not copyable by value (the header memo is an atomic).
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

	// hdr memoizes the pre-serialized response headers for the zero-alloc
	// HTTP hit path; see ResponseHeaders. Built once per object, so a page
	// shared by every member of a group is formatted once, not per node.
	hdr atomic.Pointer[ObjectHeaders]
}

// ObjectHeaders is the pre-serialized response-header material for an
// object: the strings the HTTP layer would otherwise format per request,
// plus ready-made single-value header slices that can be assigned into an
// http.Header without allocating. Built once per object, on first serve.
type ObjectHeaders struct {
	ETag        string
	Version     string
	ETagV       []string // []string{ETag}
	VersionV    []string // []string{Version}
	ContentType []string // []string{obj.ContentType}; nil when empty
}

// ResponseHeaders returns the object's memoized pre-serialized headers,
// building them with build on first call. Concurrent first calls may both
// build; one wins, and both results are equivalent because the object is
// immutable.
func (o *Object) ResponseHeaders(build func(*Object) *ObjectHeaders) *ObjectHeaders {
	if h := o.hdr.Load(); h != nil {
		return h
	}
	h := build(o)
	o.hdr.Store(h)
	return h
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

// shard is one stripe: an independent item table with its own lock, stale
// side-table, and plain-integer counters folded at snapshot time. On 64-bit
// platforms it is exactly one 64-byte cache line, so neighbouring shards'
// locks never false-share.
type shard struct {
	mu    sync.Mutex
	items map[Key]*entry
	// stale holds the last value of invalidated entries when stale
	// retention is on, for overload fallback (GetStale). At most one copy
	// per key; replaced entries and Clear drop it.
	stale map[Key]*staleEntry

	// Counters; mutated under mu, folded at Stats() time.
	hits          int64
	misses        int64
	puts          int64
	updates       int64
	invalidations int64
}

// Cache is a concurrency-safe, lock-striped, unbounded object cache. The
// zero value is not usable; call New.
type Cache struct {
	name        string
	now         func() time.Time
	seed        maphash.Seed
	shards      []shard
	mask        uint64
	nshards     int // set by the package tests' withShards; 0 = DefaultShards
	retainStale bool

	bytes stats.Gauge // exact aggregate bytes + high-water mark
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
	return func(c *Cache) { c.retainStale = true }
}

// DefaultShards is the stripe count of every cache.
const DefaultShards = 64

// New returns an empty cache. name appears in diagnostics only.
func New(name string, opts ...Option) *Cache {
	c := &Cache{
		name: name,
		now:  time.Now,
		seed: maphash.MakeSeed(),
	}
	for _, o := range opts {
		o(c)
	}
	n := c.nshards
	if n <= 0 {
		n = DefaultShards
	}
	if n > 4096 {
		n = 4096
	}
	// Round up to a power of two so shard selection is a mask.
	p := 1
	for p < n {
		p <<= 1
	}
	c.shards = make([]shard, p)
	c.mask = uint64(p - 1)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.items = make(map[Key]*entry)
		if c.retainStale {
			sh.stale = make(map[Key]*staleEntry)
		}
	}
	return c
}

// shardOf returns the stripe owning key. Single-shard caches (the tests'
// single-lock reference layout) skip the hash entirely.
func (c *Cache) shardOf(key Key) *shard {
	if c.mask == 0 {
		return &c.shards[0]
	}
	return &c.shards[maphash.String(c.seed, string(key))&c.mask]
}

// shardIndex exposes the stripe assignment for tests (stability and
// uniformity properties).
func (c *Cache) shardIndex(key Key) int {
	if c.mask == 0 {
		return 0
	}
	return int(maphash.String(c.seed, string(key)) & c.mask)
}

// ShardCount returns the number of stripes.
func (c *Cache) ShardCount() int { return len(c.shards) }

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// Get returns the cached object for key, recording a hit or miss. The
// returned object must be treated as read-only.
func (c *Cache) Get(key Key) (*Object, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	e, ok := sh.items[key]
	if ok {
		e.hits++
		sh.hits++
		obj := e.obj
		sh.mu.Unlock()
		return obj, true
	}
	sh.misses++
	sh.mu.Unlock()
	return nil, false
}

// HitCount returns how many times key has been served from this cache
// since it was first inserted (reinsertion via Put preserves the count;
// Invalidate resets it). The hybrid propagation policy uses it as its
// hot-page signal.
func (c *Cache) HitCount(key Key) int64 {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.items[key]; ok {
		return e.hits
	}
	return 0
}

// Peek returns the cached object without affecting the hit/miss counters.
// Monitoring code uses it so that diagnostics do not perturb hit rates or
// the hybrid policy's per-page hit counts.
func (c *Cache) Peek(key Key) (*Object, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.items[key]
	if !ok {
		return nil, false
	}
	return e.obj, true
}

// Contains reports whether key is cached, without touching counters.
func (c *Cache) Contains(key Key) bool {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.items[key]
	return ok
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
	sh := c.shardOf(obj.Key)
	sh.mu.Lock()
	var delta int64
	var replaced bool
	if e, ok := sh.items[obj.Key]; ok {
		delta = obj.Size() - e.obj.Size()
		e.obj = obj
		replaced = true
	} else {
		sh.items[obj.Key] = &entry{obj: obj}
		delta = obj.Size()
	}
	if sh.stale != nil {
		delete(sh.stale, obj.Key) // fresh value supersedes any retained copy
	}
	sh.puts++
	if replaced {
		sh.updates++
	}
	sh.mu.Unlock()

	c.bytes.Add(delta)
	return replaced
}

// Invalidate removes key from the cache, returning true if it was present.
// With stale retention on, the removed value stays reachable via GetStale
// until a fresh Put or its freshness budget expires.
func (c *Cache) Invalidate(key Key) bool {
	sh := c.shardOf(key)
	sh.mu.Lock()
	e, ok := sh.items[key]
	var size int64
	if ok {
		delete(sh.items, key)
		size = e.obj.Size()
		sh.invalidations++
		c.retainLocked(sh, e.obj)
	}
	sh.mu.Unlock()
	if ok {
		c.bytes.Add(-size)
	}
	return ok
}

// retainLocked moves an invalidated object into the stale side-table when
// retention is enabled. Caller holds the shard's mu. Repeated invalidations
// keep the earliest since-time: the page has been continuously stale since
// the first update it missed, and the freshness budget must count from
// there.
func (c *Cache) retainLocked(sh *shard, obj *Object) {
	if sh.stale == nil {
		return
	}
	if _, already := sh.stale[obj.Key]; already {
		return
	}
	sh.stale[obj.Key] = &staleEntry{obj: obj, since: c.now()}
}

// GetStale returns the retained copy of an invalidated entry, provided it
// went stale no longer than maxAge ago — the overload path's bounded
// staleness budget. The second return is how stale the copy is. A retained
// copy past the budget is dropped on the spot and never returned, so a
// caller can never observe staleness beyond maxAge. GetStale does not touch
// the hit/miss counters; fresh-path behaviour is unchanged.
func (c *Cache) GetStale(key Key, maxAge time.Duration) (*Object, time.Duration, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	se, ok := sh.stale[key]
	if !ok {
		return nil, 0, false
	}
	age := c.now().Sub(se.since)
	if age > maxAge {
		delete(sh.stale, key)
		return nil, 0, false
	}
	return se.obj, age, true
}

// StaleLen returns the number of retained stale copies (0 when retention is
// off).
func (c *Cache) StaleLen() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.stale)
		sh.mu.Unlock()
	}
	return n
}

// InvalidatePrefix removes every key with the given prefix and returns the
// number removed. This is the conservative 1996-style remedy: after a
// database update, drop whole sections of the site ("all ski pages") rather
// than computing the precise affected set.
func (c *Cache) InvalidatePrefix(prefix string) int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		var victims []Key
		for k := range sh.items {
			if strings.HasPrefix(string(k), prefix) {
				victims = append(victims, k)
			}
		}
		var freed int64
		for _, k := range victims {
			e := sh.items[k]
			delete(sh.items, k)
			freed += e.obj.Size()
			c.retainLocked(sh, e.obj)
		}
		sh.invalidations += int64(len(victims))
		sh.mu.Unlock()
		c.bytes.Add(-freed)
		total += len(victims)
	}
	return total
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
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n := len(sh.items)
		var freed int64
		for _, e := range sh.items {
			freed += e.obj.Size()
		}
		sh.items = make(map[Key]*entry)
		if sh.stale != nil {
			sh.stale = make(map[Key]*staleEntry)
		}
		sh.invalidations += int64(n)
		sh.mu.Unlock()
		c.bytes.Add(-freed)
		total += n
	}
	return total
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the current accounted size of the cache.
func (c *Cache) Bytes() int64 { return c.bytes.Value() }

// PeakBytes returns the largest size the cache ever reached — the number the
// paper reports as "maximum memory required for a single copy of all cached
// objects was around 175 Mbytes".
func (c *Cache) PeakBytes() int64 { return c.bytes.Max() }

// Keys returns all cached keys, sorted.
func (c *Cache) Keys() []Key {
	var out []Key
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k := range sh.items {
			out = append(out, k)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// fold sums the per-shard counters into a Stats snapshot. Each shard is
// locked briefly in turn, so the snapshot is per-shard consistent (the
// cross-shard total may interleave with concurrent traffic, exactly like
// reading a set of independent atomics).
func (c *Cache) fold() Stats {
	var s Stats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Puts += sh.puts
		s.Updates += sh.updates
		s.Invalidations += sh.invalidations
		s.Items += len(sh.items)
		sh.mu.Unlock()
	}
	s.Bytes = c.bytes.Value()
	s.PeakBytes = c.bytes.Max()
	return s
}

// Stats returns a snapshot of the counters, folded across shards.
func (c *Cache) Stats() Stats { return c.fold() }

// counterFold returns a fold of one per-shard counter for metric
// registration.
func (c *Cache) counterFold(pick func(*shard) int64) func() int64 {
	return func() int64 {
		var n int64
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.Lock()
			n += pick(sh)
			sh.mu.Unlock()
		}
		return n
	}
}

// RegisterMetrics publishes the cache's counters into a registry under a
// node label (plus any extra labels), the thin adapter replacing ad-hoc
// Stats polling. Counter families are shared across caches; each cache is
// one labeled series, folded from the shards at scrape time.
func (c *Cache) RegisterMetrics(reg *stats.Registry, extra stats.Labels) {
	labels := stats.Labels{"node": c.name}
	for k, v := range extra {
		labels[k] = v
	}
	reg.RegisterCounterFunc("cache_hits_total", "cache lookups served", labels,
		c.counterFold(func(sh *shard) int64 { return sh.hits }))
	reg.RegisterCounterFunc("cache_misses_total", "cache lookups that missed", labels,
		c.counterFold(func(sh *shard) int64 { return sh.misses }))
	reg.RegisterCounterFunc("cache_puts_total", "objects stored", labels,
		c.counterFold(func(sh *shard) int64 { return sh.puts }))
	reg.RegisterCounterFunc("cache_updates_total", "puts that replaced an entry (update-in-place)", labels,
		c.counterFold(func(sh *shard) int64 { return sh.updates }))
	reg.RegisterCounterFunc("cache_invalidations_total", "entries invalidated", labels,
		c.counterFold(func(sh *shard) int64 { return sh.invalidations }))
	reg.RegisterGauge("cache_bytes", "accounted bytes cached", labels, &c.bytes)
	reg.RegisterFunc("cache_items", "entries cached", labels,
		func() float64 { return float64(c.Len()) })
	reg.RegisterFunc("cache_hit_ratio", "hits/(hits+misses) since start", labels,
		func() float64 { return c.Stats().HitRate() })
}

// ResetCounters zeroes hit/miss/put/update/invalidation counters while
// leaving contents intact. Experiments use it to discard warm-up effects.
func (c *Cache) ResetCounters() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.hits = 0
		sh.misses = 0
		sh.puts = 0
		sh.updates = 0
		sh.invalidations = 0
		sh.mu.Unlock()
	}
}
