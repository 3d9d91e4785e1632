package cache

import (
	"fmt"
	"sync"
	"time"

	"dupserve/internal/stats"
)

// PutHook intercepts one node's share of a broadcast put. obj is the one
// Object every member shares and must not be modified. node is the
// member cache's name and attempt counts from 1; returning an error fails
// that attempt. Fault injection wires in here: a hook that errors models a
// push that never reached the node.
type PutHook func(node string, obj *Object, attempt int) error

// RetryPolicy bounds how hard BroadcastPut fights a failing push before
// degrading. The remedy on exhaustion is always an invalidation of that
// node's entry: the node takes a miss on the next request instead of ever
// serving a page the pipeline knows is stale.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per node per broadcast
	// (first try included). <= 0 means DefaultRetryPolicy's value.
	MaxAttempts int
	// Backoff is the sleep before the second attempt; it doubles each
	// further attempt. <= 0 means DefaultRetryPolicy's value.
	Backoff time.Duration
	// MaxBackoff caps the doubling. <= 0 means DefaultRetryPolicy's value.
	MaxBackoff time.Duration
	// Sleep substitutes the sleep implementation (tests and deterministic
	// chaos runs use a no-op). nil means time.Sleep.
	Sleep func(time.Duration)
}

// DefaultRetryPolicy is the policy used when a put hook is installed
// without an explicit policy: three attempts, 200µs exponential backoff
// capped at 5ms.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, Backoff: 200 * time.Microsecond, MaxBackoff: 5 * time.Millisecond}
}

// normalize fills zero fields from the default policy.
func (p RetryPolicy) normalize() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.Backoff <= 0 {
		p.Backoff = def.Backoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = def.MaxBackoff
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Group manages the set of per-serving-node caches inside one complex. In
// the paper's SP2 layout (Figure 6) the trigger monitor on the SMP renders a
// page once and distributes the result to the caches of all eight
// uniprocessor serving nodes; Group.BroadcastPut is that distribution step.
//
// A Group is safe for concurrent use. Membership changes (nodes failing and
// rejoining) may interleave with broadcasts; a broadcast reaches exactly the
// members present when it starts.
type Group struct {
	mu     sync.RWMutex
	caches map[string]*Cache

	putHook   PutHook
	retry     RetryPolicy
	downgrade func(node string, key Key)

	pushRetries    stats.Counter // retry attempts after a failed push
	pushFailures   stats.Counter // individual failed push attempts
	pushDowngrades stats.Counter // pushes downgraded to invalidation
}

// GroupOption configures a Group.
type GroupOption func(*Group)

// WithPutHook intercepts every per-node put in BroadcastPut (fault
// injection). A failing hook triggers the group's retry policy.
func WithPutHook(h PutHook) GroupOption {
	return func(g *Group) { g.putHook = h }
}

// WithRetryPolicy sets the bounded-retry policy applied when a put hook
// fails. Without this option the default policy applies.
func WithRetryPolicy(p RetryPolicy) GroupOption {
	return func(g *Group) { g.retry = p.normalize() }
}

// WithDowngradeHook installs a callback fired each time a push exhausts its
// retries and is downgraded to an invalidation — the moment a node silently
// trades freshness for safety. The observability journal wires in here. The
// callback runs on the broadcasting goroutine and must not block.
func WithDowngradeHook(h func(node string, key Key)) GroupOption {
	return func(g *Group) { g.downgrade = h }
}

// NewGroup returns an empty group.
func NewGroup(opts ...GroupOption) *Group {
	g := &Group{caches: make(map[string]*Cache), retry: DefaultRetryPolicy().normalize()}
	for _, o := range opts {
		o(g)
	}
	return g
}

// Add registers a member cache under its name. Adding a second cache with
// the same name replaces the first (a node that rebooted rejoins with an
// empty cache).
func (g *Group) Add(c *Cache) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.caches[c.Name()] = c
}

// Remove drops the named member, returning it (or nil).
func (g *Group) Remove(name string) *Cache {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.caches[name]
	delete(g.caches, name)
	return c
}

// Get returns the named member cache.
func (g *Group) Get(name string) (*Cache, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	c, ok := g.caches[name]
	return c, ok
}

// Len returns the number of member caches.
func (g *Group) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.caches)
}

// Members returns the current member caches in unspecified order.
func (g *Group) Members() []*Cache {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*Cache, 0, len(g.caches))
	for _, c := range g.caches {
		out = append(out, c)
	}
	return out
}

// BroadcastPut installs obj itself, not a copy, in every member cache:
// members share the one immutable Object, so its response headers are
// memoized once per page rather than once per node. The fan-out is
// sequential, so the first member's Put stamps StoredAt before any member
// can serve the object and no later Put writes to it. If a put hook
// is installed and fails, the push to that node is retried with exponential
// backoff up to the retry policy's budget; on exhaustion the node's entry
// is invalidated instead — graceful degradation to a miss, never a stale
// hit. It returns the number of caches that received the fresh object.
func (g *Group) BroadcastPut(obj *Object) int {
	members := g.Members()
	g.mu.RLock()
	hook, retry, downgrade := g.putHook, g.retry, g.downgrade
	g.mu.RUnlock()

	fresh := 0
	for _, c := range members {
		if hook == nil {
			c.Put(obj)
			fresh++
			continue
		}
		if g.pushWithRetry(hook, retry, downgrade, c, obj) {
			fresh++
		}
	}
	return fresh
}

// pushWithRetry drives one node's push through the hook, retrying per the
// policy and invalidating the node's entry on exhaustion. Reports whether
// the node ended up with the fresh object.
func (g *Group) pushWithRetry(hook PutHook, retry RetryPolicy, downgrade func(string, Key), c *Cache, o *Object) bool {
	backoff := retry.Backoff
	for attempt := 1; ; attempt++ {
		err := hook(c.Name(), o, attempt)
		if err == nil {
			c.Put(o)
			return true
		}
		g.pushFailures.Inc()
		if attempt >= retry.MaxAttempts {
			// Exhausted: never leave the stale version serveable.
			c.Invalidate(o.Key)
			g.pushDowngrades.Inc()
			if downgrade != nil {
				downgrade(c.Name(), o.Key)
			}
			return false
		}
		g.pushRetries.Inc()
		retry.Sleep(backoff)
		backoff *= 2
		if backoff > retry.MaxBackoff {
			backoff = retry.MaxBackoff
		}
	}
}

// BroadcastInvalidate removes key from every member cache and returns how
// many caches held it. Invalidations are the degraded remedy and are never
// subject to push faults: dropping an entry requires no data transfer.
func (g *Group) BroadcastInvalidate(key Key) int {
	n := 0
	for _, c := range g.Members() {
		if c.Invalidate(key) {
			n++
		}
	}
	return n
}

// BroadcastInvalidatePrefix applies InvalidatePrefix to every member and
// returns the total number of entries removed.
func (g *Group) BroadcastInvalidatePrefix(prefix string) int {
	n := 0
	for _, c := range g.Members() {
		n += c.InvalidatePrefix(prefix)
	}
	return n
}

// ApplyPut implements the DUP store contract (core.Store) by broadcasting.
func (g *Group) ApplyPut(obj *Object) { g.BroadcastPut(obj) }

// ApplyInvalidate implements the DUP store contract by broadcasting.
func (g *Group) ApplyInvalidate(key Key) int { return g.BroadcastInvalidate(key) }

// ApplyInvalidatePrefix implements the DUP store contract by broadcasting.
func (g *Group) ApplyInvalidatePrefix(prefix string) int {
	return g.BroadcastInvalidatePrefix(prefix)
}

// PushStats snapshots the group's push-degradation counters.
type PushStats struct {
	Retries    int64 // retry attempts after failed pushes
	Failures   int64 // individual failed push attempts
	Downgrades int64 // pushes downgraded to an invalidation
}

// PushStats returns the group's push-degradation counters.
func (g *Group) PushStats() PushStats {
	return PushStats{
		Retries:    g.pushRetries.Value(),
		Failures:   g.pushFailures.Value(),
		Downgrades: g.pushDowngrades.Value(),
	}
}

// AggregateStats sums the counters of all member caches.
func (g *Group) AggregateStats() Stats {
	var agg Stats
	for _, c := range g.Members() {
		s := c.Stats()
		agg.Hits += s.Hits
		agg.Misses += s.Misses
		agg.Puts += s.Puts
		agg.Updates += s.Updates
		agg.Invalidations += s.Invalidations
		agg.Items += s.Items
		agg.Bytes += s.Bytes
		agg.PeakBytes += s.PeakBytes
	}
	return agg
}

// RegisterMetrics publishes every current member's counters plus
// aggregate compute-on-read gauges (total hit ratio, total bytes) into a
// registry. Call after membership is assembled; members added later need
// their own RegisterMetrics call.
func (g *Group) RegisterMetrics(reg *stats.Registry, extra stats.Labels) {
	for _, c := range g.Members() {
		c.RegisterMetrics(reg, extra)
	}
	reg.RegisterFunc("cache_group_hit_ratio",
		"aggregate hits/(hits+misses) across member caches", extra,
		func() float64 { return g.AggregateStats().HitRate() })
	reg.RegisterFunc("cache_group_bytes",
		"aggregate bytes across member caches", extra,
		func() float64 { return float64(g.AggregateStats().Bytes) })
	reg.RegisterFunc("cache_group_members",
		"member caches in the complex", extra,
		func() float64 { return float64(g.Len()) })
	reg.RegisterCounter("push_retries_total",
		"broadcast push attempts retried after a per-node failure", extra, &g.pushRetries)
	reg.RegisterCounter("push_failures_total",
		"individual per-node push attempts that failed", extra, &g.pushFailures)
	reg.RegisterCounter("push_downgrades_total",
		"pushes downgraded to invalidation after retry exhaustion", extra, &g.pushDowngrades)
}

// String describes the group for diagnostics.
func (g *Group) String() string {
	return fmt.Sprintf("cache.Group(%d members)", g.Len())
}
