package wire

import (
	"context"
	"sync"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/stats"
)

// RegisterStore exposes store over s as a push target: TypePutBatch
// installs an ordered wave of objects, TypeInvalidate /
// TypeInvalidatePrefix drop entries and ack with the removal count. A
// serving node registers its local cache here; the master's GroupClient
// fans broadcasts out to one such endpoint per node.
func RegisterStore(s *Server, store core.Store) {
	s.Handle(TypePutBatch, func(payload []byte) ([]byte, error) {
		// Decode the whole frame first: a malformed one installs nothing.
		objs, err := DecodeObjects(payload)
		if err != nil {
			return nil, err
		}
		for _, obj := range objs {
			store.ApplyPut(obj)
		}
		return nil, nil
	})
	s.Handle(TypeInvalidate, func(payload []byte) ([]byte, error) {
		key, err := DecodeString(payload)
		if err != nil {
			return nil, err
		}
		n := store.ApplyInvalidate(cache.Key(key))
		return EncodeUint(nil, uint64(n)), nil
	})
	s.Handle(TypeInvalidatePrefix, func(payload []byte) ([]byte, error) {
		prefix, err := DecodeString(payload)
		if err != nil {
			return nil, err
		}
		n := store.ApplyInvalidatePrefix(prefix)
		return EncodeUint(nil, uint64(n)), nil
	})
}

// StoreClient drives one remote node's cache over the wire. Unlike
// core.Store its methods return errors: the GroupClient above it owns the
// retry-and-downgrade policy, which needs to see failures.
type StoreClient struct {
	name string
	c    *Client
}

// NewStoreClient wraps c as a push target named name (the remote node's
// name, used in downgrade hooks and diagnostics).
func NewStoreClient(name string, c *Client) *StoreClient {
	return &StoreClient{name: name, c: c}
}

// Name returns the remote node's name.
func (sc *StoreClient) Name() string { return sc.name }

// putPayloads sends encoded TypePutBatch payloads one after another, each
// acked before the next leaves, so the node applies them in order.
func (sc *StoreClient) putPayloads(payloads [][]byte) error {
	for _, p := range payloads {
		if _, err := sc.c.Call(context.Background(), TypePutBatch, p); err != nil {
			return err
		}
	}
	return nil
}

// Invalidate drops key on the remote node, reporting whether it was held.
func (sc *StoreClient) Invalidate(key cache.Key) (int, error) {
	resp, err := sc.c.Call(context.Background(), TypeInvalidate, EncodeString(nil, string(key)))
	if err != nil {
		return 0, err
	}
	n, err := DecodeUint(resp)
	if err != nil {
		return 0, err
	}
	return int(n), nil
}

// InvalidatePrefix drops every key under prefix on the remote node.
func (sc *StoreClient) InvalidatePrefix(prefix string) (int, error) {
	resp, err := sc.c.Call(context.Background(), TypeInvalidatePrefix, EncodeString(nil, prefix))
	if err != nil {
		return 0, err
	}
	n, err := DecodeUint(resp)
	if err != nil {
		return 0, err
	}
	return int(n), nil
}

// Close closes the underlying client.
func (sc *StoreClient) Close() { sc.c.Close() }

// pendingSet is the invalidation debt owed to one unreachable node: keys
// (and prefixes) the pipeline decided must not be served stale, whose
// invalidation could not be delivered because the link was down. The debt
// is settled before any new operation reaches the node and by a background
// flusher, so a node that comes back holding a stale page has it purged
// before — not merely "eventually after" — traffic depends on it.
type pendingSet struct {
	keys     map[cache.Key]struct{}
	prefixes map[string]struct{}
}

func (p *pendingSet) empty() bool { return len(p.keys) == 0 && len(p.prefixes) == 0 }

// GroupClient is the wire analogue of cache.Group: it implements
// core.BatchStore by fanning every page wave and invalidation out to a set
// of remote nodes, a wave to all nodes in parallel, applying per node the
// same bounded-retry-then-downgrade policy BroadcastPut uses locally. The
// extra failure mode TCP adds — the downgrade invalidation itself failing
// because the connection is gone — is covered by per-node
// pending-invalidation debt replayed on the next contact.
type GroupClient struct {
	mu      sync.Mutex
	members []*StoreClient
	pending map[string]*pendingSet // by member name

	retry     cache.RetryPolicy
	downgrade func(node string, key cache.Key)

	pushRetries    stats.Counter
	pushFailures   stats.Counter
	pushDowngrades stats.Counter
	pendingReplays stats.Counter

	flushEvery time.Duration
	quit       chan struct{}
	quitOnce   sync.Once
	done       chan struct{}
}

// GroupClientOption configures a GroupClient.
type GroupClientOption func(*GroupClient)

// WithGroupRetryPolicy sets the per-node push retry policy (default
// cache.DefaultRetryPolicy). It is a test seam: tests shorten the retries
// so downgrade paths run fast.
func WithGroupRetryPolicy(p cache.RetryPolicy) GroupClientOption {
	return func(g *GroupClient) { g.retry = p }
}

// WithGroupDowngradeHook installs the downgrade callback (same contract as
// cache.WithDowngradeHook), called once per downgraded key. Members are
// pushed concurrently, so the hook must be safe for concurrent use. The
// observability journal wires in here.
func WithGroupDowngradeHook(h func(node string, key cache.Key)) GroupClientOption {
	return func(g *GroupClient) { g.downgrade = h }
}

// WithFlushInterval sets how often the background flusher retries pending
// invalidation debt (default 10ms; the loop idles cheaply when no debt
// exists). It is a test seam: tests slow or speed the flusher to drive
// debt deterministically.
func WithFlushInterval(d time.Duration) GroupClientOption {
	return func(g *GroupClient) {
		if d > 0 {
			g.flushEvery = d
		}
	}
}

// NewGroupClient returns a group over the given members and starts its
// background debt flusher. Close must be called to stop it.
func NewGroupClient(members []*StoreClient, opts ...GroupClientOption) *GroupClient {
	g := &GroupClient{
		members:    append([]*StoreClient(nil), members...),
		pending:    make(map[string]*pendingSet),
		retry:      cache.DefaultRetryPolicy(),
		flushEvery: 10 * time.Millisecond,
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	for _, o := range opts {
		o(g)
	}
	go g.flushLoop()
	return g
}

// Members returns the member store clients.
func (g *GroupClient) Members() []*StoreClient {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*StoreClient(nil), g.members...)
}

// flushLoop periodically settles pending invalidation debt, covering the
// case where a node's link heals but no new broadcast touches it.
func (g *GroupClient) flushLoop() {
	defer close(g.done)
	ticker := time.NewTicker(g.flushEvery)
	defer ticker.Stop()
	for {
		select {
		case <-g.quit:
			return
		case <-ticker.C:
			for _, m := range g.Members() {
				g.settle(m)
			}
		}
	}
}

// owed snapshots (without clearing) the debt owed to node name.
func (g *GroupClient) owed(name string) (keys []cache.Key, prefixes []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := g.pending[name]
	if p == nil {
		return nil, nil
	}
	for k := range p.keys {
		keys = append(keys, k)
	}
	for pre := range p.prefixes {
		prefixes = append(prefixes, pre)
	}
	return keys, prefixes
}

// addDebt records an undeliverable invalidation for later replay.
func (g *GroupClient) addDebt(name string, key cache.Key, prefix string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := g.pending[name]
	if p == nil {
		p = &pendingSet{keys: make(map[cache.Key]struct{}), prefixes: make(map[string]struct{})}
		g.pending[name] = p
	}
	if key != "" {
		p.keys[key] = struct{}{}
	}
	if prefix != "" {
		p.prefixes[prefix] = struct{}{}
	}
}

// clearDebt removes one settled entry.
func (g *GroupClient) clearDebt(name string, key cache.Key, prefix string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := g.pending[name]
	if p == nil {
		return
	}
	if key != "" {
		delete(p.keys, key)
	}
	if prefix != "" {
		delete(p.prefixes, prefix)
	}
	if p.empty() {
		delete(g.pending, name)
	}
}

// settle replays node m's pending invalidations, stopping at the first
// failure (the link is still down; the rest would fail too). Reports
// whether no debt remains.
func (g *GroupClient) settle(m *StoreClient) bool {
	keys, prefixes := g.owed(m.Name())
	for _, pre := range prefixes {
		if _, err := m.InvalidatePrefix(pre); err != nil {
			return false
		}
		g.pendingReplays.Inc()
		g.clearDebt(m.Name(), "", pre)
	}
	for _, k := range keys {
		if _, err := m.Invalidate(k); err != nil {
			return false
		}
		g.pendingReplays.Inc()
		g.clearDebt(m.Name(), k, "")
	}
	return true
}

// PendingDebt reports how many invalidations are currently owed across all
// nodes (tests and the coherence audit use it to know when the degraded
// path has fully settled).
func (g *GroupClient) PendingDebt() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, p := range g.pending {
		n += len(p.keys) + len(p.prefixes)
	}
	return n
}

// ApplyPut implements core.Store as a batch of one.
func (g *GroupClient) ApplyPut(obj *cache.Object) { g.ApplyBatch([]*cache.Object{obj}) }

// ApplyBatch implements core.BatchStore. The batch is encoded once and
// pushed to every member at the same time, one goroutine each, and the call
// returns when every member is done, so a slow or dead node delays only its
// own copy. Each member settles its older debt first, then takes the whole
// batch under the retry policy; on exhaustion every key downgrades to an
// invalidation, and an invalidation that cannot be delivered becomes debt.
func (g *GroupClient) ApplyBatch(objs []*cache.Object) {
	if len(objs) == 0 {
		return
	}
	g.mu.Lock()
	retry, downgrade := g.retry, g.downgrade
	g.mu.Unlock()
	// Only an object too large for any frame fails to encode; no node can
	// take the batch then, so every member downgrades it.
	payloads, encErr := batchPayloads(objs)
	var wg sync.WaitGroup
	for _, m := range g.members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Settle older debt first so operations arrive in a safe order: an
			// undelivered invalidation must not outlive a newer successful push.
			g.settle(m)
			push := func(int) error { return m.putPayloads(payloads) }
			if encErr == nil && retry.Do(push, &g.pushFailures, &g.pushRetries) {
				// A fresh object supersedes any debt recorded for its key
				// while this broadcast was in flight.
				for _, obj := range objs {
					g.clearDebt(m.Name(), obj.Key, "")
				}
				return
			}
			g.downgradeBatch(m, objs, downgrade)
		}()
	}
	wg.Wait()
}

// downgradeBatch invalidates on m every key of a batch it could not take.
// Once one invalidation fails the link is down and the rest would fail too,
// so that key and every later one become recorded debt: the node may hold
// stale copies, and the flusher and the next contact replay the debt before
// the node serves unchecked.
func (g *GroupClient) downgradeBatch(m *StoreClient, objs []*cache.Object, hook func(node string, key cache.Key)) {
	linkDown := false
	for _, obj := range objs {
		g.pushDowngrades.Inc()
		if !linkDown {
			_, err := m.Invalidate(obj.Key)
			linkDown = err != nil
		}
		if linkDown {
			g.addDebt(m.Name(), obj.Key, "")
		}
		if hook != nil {
			hook(m.Name(), obj.Key)
		}
	}
}

// ApplyInvalidate implements core.Store, summing per-node removal counts.
// Undeliverable invalidations become debt.
func (g *GroupClient) ApplyInvalidate(key cache.Key) int {
	total := 0
	for _, m := range g.Members() {
		g.settle(m)
		n, err := m.Invalidate(key)
		if err != nil {
			g.addDebt(m.Name(), key, "")
			continue
		}
		total += n
	}
	return total
}

// ApplyInvalidatePrefix implements core.Store.
func (g *GroupClient) ApplyInvalidatePrefix(prefix string) int {
	total := 0
	for _, m := range g.Members() {
		g.settle(m)
		n, err := m.InvalidatePrefix(prefix)
		if err != nil {
			g.addDebt(m.Name(), "", prefix)
			continue
		}
		total += n
	}
	return total
}

// RegisterMetrics publishes the group's push-degradation counters. Use
// labels to keep them distinct from a local cache.Group's identically named
// families (e.g. {"transport": "wire"}).
func (g *GroupClient) RegisterMetrics(reg *stats.Registry, labels stats.Labels) {
	reg.RegisterCounter("push_retries_total",
		"wire batch push attempts retried after a per-node failure", labels, &g.pushRetries)
	reg.RegisterCounter("push_failures_total",
		"individual per-node wire batch push attempts that failed", labels, &g.pushFailures)
	reg.RegisterCounter("push_downgrades_total",
		"keys downgraded to invalidation after a node's batch push exhausted retries", labels, &g.pushDowngrades)
	reg.RegisterCounter("wire_pending_replays_total",
		"pending invalidations replayed after a link recovered", labels, &g.pendingReplays)
	reg.RegisterFunc("wire_pending_invalidations",
		"invalidation debt currently owed to unreachable nodes", labels,
		func() float64 { return float64(g.PendingDebt()) })
}

// Close stops the background flusher and closes every member client.
func (g *GroupClient) Close() {
	g.quitOnce.Do(func() { close(g.quit) })
	<-g.done
	for _, m := range g.Members() {
		m.Close()
	}
}
