// Package cluster models the physical serving plant of section 3: SP2
// systems ("frames") composed of serving nodes, grouped into geographic
// complexes, with failure injection at every level so the paper's "elegant
// degradation" chain — node -> frame -> dispatcher -> complex — is a
// measurable property rather than a diagram.
//
// A Node wraps any dispatch.Node (normally an httpserver.Server) with a
// kill switch. Failing a node makes it error on every request, which causes
// the complex's Network Dispatcher to pull it from the distribution list;
// recovering it rejoins the pool with a cold cache, exactly like a rebooted
// machine whose memory-resident page cache is gone.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/dispatch"
	"dupserve/internal/httpserver"
)

// ErrNodeDown is returned by a failed node.
var ErrNodeDown = errors.New("cluster: node down")

// ErrNodeWarming is returned by a node rebuilding its cache before
// readmission: it is alive but must not serve until the warmup reaches the
// pinned LSN floor (internal/recovery).
var ErrNodeWarming = errors.New("cluster: node warming")

// NodeState is a node's lifecycle state.
type NodeState int32

const (
	// NodeUp: serving.
	NodeUp NodeState = iota
	// NodeWarming: recovering — the warmup hook is rebuilding the cache;
	// probes fail and LoadSignal is withdrawn until it finishes.
	NodeWarming
	// NodeDown: failed.
	NodeDown
)

func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeWarming:
		return "warming"
	default:
		return "down"
	}
}

// WarmupFunc rebuilds a node's serving state before readmission (see
// internal/recovery.Warmer). It runs on its own goroutine; returning an
// error leaves the node down.
type WarmupFunc func() error

// Node is a failable serving node.
type Node struct {
	name  string
	inner dispatch.Node
	// Optional inner interfaces, resolved once at construction so the serve
	// hot path performs no per-request type assertions.
	innerCtx  ctxServer
	innerLoad loadSignaler
	innerRdy  readyReporter
	cache     *cache.Cache // cleared on failure (memory-resident cache)
	state     atomic.Int32 // NodeState
	epoch     atomic.Int64 // bumped on every Fail; in-flight warmups abandon

	mu   sync.Mutex
	warm WarmupFunc
	hook func(name string, from, to NodeState)
}

// The optional interfaces a wrapped node may implement, mirrored here so
// they can be pre-resolved at construction.
type (
	ctxServer interface {
		ServeCtx(ctx context.Context, path string) (*cache.Object, httpserver.Outcome, error)
	}
	loadSignaler  interface{ LoadSignal() float64 }
	readyReporter interface{ Ready() bool }
)

// NewNode wraps inner with a kill switch. c may be nil when the node's
// cache should survive failures (e.g. a disk-backed store).
func NewNode(name string, inner dispatch.Node, c *cache.Cache) *Node {
	n := &Node{name: name, inner: inner, cache: c}
	n.innerCtx, _ = inner.(ctxServer)
	n.innerLoad, _ = inner.(loadSignaler)
	n.innerRdy, _ = inner.(readyReporter)
	return n
}

// Name implements dispatch.Node.
func (n *Node) Name() string { return n.name }

// Serve implements dispatch.Node, failing while the node is down.
func (n *Node) Serve(path string) (*cache.Object, httpserver.Outcome, error) {
	return n.ServeCtx(context.Background(), path)
}

// ServeCtx forwards the request context — and with it any serve span the
// dispatcher minted — through the kill switch to the inner node.
func (n *Node) ServeCtx(ctx context.Context, path string) (*cache.Object, httpserver.Outcome, error) {
	switch NodeState(n.state.Load()) {
	case NodeDown:
		return nil, httpserver.OutcomeError, fmt.Errorf("%w: %s", ErrNodeDown, n.name)
	case NodeWarming:
		return nil, httpserver.OutcomeError, fmt.Errorf("%w: %s", ErrNodeWarming, n.name)
	}
	if n.innerCtx != nil {
		return n.innerCtx.ServeCtx(ctx, path)
	}
	return n.inner.Serve(path)
}

// SetWarmup installs the recovery warmup hook: with one installed, Recover
// enters NodeWarming and runs it asynchronously, and the node only reaches
// NodeUp when the hook succeeds. Without one, Recover flips straight up
// (a cold rejoin).
func (n *Node) SetWarmup(w WarmupFunc) {
	n.mu.Lock()
	n.warm = w
	n.mu.Unlock()
}

// SetStateHook registers an observer of node state transitions (journal
// wiring, cache detach on failure). The hook runs on whatever goroutine
// caused the transition, without node locks held.
func (n *Node) SetStateHook(fn func(name string, from, to NodeState)) {
	n.mu.Lock()
	n.hook = fn
	n.mu.Unlock()
}

func (n *Node) transition(from, to NodeState) {
	n.mu.Lock()
	hook := n.hook
	n.mu.Unlock()
	if hook != nil {
		hook(n.name, from, to)
	}
}

// Fail takes the node down and discards its memory-resident cache. Failing
// again while already down (or mid-warmup) is a no-op beyond abandoning
// any in-flight warmup.
func (n *Node) Fail() {
	n.epoch.Add(1)
	for {
		s := NodeState(n.state.Load())
		if s == NodeDown {
			return
		}
		if n.state.CompareAndSwap(int32(s), int32(NodeDown)) {
			if n.cache != nil {
				n.cache.Clear()
			}
			n.transition(s, NodeDown)
			return
		}
	}
}

// Recover brings the node back. With a warmup hook installed the node
// enters NodeWarming — probes fail, LoadSignal is withdrawn, serves error —
// until the hook has rebuilt the cache to the pinned LSN floor; only then
// does it report up. Without a hook it rejoins immediately with whatever
// its cache holds (empty after a Fail until the trigger monitor
// redistributes pages). A Fail during the warmup wins: the stale warmup's
// result is discarded.
func (n *Node) Recover() {
	n.mu.Lock()
	warm := n.warm
	n.mu.Unlock()
	if warm == nil {
		for {
			s := NodeState(n.state.Load())
			if s == NodeUp {
				return
			}
			if n.state.CompareAndSwap(int32(s), int32(NodeUp)) {
				n.transition(s, NodeUp)
				return
			}
		}
	}
	if !n.state.CompareAndSwap(int32(NodeDown), int32(NodeWarming)) {
		return // already up or warming
	}
	n.transition(NodeDown, NodeWarming)
	epoch := n.epoch.Load()
	go func() {
		err := warm()
		if n.epoch.Load() != epoch {
			return // failed again mid-warmup; this warmup is stale
		}
		if err != nil {
			if n.state.CompareAndSwap(int32(NodeWarming), int32(NodeDown)) {
				n.transition(NodeWarming, NodeDown)
			}
			return
		}
		if n.state.CompareAndSwap(int32(NodeWarming), int32(NodeUp)) {
			n.transition(NodeWarming, NodeUp)
		}
	}()
}

// WaitReady blocks until the node reports up or the timeout elapses,
// reporting which. Deterministic scenarios use it to sequence a rejoin.
func (n *Node) WaitReady(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if n.Ready() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// LoadSignal forwards the inner node's overload signal so the dispatcher's
// load-aware selection sees through the kill-switch wrapper. A node without
// one (or a node that is down or warming, which must not look busy — it
// looks dead) reports 0.
func (n *Node) LoadSignal() float64 {
	if NodeState(n.state.Load()) != NodeUp {
		return 0
	}
	if n.innerLoad != nil {
		return n.innerLoad.LoadSignal()
	}
	return 0
}

// Ready implements dispatch.ReadyReporter: the advisors' synthetic health
// check. A node is ready only when it is up AND its inner server is (a
// draining httpserver reports not-ready through the same interface).
func (n *Node) Ready() bool {
	if NodeState(n.state.Load()) != NodeUp {
		return false
	}
	if n.innerRdy != nil {
		return n.innerRdy.Ready()
	}
	return true
}

// Server returns the wrapped inner node (normally the *httpserver.Server),
// so callers can reach per-server statistics through the kill-switch.
func (n *Node) Server() dispatch.Node { return n.inner }

// Frame is one SP2: a set of serving nodes that share a power boundary, so
// frame failure takes all of them down at once.
type Frame struct {
	Name  string
	Nodes []*Node
}

// Fail downs every node in the frame.
func (f *Frame) Fail() {
	for _, n := range f.Nodes {
		n.Fail()
	}
}

// Recover restores every node in the frame.
func (f *Frame) Recover() {
	for _, n := range f.Nodes {
		n.Recover()
	}
}

// Config describes a complex to build.
type Config struct {
	// Name of the complex ("tokyo").
	Name string
	// Frames is the number of SP2 systems (the paper: 3 or 4 per site).
	Frames int
	// NodesPerFrame is the number of serving uniprocessors per SP2 (the
	// paper: 8).
	NodesPerFrame int
	// Generator regenerates pages on cache miss (may be nil).
	Generator core.Generator
	// Version stamps generated pages (may be nil).
	Version httpserver.VersionFunc
	// ProbeInterval is the dispatcher's advisor period (see
	// dispatch.Config; zero runs no background advisors).
	ProbeInterval time.Duration
	// NodeOptions, when set, returns extra per-node httpserver options
	// keyed by node name — the hook through which deploy gives each node
	// its own overload limiter (a limiter is per-node state and must not
	// be shared).
	NodeOptions func(name string) []httpserver.Option
	// CacheOptions are applied to every node's cache (e.g. stale retention
	// for overload degradation).
	CacheOptions []cache.Option
	// Statics is installed on every node's server (the Welcome/Venues/Fun
	// sections served from the filesystem).
	Statics map[string][]byte
	// GroupOptions are applied to the complex's cache group (push hooks,
	// retry policy — the fault-injection seams).
	GroupOptions []cache.GroupOption
	// DispatcherOptions are applied to the complex's dispatcher.
	DispatcherOptions []dispatch.Option
}

// Complex is one geographic serving site: frames of nodes behind a Network
// Dispatcher, with a cache group spanning every node for the trigger
// monitor's broadcasts.
type Complex struct {
	name       string
	Dispatcher *dispatch.Dispatcher
	Caches     *cache.Group
	Frames     []*Frame
}

// NewComplex builds a complex per cfg: Frames x NodesPerFrame serving
// nodes, each with its own cache registered in Caches, all pooled behind
// one dispatcher named after the complex.
func NewComplex(cfg Config) *Complex {
	if cfg.Frames <= 0 {
		cfg.Frames = 1
	}
	if cfg.NodesPerFrame <= 0 {
		cfg.NodesPerFrame = 8
	}
	cx := &Complex{
		name:   cfg.Name,
		Caches: cache.NewGroup(cfg.GroupOptions...),
	}
	var poolNodes []dispatch.Node
	for f := 0; f < cfg.Frames; f++ {
		frame := &Frame{Name: fmt.Sprintf("%s-sp2-%d", cfg.Name, f)}
		for u := 0; u < cfg.NodesPerFrame; u++ {
			name := fmt.Sprintf("%s-up%d", frame.Name, u)
			c := cache.New(name, cfg.CacheOptions...)
			cx.Caches.Add(c)
			var srvOpts []httpserver.Option
			if cfg.NodeOptions != nil {
				srvOpts = cfg.NodeOptions(name)
			}
			srv := httpserver.New(name, c, cfg.Generator, cfg.Version, srvOpts...)
			for path, body := range cfg.Statics {
				srv.SetStatic(path, body, "text/html; charset=utf-8")
			}
			node := NewNode(name, srv, c)
			frame.Nodes = append(frame.Nodes, node)
			poolNodes = append(poolNodes, node)
		}
		cx.Frames = append(cx.Frames, frame)
	}
	cx.Dispatcher = dispatch.New(
		dispatch.Config{Name: cfg.Name, Nodes: poolNodes, ProbeInterval: cfg.ProbeInterval},
		cfg.DispatcherOptions...)
	return cx
}

// Name implements dispatch.Node.
func (c *Complex) Name() string { return c.name }

// Serve implements dispatch.Node by forwarding through the complex's
// dispatcher, so a Complex plugs directly into the routing layer.
func (c *Complex) Serve(path string) (*cache.Object, httpserver.Outcome, error) {
	return c.Dispatcher.Serve(path)
}

// Nodes returns every node in the complex.
func (c *Complex) Nodes() []*Node {
	var out []*Node
	for _, f := range c.Frames {
		out = append(out, f.Nodes...)
	}
	return out
}

// FailFrame downs frame i and advises the dispatcher so the pool reflects
// it immediately.
func (c *Complex) FailFrame(i int) {
	if i < 0 || i >= len(c.Frames) {
		return
	}
	c.Frames[i].Fail()
	c.Advise()
}

// RecoverFrame restores frame i and advises the dispatcher.
func (c *Complex) RecoverFrame(i int) {
	if i < 0 || i >= len(c.Frames) {
		return
	}
	c.Frames[i].Recover()
	c.Advise()
}

// FailAll downs the entire complex.
func (c *Complex) FailAll() {
	for _, f := range c.Frames {
		f.Fail()
	}
	c.Advise()
}

// RecoverAll restores the entire complex.
func (c *Complex) RecoverAll() {
	for _, f := range c.Frames {
		f.Recover()
	}
	c.Advise()
}

// Advise runs one advisor sweep: nodes that are not ready (down, or
// warming toward readmission) are pulled from the dispatcher; ready nodes
// count one good observation toward readmission — instant under the
// default dispatcher policy, gated by quarantine, readmit threshold, and
// the slow-start ramp under a recovery HealthPolicy. Returns the number of
// ready nodes.
func (c *Complex) Advise() int {
	healthy := 0
	for _, n := range c.Nodes() {
		if n.Ready() {
			c.Dispatcher.MarkUp(n.Name())
			healthy++
		} else {
			c.Dispatcher.MarkDown(n.Name())
		}
	}
	return healthy
}

// Ledger tracks availability over a sampled timeline: each Record call is
// one observation of whether the site could serve at that instant. The
// paper's headline is "available 100% of the time"; the simulation records
// a sample per simulated interval and reports the fraction.
type Ledger struct {
	mu       sync.Mutex
	samples  int64
	up       int64
	downRuns int64
	lastUp   bool
	started  bool
}

// Record adds one availability observation.
func (l *Ledger) Record(up bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples++
	if up {
		l.up++
	} else if !l.started || l.lastUp {
		l.downRuns++
	}
	l.lastUp = up
	l.started = true
}

// Availability returns the fraction of samples that were up (1 when no
// samples were recorded, matching "never observed down").
func (l *Ledger) Availability() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.samples == 0 {
		return 1
	}
	return float64(l.up) / float64(l.samples)
}

// Outages returns the number of distinct down intervals observed.
func (l *Ledger) Outages() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.downRuns
}
