// Package recovery implements the node-recovery protocol: warmup-gated
// readmission for serving nodes that rejoin the cluster after a failure.
//
// The paper's eviction half is instant — a failed node is pulled from the
// Network Dispatcher's distribution list the moment a request or probe dies
// on it — but a rebooted node's memory-resident cache is gone, and letting
// it straight back into the pool invites a miss storm (every request a
// render) or, worse, stale serves if anything old survived. A Warmer closes
// that gap: before the node reports ready it pins the replica's current LSN
// as a floor, rebuilds the full page set — preferring copies from healthy
// peers' caches, which kept receiving trigger-monitor pushes while the node
// was dead, and re-rendering at the floor for anything no peer holds —
// re-attaches the cache to the complex's broadcast group, and replays
// retained log entries committed past the pin. A readmitted node therefore
// never serves a page older than what it served before dying: peer copies
// are at least as new as the node's pre-failure copies, and renders are
// stamped at or past the floor.
//
// The dispatcher side of the protocol (probe hysteresis, the slow-start
// weight ramp, flap damping) lives in internal/dispatch.HealthPolicy;
// Policy here carries both halves so deploy.WithRecovery can wire them
// together.
package recovery

import (
	"fmt"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/db"
	"dupserve/internal/stats"
)

// Policy configures the recovery protocol for a deployment.
type Policy struct {
	// Warm gates readmission on a cache rebuild to the pinned LSN floor.
	// False keeps readmission cold (the node rejoins with an empty cache) —
	// the baseline the recovery benchmark (simulate -recovery-bench)
	// compares against, and its reason to exist.
	Warm bool

	// Dispatcher probation knobs, mirrored into dispatch.HealthPolicy:
	// FailThreshold consecutive bad probe observations evict,
	// ReadmitThreshold consecutive good ones begin readmission at RampStart
	// traffic share growing by RampFactor per sweep, and a re-eviction
	// within FlapWindow good observations of readmission earns a quarantine
	// of QuarantineBase sweeps, doubling per flap up to QuarantineMax.
	FailThreshold    int
	ReadmitThreshold int
	RampStart        float64
	RampFactor       float64
	FlapWindow       int
	QuarantineBase   int
	QuarantineMax    int
}

// Config wires one node's Warmer. Everything is a closure so the package
// depends only on cache and db: deploy builds the closures from the
// complex's site, graph, replica, and cache group.
type Config struct {
	// Node names the recovering node (reports, metrics).
	Node string
	// Cache is the node's (cleared) cache to rebuild.
	Cache *cache.Cache
	// Peers returns the healthy peers' caches to restore from. A downed
	// node's cache is detached from the broadcast group, so the group's
	// remaining members are exactly the caches that stayed fresh.
	Peers func() []*cache.Cache
	// Pages returns the full page set to rebuild.
	Pages func() []string
	// Render regenerates one page at a version (the site builder's fragment
	// engine against the replica — the db.Snapshot-equivalent rebuild path
	// for pages no peer holds).
	Render func(path string, version int64) (*cache.Object, error)
	// CurrentLSN returns the replica's current LSN (the warmup pins this as
	// the floor).
	CurrentLSN func() int64
	// LogSince returns the replica's retained log entries past an LSN, for
	// the replay that closes the gap between the pin and the re-attach.
	LogSince func(after int64) []db.Transaction
	// AffectedPages maps a replayed transaction to the pages it obsoletes
	// (the site indexer composed with the ODG's Affected closure).
	AffectedPages func(tx db.Transaction) []string
	// Attach re-attaches the node's cache to the broadcast group once
	// restored, so trigger-monitor pushes reach it again. May be nil.
	Attach func()
	// Cold skips the rebuild entirely: the warmup only re-attaches the
	// empty cache. Only the recovery benchmark's cold-readmission baseline
	// (simulate -recovery-bench) sets it.
	Cold bool
	// Clock stamps the warmup duration (default time.Now).
	Clock func() time.Time
	// Metrics, when set, accumulates recovery_* counters across warmups.
	Metrics *Metrics
}

// Report describes one completed warmup.
type Report struct {
	Node string
	// Cold reports whether the rebuild was skipped (Policy.Warm == false).
	Cold bool
	// FloorLSN is the pinned floor: the replica's LSN when the warmup
	// started. Every restored page is at least this fresh or provably
	// unchanged since an older LSN a peer served.
	FloorLSN int64
	// FinalLSN is the replica's LSN when the warmup finished (>= FloorLSN;
	// the replay covered the difference).
	FinalLSN int64
	// Pages is the size of the rebuilt page set.
	Pages int
	// FromPeer counts pages restored by copying a healthy peer's cache
	// entry; Rendered counts pages re-rendered at the floor because no peer
	// held them.
	FromPeer int
	Rendered int
	// ReplayedTx and ReplayedPages count the retained-log replay past the
	// pin: transactions examined and pages re-rendered because a commit
	// landed between the pin and the re-attach.
	ReplayedTx    int
	ReplayedPages int
	// Duration is the wall-clock warmup time.
	Duration time.Duration
}

// Warmer rebuilds one node's cache for readmission. Safe to reuse across
// fail/recover cycles; each Warm call pins a fresh floor.
type Warmer struct {
	cfg Config
}

// New returns a Warmer over cfg.
func New(cfg Config) *Warmer {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Warmer{cfg: cfg}
}

// Warm performs one warmup: pin the floor, restore every page (peer copy
// first, floor render as fallback), re-attach the cache to the broadcast
// group, and replay retained log entries past the pin. On error the cache
// is left detached and the node must stay down.
func (w *Warmer) Warm() (Report, error) {
	cfg := w.cfg
	start := cfg.Clock()
	rep := Report{Node: cfg.Node, Cold: cfg.Cold}

	if cfg.Cold {
		if cfg.Attach != nil {
			cfg.Attach()
		}
		rep.Duration = cfg.Clock().Sub(start)
		if cfg.Metrics != nil {
			cfg.Metrics.observe(rep, nil)
		}
		return rep, nil
	}

	rep.FloorLSN = cfg.CurrentLSN()
	pages := cfg.Pages()
	rep.Pages = len(pages)
	var peers []*cache.Cache
	if cfg.Peers != nil {
		peers = cfg.Peers()
	}
	for _, p := range pages {
		if obj := newestPeerCopy(peers, cache.Key(p)); obj != nil {
			// Share the peer's immutable Object, as Group.BroadcastPut
			// shares one Object across members: its StoredAt is already
			// stamped, so Put never writes to it.
			cfg.Cache.Put(obj)
			rep.FromPeer++
			continue
		}
		obj, err := cfg.Render(p, rep.FloorLSN)
		if err != nil {
			err = fmt.Errorf("recovery: warm %s: render %s: %w", cfg.Node, p, err)
			if cfg.Metrics != nil {
				cfg.Metrics.observe(rep, err)
			}
			return rep, err
		}
		cfg.Cache.Put(obj)
		rep.Rendered++
	}
	if cfg.Attach != nil {
		cfg.Attach()
	}
	// Replay commits that landed after the pin: broadcasts since the
	// re-attach already cover the newest of them, so only pages whose
	// cached copy is still older than the replayed commit re-render.
	if cfg.LogSince != nil && cfg.AffectedPages != nil {
		for _, tx := range cfg.LogSince(rep.FloorLSN) {
			rep.ReplayedTx++
			for _, p := range cfg.AffectedPages(tx) {
				if cur, ok := cfg.Cache.Peek(cache.Key(p)); ok && cur.Version >= tx.LSN {
					continue
				}
				obj, err := cfg.Render(p, tx.LSN)
				if err != nil {
					err = fmt.Errorf("recovery: warm %s: replay %s@%d: %w", cfg.Node, p, tx.LSN, err)
					if cfg.Metrics != nil {
						cfg.Metrics.observe(rep, err)
					}
					return rep, err
				}
				cfg.Cache.Put(obj)
				rep.ReplayedPages++
			}
		}
	}
	rep.FinalLSN = cfg.CurrentLSN()
	rep.Duration = cfg.Clock().Sub(start)
	if cfg.Metrics != nil {
		cfg.Metrics.observe(rep, nil)
	}
	return rep, nil
}

// newestPeerCopy returns the freshest copy of key among peers, or nil.
func newestPeerCopy(peers []*cache.Cache, key cache.Key) *cache.Object {
	var best *cache.Object
	for _, p := range peers {
		if obj, ok := p.Peek(key); ok {
			if best == nil || obj.Version > best.Version {
				best = obj
			}
		}
	}
	return best
}

// Metrics accumulates recovery counters across a complex's warmups. The
// readmission and flap counters are fed by the dispatcher's state-change
// hook (deploy wires both sides).
type Metrics struct {
	Warmups              stats.Counter
	WarmupFailures       stats.Counter
	PagesFromPeer        stats.Counter
	PagesRendered        stats.Counter
	ReplayedTransactions stats.Counter
	ReplayedPages        stats.Counter
	Readmissions         stats.Counter
	FlapQuarantines      stats.Counter
	WarmupSeconds        *stats.Histogram
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		WarmupSeconds: stats.NewHistogram(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5),
	}
}

func (m *Metrics) observe(rep Report, err error) {
	if err != nil {
		m.WarmupFailures.Inc()
		return
	}
	m.Warmups.Inc()
	m.PagesFromPeer.Add(int64(rep.FromPeer))
	m.PagesRendered.Add(int64(rep.Rendered))
	m.ReplayedTransactions.Add(int64(rep.ReplayedTx))
	m.ReplayedPages.Add(int64(rep.ReplayedPages))
	m.WarmupSeconds.Observe(rep.Duration.Seconds())
}

// Register publishes the recovery_* metric families into a registry.
// labels (may be nil) are attached to every series.
func (m *Metrics) Register(reg *stats.Registry, labels stats.Labels) {
	reg.RegisterCounter("recovery_warmups_total",
		"node warmups completed before readmission", labels, &m.Warmups)
	reg.RegisterCounter("recovery_warmup_failures_total",
		"node warmups that failed (the node stayed down)", labels, &m.WarmupFailures)
	reg.RegisterCounter("recovery_pages_from_peer_total",
		"pages restored by copying a healthy peer's cache entry", labels, &m.PagesFromPeer)
	reg.RegisterCounter("recovery_pages_rendered_total",
		"pages re-rendered at the pinned LSN floor during warmup", labels, &m.PagesRendered)
	reg.RegisterCounter("recovery_replayed_transactions_total",
		"retained-log transactions replayed past the pinned floor", labels, &m.ReplayedTransactions)
	reg.RegisterCounter("recovery_replayed_pages_total",
		"pages re-rendered by the post-attach log replay", labels, &m.ReplayedPages)
	reg.RegisterCounter("recovery_readmissions_total",
		"nodes readmitted to the distribution list after eviction", labels, &m.Readmissions)
	reg.RegisterCounter("recovery_flap_quarantines_total",
		"flap-damping quarantines imposed on repeatedly failing nodes", labels, &m.FlapQuarantines)
	reg.RegisterHistogram("recovery_warmup_seconds",
		"wall-clock duration of node warmups", labels, m.WarmupSeconds)
}
