// Package deploy assembles the paper's full production topology (figures 5
// and 6): a master database in Nagano, log-shipping replication to each
// geographic complex (optionally chained, as Schaumburg fanned out to
// Columbus and Bethesda), and inside every complex its own replica
// database, object dependence graph, DUP engine, trigger monitor, fragment
// renderers, serving nodes, and Network Dispatcher — all fronted by MSIRP
// routing.
//
// Where internal/sim approximates the plant with one engine for speed and
// determinism, a Deployment runs the real asynchronous pipeline: results
// committed at the master flow through replication delay, land on each
// replica's change feed, and each complex's trigger monitor independently
// regenerates and redistributes its own pages. The chaos, audit, recovery
// and flight scenarios (internal/chaos, run by cmd/simulate),
// examples/globalgames and every serving role of cmd/olympicsd run on it.
//
// A complex's serving nodes are either in-process (a cluster of caches and
// servers) or node processes named by wire address (ComplexSpec.Peers):
// then the engine pushes through a wire.GroupClient and the dispatcher
// fronts wire.RemoteNodes. A node process is a cache, as in the paper,
// where DB2 was replicated to each complex: the complex renders its misses.
//
// A Deployment has a start/drain lifecycle: New constructs the
// entire topology cold, Start(ctx) brings up replication and the trigger
// monitors, Shutdown(ctx) drains them. Started monitors are supervised:
// if one crashes (organically or via an injected fault), the deployment
// restarts it from its LastLSN checkpoint, and the replacement replays the
// replica's retained log from there — the paper's trigger-monitor restart
// story, with the "no committed transaction is ever dropped" invariant
// made testable.
package deploy

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"dupserve/internal/audit"
	"dupserve/internal/cache"
	"dupserve/internal/cluster"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/dispatch"
	"dupserve/internal/fault"
	"dupserve/internal/fragment"
	"dupserve/internal/httpserver"
	"dupserve/internal/obs"
	"dupserve/internal/odg"
	"dupserve/internal/overload"
	"dupserve/internal/recovery"
	"dupserve/internal/routing"
	"dupserve/internal/site"
	"dupserve/internal/stats"
	"dupserve/internal/trigger"
	"dupserve/internal/wire"
)

// ComplexSpec describes one geographic serving site.
type ComplexSpec struct {
	Name          string
	Frames        int
	NodesPerFrame int
	// ReplicationDelay models the WAN between this complex and its feed.
	ReplicationDelay time.Duration
	// ChainFrom names another complex whose replica feeds this one
	// (Columbus and Bethesda chained from Schaumburg). Empty = master.
	ChainFrom string
	// Distance is the backbone cost from each client region.
	Distance map[routing.Region]int
	// Peers, when set, makes this a wire complex: its serving nodes are the
	// node processes at these wire addresses, and Frames and NodesPerFrame
	// are ignored.
	Peers []string
	// Shaper delays every frame a wire complex sends by the returned
	// duration, modelling its link (nil: unshaped).
	Shaper func(bytes int) time.Duration
}

// MSIRP advertisement costs: each address is advertised at primaryCost by
// its primary complex and at secondaryCost by every other complex.
const (
	primaryCost   = 10
	secondaryCost = 20
)

// Config describes a deployment.
type Config struct {
	Spec site.Spec
	// Complexes in wiring order: a chained complex must appear after its
	// feed.
	Complexes []ComplexSpec
	// Policy selects each engine's remedy for obsolete objects (default
	// PolicyUpdateInPlace). Overload scenarios use PolicyInvalidate so cache
	// misses — and therefore the admission limiter — actually see traffic.
	Policy core.Policy
	// RenderCost, when set, runs before every page render — a knob for
	// modelling per-page generation work (e.g. httpserver.SpinOverhead).
	// The overload scenario spins here so a request flood actually
	// contends for render slots.
	RenderCost func()
	// ProbeInterval, when positive, runs every dispatcher's advisor probes
	// on that period, readmitting a node once its probe is healthy again.
	// Zero leaves probing to CheckNow and Advise calls (deterministic mode).
	ProbeInterval time.Duration
	// SLO is every complex's freshness objective: a propagation slower than
	// it counts as a violation and journals trace/slo_violation. Zero means
	// the paper's 60 seconds; chaos scenarios use a tight one.
	SLO time.Duration
}

// NaganoConfig returns the paper's four-complex layout with chained US
// east-coast replication, at reduced per-complex node counts. The backbone
// distances are chosen so geography dominates the primary/secondary
// advertisement spread; the day-long simulation in internal/sim routes over
// the same sites.
func NaganoConfig(spec site.Spec) Config {
	return Config{
		Spec: spec,
		Complexes: []ComplexSpec{
			{Name: "tokyo", Frames: 1, NodesPerFrame: 2, ReplicationDelay: 5 * time.Millisecond,
				Distance: map[routing.Region]int{routing.RegionJapan: 10, routing.RegionAsia: 20, routing.RegionUS: 80, routing.RegionEurope: 90, routing.RegionOther: 60}},
			{Name: "schaumburg", Frames: 1, NodesPerFrame: 2, ReplicationDelay: 15 * time.Millisecond,
				Distance: map[routing.Region]int{routing.RegionUS: 10, routing.RegionEurope: 50, routing.RegionJapan: 80, routing.RegionAsia: 70, routing.RegionOther: 50}},
			{Name: "columbus", Frames: 1, NodesPerFrame: 2, ReplicationDelay: 5 * time.Millisecond, ChainFrom: "schaumburg",
				Distance: map[routing.Region]int{routing.RegionUS: 10, routing.RegionEurope: 50, routing.RegionJapan: 90, routing.RegionAsia: 80, routing.RegionOther: 50}},
			{Name: "bethesda", Frames: 1, NodesPerFrame: 2, ReplicationDelay: 5 * time.Millisecond, ChainFrom: "schaumburg",
				Distance: map[routing.Region]int{routing.RegionUS: 10, routing.RegionEurope: 48, routing.RegionJapan: 90, routing.RegionAsia: 80, routing.RegionOther: 50}},
		},
	}
}

// Complex is one deployed serving site with its full local pipeline.
type Complex struct {
	Name string
	// Link names this complex's inbound replication link
	// ("master->tokyo"); fault injectors partition links by this name.
	Link       string
	Replica    *db.DB
	Replicator *db.Replicator // nil until the deployment is started
	Graph      *odg.Graph
	Engine     *core.Engine
	Site       *site.Site
	// Cluster holds an in-process complex's nodes and caches (nil on wire).
	Cluster *cluster.Complex
	// Dispatcher fronts the complex's serving nodes.
	Dispatcher *dispatch.Dispatcher
	// Auditor samples this complex's served responses and shadow-renders
	// them against the replica when the deployment was built WithAudit;
	// nil otherwise.
	Auditor *audit.Auditor
	// Obs is this complex's observability suite: the propagation tracer
	// (which survives monitor restarts, so freshness history spans
	// crashes), the serve-span collector its dispatcher mints into, the
	// event journal every state transition lands in, and the flight
	// recorder.
	Obs *obs.Suite
	// Recovery accumulates the complex's recovery_* metrics (warmups, pages
	// restored, replayed LSNs, readmissions, flap quarantines) when the
	// deployment was built WithRecovery; nil otherwise.
	Recovery *recovery.Metrics

	spec ComplexSpec
	feed *db.DB

	// A wire complex's push group, transport counters and node processes.
	push  *wire.GroupClient
	wm    *wire.Metrics
	nodes []nodeProcess

	mu         sync.Mutex
	mon        *trigger.Monitor
	generation int
	restarts   stats.Counter
}

// Monitor returns the complex's current trigger monitor (nil before the
// deployment is started). The instance changes when supervision restarts a
// crashed monitor, so callers should re-fetch rather than hold it.
func (cx *Complex) Monitor() *trigger.Monitor {
	cx.mu.Lock()
	defer cx.mu.Unlock()
	return cx.mon
}

// MonitorRestarts returns how many times supervision has restarted this
// complex's trigger monitor.
func (cx *Complex) MonitorRestarts() int64 { return cx.restarts.Value() }

// nodeProcess is one serving-node process of a wire complex, as its
// dispatcher sees it. A page the node does not hold (lost to a push
// downgrade or an invalidation) is rendered by render, the complex's
// cacheless server over its replica; nothing is pushed from the serve path.
// A process restarted empty on the same address answers pings with
// installed version 0, below the waves it acked, so it stays down until
// the next wave reaches it.
type nodeProcess struct {
	*wire.RemoteNode
	store  *wire.StoreClient
	render *httpserver.Server
}

// Ready implements dispatch.ReadyReporter. Only advisor probes call it, so
// the check costs the serve path nothing. Acked is read before a fresh
// ping, so a wave acked in between cannot fail it.
func (n nodeProcess) Ready() bool {
	acked := n.store.Acked()
	p, ok := n.Ping()
	return ok && p.Ready && p.Installed >= acked
}

// Serve implements dispatch.Node: the node's answer, or on a miss the
// complex's render (an unknown path is not found at both).
func (n nodeProcess) Serve(path string) (*cache.Object, httpserver.Outcome, error) {
	obj, outcome, err := n.RemoteNode.Serve(path)
	if outcome == httpserver.OutcomeNotFound {
		return n.render.Serve(path)
	}
	return obj, outcome, err
}

// Deployment is the assembled system. New builds it cold; Start brings up
// replication, trigger monitors, and monitor supervision.
type Deployment struct {
	Master *db.DB
	// MasterSite is the write-side site bound to the master database:
	// RecordResult, PublishNews and SetCurrentDay go through it.
	MasterSite *site.Site
	Router     *routing.Router

	complexes map[string]*Complex
	order     []string

	inj         *fault.Injector
	overload    *overload.Config
	staleBudget time.Duration
	audit       bool
	recovery    *recovery.Policy

	lifeMu   sync.Mutex
	started  bool
	stopping bool
	baseCtx  context.Context

	restarts stats.Counter // monitor restarts across all complexes
}

// Option configures a Deployment at construction time.
type Option func(*Deployment)

// WithFaults threads a fault injector through every layer of the
// deployment: per-node push failures in each complex's cache group, render
// faults in each engine's generator, crash hooks on every trigger monitor
// (supervision restarts them from checkpoint), and partition checks on
// every replication link (named by Complex.Link). A failed push is retried
// under faultRetry before it downgrades to an invalidation.
func WithFaults(inj *fault.Injector) Option {
	return func(d *Deployment) { d.inj = inj }
}

// faultRetry is the push retry policy under WithFaults: three tight,
// sleepless attempts. The injector decides a push's fate from its identity,
// so a backoff would cost only wall clock.
var faultRetry = cache.RetryPolicy{
	MaxAttempts: 3,
	Backoff:     50 * time.Microsecond,
	MaxBackoff:  time.Millisecond,
	Sleep:       func(time.Duration) {},
}

// WithOverload arms overload control on every serving node: each node gets
// its OWN admission limiter built from cfg (a limiter is per-node state),
// and every node cache retains invalidated entries so a shedding node can
// degrade to a stale-but-bounded copy no older than staleBudget instead of
// refusing outright. staleBudget <= 0 disables the stale fallback: shed
// requests fail over or 503 immediately.
func WithOverload(cfg overload.Config, staleBudget time.Duration) Option {
	return func(d *Deployment) { d.overload = &cfg; d.staleBudget = staleBudget }
}

// WithRecovery arms the node-recovery protocol on every complex. Each
// serving node gets a recovery.Warmer: its Fail detaches the node's cache
// from the broadcast group (a dead machine receives no pushes), and its
// Recover rebuilds the cache to a pinned LSN floor — healthy peers' copies
// first, floor renders as fallback, retained-log replay past the pin —
// before the node reports ready. The complex's dispatcher runs the
// probation state machine from p (probe hysteresis, slow-start ramp, flap
// damping), node lifecycle lands in the journal as node/down, node/warmup,
// node/readmitted and node/flap_quarantine events (the last trips the
// flight recorder), and recovery_* metrics accumulate per complex.
func WithRecovery(p recovery.Policy) Option {
	return func(d *Deployment) { d.recovery = &p }
}

// WithAudit gives every complex a consistency auditor: served responses
// are sampled via a response tap on every node, and Auditor.Sweep shadow-
// renders them against the complex's replica at a pinned LSN, classifying
// divergence and diffing observed reads against declared ODG edges. The
// auditor reads in-flight propagation and the freshness SLO from the
// complex's tracer, and inherits the stale budget of WithOverload.
func WithAudit() Option {
	return func(d *Deployment) { d.audit = true }
}

// New assembles a deployment cold: databases, graphs, engines, clusters,
// routing. Nothing moves until Start. Call Prime before serving, and
// Shutdown to drain.
func New(cfg Config, opts ...Option) (*Deployment, error) {
	if len(cfg.Complexes) == 0 {
		return nil, errors.New("deploy: no complexes configured")
	}
	d := &Deployment{
		Master:    db.New("master"),
		Router:    routing.NewRouter(routing.NumAddresses),
		complexes: make(map[string]*Complex),
	}
	for _, o := range opts {
		o(d)
	}
	masterSite, err := site.Build(cfg.Spec, d.Master, nil)
	if err != nil {
		return nil, err
	}
	d.MasterSite = masterSite

	for _, cs := range cfg.Complexes {
		if len(cs.Peers) > 0 && (d.inj != nil || d.overload != nil || d.audit || d.recovery != nil) {
			return nil, fmt.Errorf("deploy: %s: faults, overload, audit and recovery need in-process nodes", cs.Name)
		}
		feed := d.Master
		feedName := "master"
		if cs.ChainFrom != "" {
			up, ok := d.complexes[cs.ChainFrom]
			if !ok {
				return nil, fmt.Errorf("deploy: %s chains from unknown complex %q", cs.Name, cs.ChainFrom)
			}
			feed = up.Replica
			feedName = cs.ChainFrom
		}
		cx, err := d.newComplex(cs, cfg, feed, feedName)
		if err != nil {
			return nil, err
		}
		d.complexes[cs.Name] = cx
		d.order = append(d.order, cs.Name)
		d.Router.AddComplex(cs.Name, cx.Dispatcher, cs.Distance)
	}
	if err := d.Router.AdvertiseSpread(d.order, primaryCost, secondaryCost); err != nil {
		return nil, err
	}
	// MSIRP withdrawal steps land in the affected complex's journal.
	d.Router.OnShedChange(func(complexName string, withdrawn, prev int) {
		cx, ok := d.complexes[complexName]
		if !ok {
			return
		}
		kind, level := "withdraw", obs.LevelWarn
		if withdrawn < prev {
			kind, level = "restore", obs.LevelInfo
		}
		cx.Obs.Journal.Event(level, "routing", kind,
			"load advisor changed the complex's advertised address set",
			"complex", complexName,
			"withdrawn", strconv.Itoa(withdrawn),
			"prev", strconv.Itoa(prev))
	})
	return d, nil
}

func (d *Deployment) newComplex(cs ComplexSpec, cfg Config, feed *db.DB, feedName string) (*Complex, error) {
	replica := db.New(cs.Name)
	graph := odg.New()
	// The observability suite exists first so the store, the nodes and the
	// auditor can close over it.
	sopts := []obs.Option{obs.WithName(cs.Name)}
	if cfg.SLO > 0 {
		sopts = append(sopts, obs.WithSLO(cfg.SLO))
	}
	suite := obs.NewSuite(sopts...)
	cx := &Complex{
		Name:    cs.Name,
		Link:    feedName + "->" + cs.Name,
		Replica: replica,
		Graph:   graph,
		Obs:     suite,
		spec:    cs,
		feed:    feed,
	}

	var csite *site.Site
	gen := core.Generator(func(key cache.Key, version int64) (*cache.Object, error) {
		return csite.Engine.Generate(key, version)
	})
	if cfg.RenderCost != nil {
		base := gen
		gen = func(key cache.Key, version int64) (*cache.Object, error) {
			cfg.RenderCost()
			return base(key, version)
		}
	}
	if d.inj != nil {
		gen = d.inj.Generator(cs.Name, gen)
	}
	// The dispatcher mints a serve span per request.
	dopts := []dispatch.Option{dispatch.WithObserver(suite.Collector)}
	// The engine's store exists before the engine: a wire complex pushes
	// through its group client (whose ApplyBatch ships a page wave as one
	// frame per node), an in-process one through its cluster's cache group.
	var store core.Store
	if len(cs.Peers) > 0 {
		render := httpserver.New(cs.Name, nil, gen, replica.LSN)
		cx.Dispatcher = dispatch.New(dispatch.Config{Name: cs.Name, Nodes: cx.dialNodes(render), ProbeInterval: cfg.ProbeInterval}, dopts...)
		store = cx.push
	} else {
		d.buildCluster(cx, cfg, gen, dopts, func(ch db.Change) []odg.NodeID { return csite.Indexer(ch) })
		store = cx.Cluster.Caches
	}
	opts := []core.Option{core.WithGenerator(gen)}
	if cfg.Policy != core.PolicyUpdateInPlace {
		opts = append(opts, core.WithPolicy(cfg.Policy))
	}
	engine := core.NewEngine(graph, store, opts...)
	var err error
	csite, err = site.BuildReplica(cfg.Spec, replica, engine)
	if err != nil {
		return nil, err
	}
	// Incremental propagation: the engine's update-in-place path renders
	// each changed fragment once per batch and rebuilds containing pages by
	// splicing the fragment engine's cached bytes. The binding is late
	// because the site (and its fragment engine) is built around the
	// engine's registrar.
	engine.SetAssembler(csite.Engine)
	cx.Engine, cx.Site = engine, csite

	if d.recovery != nil {
		p := *d.recovery
		group := cx.Cluster.Caches
		// affectedPages maps a replayed transaction to the pages it
		// obsoletes: index each change into the ODG and keep the affected
		// node IDs that are pages.
		pageSet := make(map[string]bool)
		for _, pg := range csite.Pages() {
			pageSet[pg] = true
		}
		affectedPages := func(tx db.Transaction) []string {
			var ids []odg.NodeID
			for _, ch := range tx.Changes {
				ids = append(ids, csite.Indexer(ch)...)
			}
			var out []string
			for _, id := range graph.Affected(ids...) {
				if pageSet[string(id)] {
					out = append(out, string(id))
				}
			}
			return out
		}
		for _, node := range cx.Cluster.Nodes() {
			node := node
			c, ok := group.Get(node.Name())
			if !ok {
				continue
			}
			warmer := recovery.New(recovery.Config{
				Node:  node.Name(),
				Cache: c,
				Cold:  !p.Warm,
				Peers: func() []*cache.Cache {
					var out []*cache.Cache
					for _, pc := range group.Members() {
						if pc != c {
							out = append(out, pc)
						}
					}
					return out
				},
				Pages: csite.Pages,
				Render: func(path string, version int64) (*cache.Object, error) {
					return csite.Engine.Generate(cache.Key(path), version)
				},
				CurrentLSN:    replica.LSN,
				LogSince:      replica.LogSince,
				AffectedPages: affectedPages,
				Attach:        func() { group.Add(c) },
				Metrics:       cx.Recovery,
			})
			node.SetWarmup(func() error {
				rep, err := warmer.Warm()
				if err != nil {
					suite.Journal.Event(obs.LevelError, "node", "warmup_failed",
						err.Error(), "node", node.Name())
					return err
				}
				suite.Journal.Event(obs.LevelInfo, "node", "warmup",
					"cache rebuilt to the pinned LSN floor before readmission",
					"node", rep.Node,
					"pages", strconv.Itoa(rep.Pages),
					"from_peer", strconv.Itoa(rep.FromPeer),
					"rendered", strconv.Itoa(rep.Rendered),
					"floor_lsn", strconv.FormatInt(rep.FloorLSN, 10))
				return nil
			})
			// A dead machine receives no pushes: detach the cache from the
			// broadcast group on failure. The warmup's Attach reverses it.
			node.SetStateHook(func(name string, from, to cluster.NodeState) {
				if to == cluster.NodeDown {
					group.Remove(name)
				}
			})
		}
	}

	return cx, nil
}

// buildCluster builds an in-process complex's nodes, cache group and
// dispatcher with the deployment's fault, observability, overload,
// audit and recovery wiring; indexer feeds the auditor.
func (d *Deployment) buildCluster(cx *Complex, cfg Config, gen core.Generator, dopts []dispatch.Option, indexer func(db.Change) []odg.NodeID) {
	cs, journal := cx.spec, cx.Obs.Journal
	// Push downgrades: a broadcast that exhausted its retries against a
	// node and fell back to invalidation.
	groupOpts := []cache.GroupOption{cache.WithDowngradeHook(func(node string, key cache.Key) {
		journal.Event(obs.LevelWarn, "cache", "push_downgrade",
			"cache push exhausted retries; downgraded to invalidation",
			"node", node, "page", string(key))
	})}
	if d.inj != nil {
		groupOpts = append(groupOpts, cache.WithPutHook(d.inj.PushHook(cs.Name)),
			cache.WithRetryPolicy(faultRetry))
	}
	var auditor *audit.Auditor
	if d.audit {
		spec := cfg.Spec
		auditor = audit.New(audit.Config{
			Name:    cs.Name,
			Replica: cx.Replica,
			Build: func(sdb *db.DB, reg fragment.Registrar) (*fragment.Engine, []string, error) {
				s, err := site.BuildReplica(spec, sdb, reg)
				if err != nil {
					return nil, nil, err
				}
				return s.Engine, s.Pages(), nil
			},
			Indexer:     indexer,
			Tracer:      cx.Obs.Tracer,
			StaleBudget: d.staleBudget,
			OnIncoherent: func(page string) {
				journal.Event(obs.LevelError, "audit", "incoherent",
					"served page diverges from shadow render at the same LSN",
					"page", page)
			},
		})
	}

	clCfg := cluster.Config{
		Name:              cs.Name,
		Frames:            cs.Frames,
		NodesPerFrame:     cs.NodesPerFrame,
		Generator:         gen,
		Version:           cx.Replica.LSN,
		Statics:           d.MasterSite.Statics(),
		GroupOptions:      groupOpts,
		DispatcherOptions: dopts,
		ProbeInterval:     cfg.ProbeInterval,
	}
	// The nodes count their render-time database reads through a probe on
	// the replica.
	probe := obs.NewReadProbe()
	cx.Replica.SetReadHook(probe.Hook)
	nodeOptFns := []func(string) []httpserver.Option{func(string) []httpserver.Option {
		return []httpserver.Option{httpserver.WithReadProbe(probe)}
	}}
	if d.overload != nil {
		ocfg, budget := *d.overload, d.staleBudget
		if budget > 0 {
			clCfg.CacheOptions = []cache.Option{cache.WithStaleRetention()}
		}
		nodeOptFns = append(nodeOptFns, func(name string) []httpserver.Option {
			// Each node gets its own limiter (a limiter is per-node state)
			// and its own shed-transition journal hook.
			ncfg := ocfg
			ncfg.OnShedChange = func(shedding bool) {
				if shedding {
					journal.Event(obs.LevelWarn, "overload", "shed_start",
						"admission queue delay crossed the target; node is shedding",
						"node", name)
				} else {
					journal.Event(obs.LevelInfo, "overload", "shed_stop",
						"admission queue delay recovered; node stopped shedding",
						"node", name)
				}
			}
			return []httpserver.Option{httpserver.WithOverload(overload.NewLimiter(ncfg), budget)}
		})
	}
	if auditor != nil {
		nodeOptFns = append(nodeOptFns, func(string) []httpserver.Option {
			return []httpserver.Option{httpserver.WithResponseTap(auditor.Observe)}
		})
	}
	if d.recovery != nil {
		cx.Recovery = &recovery.Metrics{}
		// Probation-machine transitions feed the journal: node/down on
		// eviction (plus node/flap_quarantine when damping trips — a
		// flight-recorder trigger), node/readmitted when a node re-enters
		// the list.
		clCfg.DispatcherOptions = append(clCfg.DispatcherOptions,
			dispatch.WithHealthPolicy(d.recovery.HealthPolicy),
			dispatch.WithStateChange(func(ch dispatch.StateChange) {
				switch {
				case ch.To == dispatch.StateDown:
					journal.Event(obs.LevelWarn, "node", "down",
						"dispatcher evicted the node from the distribution list",
						"node", ch.Node, "cause", ch.Cause)
					if ch.Flapped {
						journal.Event(obs.LevelError, "node", "flap_quarantine",
							"repeated fail/recover cycles; readmission quarantined",
							"node", ch.Node,
							"flaps", strconv.Itoa(ch.Flaps),
							"quarantine", strconv.Itoa(ch.Quarantine))
					}
				case ch.From == dispatch.StateDown:
					journal.Event(obs.LevelInfo, "node", "readmitted",
						"node readmitted to the distribution list",
						"node", ch.Node, "state", ch.To.String())
				}
			}))
	}
	clCfg.NodeOptions = func(name string) []httpserver.Option {
		var opts []httpserver.Option
		for _, fn := range nodeOptFns {
			opts = append(opts, fn(name)...)
		}
		return opts
	}
	cx.Cluster = cluster.NewComplex(clCfg)
	cx.Dispatcher, cx.Auditor = cx.Cluster.Dispatcher, auditor
}

// dialNodes connects a wire complex to its node processes, one pooled
// client per node for pushes, serves and probes, and returns them as the
// dispatcher's pool, rendering misses through render. Connection state
// changes and push downgrades land in the journal.
func (cx *Complex) dialNodes(render *httpserver.Server) []dispatch.Node {
	journal := cx.Obs.Journal
	cx.wm = wire.NewMetrics()
	copts := []wire.ClientOption{
		wire.WithClientMetrics(cx.wm),
		wire.WithClientStateHook(func(name, event, detail string) {
			level := obs.LevelInfo
			if event == "disconnect" || event == "read_error" || event == "partition_drop" {
				level = obs.LevelWarn
			}
			journal.Event(level, "wire", event,
				"wire connection state change", "peer", name, "detail", detail)
		}),
	}
	if cx.spec.Shaper != nil {
		copts = append(copts, wire.WithShaper(cx.spec.Shaper))
	}
	var stores []*wire.StoreClient
	var pool []dispatch.Node
	for i, addr := range cx.spec.Peers {
		name := fmt.Sprintf("up%d", i)
		c := wire.Dial(name, addr, copts...)
		n := nodeProcess{wire.NewRemoteNode(name, c), wire.NewStoreClient(name, c), render}
		stores = append(stores, n.store)
		cx.nodes, pool = append(cx.nodes, n), append(pool, n)
	}
	cx.push = wire.NewGroupClient(stores, wire.WithGroupDowngradeHook(func(node string, key cache.Key) {
		journal.Event(obs.LevelWarn, "wire", "push_downgrade",
			"wire push exhausted retries; node entry invalidated",
			"node", node, "key", string(key))
	}))
	return pool
}

// Start brings the deployment up: replication begins shipping (with
// fault-injection partition checks when configured), every complex's
// trigger monitor starts and is supervised — a crashed monitor is
// restarted from its LastLSN checkpoint — and each dispatcher's advisors
// start when Config.ProbeInterval is set. Cancelling ctx initiates the
// same orderly drain as Shutdown.
func (d *Deployment) Start(ctx context.Context) error {
	d.lifeMu.Lock()
	if d.started {
		d.lifeMu.Unlock()
		return errors.New("deploy: already started")
	}
	d.started = true
	if ctx == nil {
		ctx = context.Background()
	}
	d.baseCtx = ctx
	d.lifeMu.Unlock()

	for _, name := range d.order {
		cx := d.complexes[name]
		replOpts := []db.ReplOption{db.WithDelay(cx.spec.ReplicationDelay)}
		if d.inj != nil {
			replOpts = append(replOpts, db.WithPartitionCheck(d.inj.PartitionCheck(cx.Link)))
		}
		cx.Replicator = db.StartReplication(cx.feed, cx.Replica, replOpts...)
		_ = cx.Dispatcher.Start(ctx) // fails only when started twice
		if err := d.startMonitor(cx, 0); err != nil {
			_ = d.Shutdown(context.Background())
			return err
		}
	}
	if ctx.Done() != nil {
		go func() {
			<-ctx.Done()
			_ = d.Shutdown(context.Background())
		}()
	}
	return nil
}

// startMonitor launches generation gen of cx's trigger monitor, resuming
// from the previous generation's checkpoint.
func (d *Deployment) startMonitor(cx *Complex, gen int) error {
	cx.mu.Lock()
	var checkpoint int64
	if cx.mon != nil {
		checkpoint = cx.mon.Checkpoint()
	}
	cx.mu.Unlock()

	journal := cx.Obs.Journal
	opts := []trigger.Option{
		trigger.WithIndexer(cx.Site.Indexer),
		trigger.WithTracer(cx.Obs.Tracer),
		trigger.WithOnReplay(func(count int, upto int64) {
			journal.Event(obs.LevelInfo, "trigger", "replay",
				"restarted monitor replayed retained log from checkpoint",
				"count", strconv.Itoa(count),
				"upto_lsn", strconv.FormatInt(upto, 10))
		}),
		trigger.WithOnCrash(func(err error) {
			journal.Event(obs.LevelError, "trigger", "crash", err.Error(),
				"complex", cx.Name, "generation", strconv.Itoa(gen))
			if d.inj != nil {
				d.superviseRestart(cx)
			}
		}),
	}
	if d.inj != nil {
		opts = append(opts, trigger.WithCrashHook(d.inj.CrashHook(cx.Name, gen)))
	}
	mon := trigger.New(trigger.Config{
		Name:     cx.Name,
		DB:       cx.Replica,
		Engine:   cx.Engine,
		StartLSN: checkpoint,
	}, opts...)
	if err := mon.Start(d.baseCtx); err != nil {
		return err
	}
	cx.mu.Lock()
	cx.mon = mon
	cx.generation = gen
	cx.mu.Unlock()
	return nil
}

// superviseRestart replaces a crashed monitor with a fresh generation
// started from the crashed one's checkpoint. Runs on the dying monitor's
// goroutine, after it has fully stopped.
func (d *Deployment) superviseRestart(cx *Complex) {
	d.lifeMu.Lock()
	stopping := d.stopping
	d.lifeMu.Unlock()
	if stopping {
		return
	}
	cx.restarts.Inc()
	d.restarts.Inc()
	cx.mu.Lock()
	gen := cx.generation + 1
	cx.mu.Unlock()
	// Checkpoint replay makes the error unrecoverable only if it repeats
	// every generation; the crash hook folds the generation into the fault
	// identity, so injected crashes do not.
	_ = d.startMonitor(cx, gen)
}

// Shutdown drains the deployment: every trigger monitor finishes its final
// propagation (bounded by ctx), supervision stands down, advisors and
// replication stop, and a wire complex closes its node connections. Safe
// to call more than once and on never-started deployments.
func (d *Deployment) Shutdown(ctx context.Context) error {
	d.lifeMu.Lock()
	d.stopping = true
	d.lifeMu.Unlock()
	var first error
	for _, cx := range d.complexes {
		if mon := cx.Monitor(); mon != nil {
			if err := mon.Shutdown(ctx); err != nil && first == nil {
				first = err
			}
		}
		if cx.Replicator != nil {
			cx.Replicator.Stop()
		}
		_ = cx.Dispatcher.Shutdown(ctx)
		if cx.push != nil {
			cx.push.Close()
		}
	}
	return first
}

// MonitorRestarts returns how many monitor restarts supervision has
// performed across all complexes.
func (d *Deployment) MonitorRestarts() int64 { return d.restarts.Value() }

// RegisterMetrics publishes the master database and every part of every
// complex into reg, each complex's series labelled with its name, and from
// then on every flight-recorder dump carries reg's snapshot. Call it after
// Start: the trigger families are the monitor generation running then
// (supervision replaces a monitor only under WithFaults).
func (d *Deployment) RegisterMetrics(reg *stats.Registry) {
	d.Master.RegisterMetrics(reg, stats.Labels{"db": "master"})
	for _, cx := range d.Complexes() {
		l := stats.Labels{"complex": cx.Name}
		cx.Replica.RegisterMetrics(reg, stats.Labels{"db": "replica", "complex": cx.Name})
		cx.Engine.RegisterMetrics(reg, l)
		cx.Monitor().RegisterMetrics(reg, l)
		cx.Dispatcher.RegisterMetrics(reg, l)
		reg.RegisterCounter("monitor_restarts_total",
			"trigger monitors restarted from checkpoint by supervision", l, &cx.restarts)
		cx.Obs.RegisterMetrics(reg, l)
		if cx.Auditor != nil {
			cx.Auditor.RegisterMetrics(reg, l)
		}
		if cx.Cluster == nil {
			cx.push.RegisterMetrics(reg, l)
			cx.wm.RegisterMetrics(reg, l)
			continue
		}
		cx.Cluster.Caches.RegisterMetrics(reg, l)
		for _, n := range cx.Cluster.Nodes() {
			if srv, ok := n.Server().(*httpserver.Server); ok {
				srv.RegisterMetrics(reg, l)
			}
		}
	}
}

// Complex returns a deployed complex by name.
func (d *Deployment) Complex(name string) (*Complex, bool) {
	cx, ok := d.complexes[name]
	return cx, ok
}

// Complexes returns the complexes in wiring order.
func (d *Deployment) Complexes() []*Complex {
	out := make([]*Complex, 0, len(d.order))
	for _, n := range d.order {
		out = append(out, d.complexes[n])
	}
	return out
}

// Prime waits for every replica to catch up with the master's seed data,
// then pre-renders the full page set into every complex's caches — the
// site-opening warm-up; a wire complex ships it as one page wave. It must
// be called before traffic for the paper's no-miss behaviour.
func (d *Deployment) Prime(timeout time.Duration) error {
	if !d.WaitFresh(timeout) {
		return errors.New("deploy: replicas did not catch up in time")
	}
	for _, cx := range d.Complexes() {
		var wave []*cache.Object
		put := func(o *cache.Object) { wave = append(wave, o) }
		if cx.Cluster != nil {
			put = func(o *cache.Object) { cx.Cluster.Caches.BroadcastPut(o) }
		}
		if err := cx.Site.PrerenderAll(cx.Replica.LSN(), put); err != nil {
			return fmt.Errorf("deploy: prime %s: %w", cx.Name, err)
		}
		if cx.Cluster == nil {
			cx.push.ApplyBatch(wave)
			continue
		}
		for _, c := range cx.Cluster.Caches.Members() {
			c.ResetCounters()
		}
	}
	return nil
}

// WaitFresh blocks until every complex has replicated AND propagated every
// transaction the master had committed at call time, or the timeout
// elapses. It reports whether full freshness was reached — the paper's
// "updated pages ... available to the rest of the world within seconds",
// made observable. It covers a wire complex's nodes too: ApplyBatch returns
// once every node acked or downgraded the wave. Freshness converges even
// across monitor crashes: the supervised replacement replays from
// checkpoint and catches up.
func (d *Deployment) WaitFresh(timeout time.Duration) bool {
	target := d.Master.LSN()
	deadline := time.Now().Add(timeout)
	for {
		fresh := true
		for _, cx := range d.Complexes() {
			if cx.Replica.LSN() < target {
				fresh = false
				break
			}
			mon := cx.Monitor()
			if mon == nil {
				fresh = false
				break
			}
			mon.Flush()
			if mon.LastLSN() < target {
				fresh = false
				break
			}
		}
		if fresh {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Serve routes one client request through MSIRP to a complex and its
// dispatcher.
func (d *Deployment) Serve(region routing.Region, path string) (*cache.Object, httpserver.Outcome, string, error) {
	return d.Router.Request(region, path)
}

// AdviseLoad runs one load-advisor sweep, closing the overload loop at the
// routing layer: each complex's aggregate load (the mean of its nodes'
// limiter signals, as seen by the Network Dispatcher) is fed to MSIRP,
// which withdraws advertised addresses in 8 1/3 % steps once the aggregate
// crosses the shed threshold — and re-advertises them as load subsides.
// Returns the per-complex load that was advised, for observability.
func (d *Deployment) AdviseLoad() map[string]float64 {
	loads := make(map[string]float64, len(d.order))
	for _, name := range d.order {
		load := d.complexes[name].Dispatcher.LoadSignal()
		loads[name] = load
		_ = d.Router.SetComplexLoad(name, load)
	}
	return loads
}
