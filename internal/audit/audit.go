// Package audit is the consistency oracle for DUP: it proves, rather than
// assumes, that what the plant serves matches what the data says.
//
// The paper's whole value proposition rests on the object dependence graph
// being *complete* — every row a renderer reads must be declared as a
// dependency, or update-in-place silently serves stale bytes forever. The
// test suite exercises propagation, but nothing in it can tell a correctly
// propagated page from one whose missing edge simply never triggered a
// refresh. This package closes that gap with two instruments:
//
//   - A shadow-render oracle. Served responses (hits, misses, degraded
//     stale serves, sheds) are sampled via an httpserver.ResponseTap. A
//     sweep snapshots the replica at a pinned LSN, re-renders every page
//     against that snapshot with a fresh engine, and compares served bytes
//     to shadow bytes. Divergence is classified: *bounded-stale* when
//     committed-but-unpropagated changes explain it (or a degraded serve
//     stayed inside its freshness budget), *SLO-violating-stale* when the
//     explaining propagation had already exceeded the freshness SLO, and
//     *incoherent* when no change between the served version and the
//     snapshot reaches the page through the dependence graph — a real bug.
//
//   - An ODG completeness checker. The shadow renders run against a
//     read-tracking database view (db.SetReadHook), so the sweep knows
//     exactly which rows and membership indices each page's render
//     observed. Reads that do not reach the page through the shadow graph
//     are *missing edges* (the renderer read data it never declared);
//     declared db-level dependencies that no read observed are
//     *superfluous edges* (the declaration over-approximates, costing
//     needless regeneration).
//
// The classifier deliberately diffs against the graph the shadow renders
// themselves register, not the live complex's graph: under
// core.PolicyInvalidate a live graph lags for pages currently invalidated,
// which would flag healthy renderers. The shadow graph checks the renderer
// contract itself — "every read goes through the context" — independent of
// propagation state.
package audit

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/db"
	"dupserve/internal/fragment"
	"dupserve/internal/httpserver"
	"dupserve/internal/obs"
	"dupserve/internal/odg"
	"dupserve/internal/stats"
)

// SiteBuilder constructs the page set under audit against the given
// database, registering dependencies with registrar, and returns the render
// engine plus every auditable page path. The auditor calls it once per
// sweep with a freshly restored shadow database; builders must define
// renderers only, never seed data (site.BuildReplica has exactly this
// shape).
type SiteBuilder func(database *db.DB, registrar fragment.Registrar) (*fragment.Engine, []string, error)

// Config describes an Auditor.
type Config struct {
	// Name labels the auditor (typically the complex name).
	Name string
	// Replica is the database the audited complex renders from; sweeps
	// snapshot it and classify divergence using its retained log.
	Replica *db.DB
	// Build constructs the shadow site for each sweep.
	Build SiteBuilder
	// Indexer maps a change to its ODG vertices, exactly as the trigger
	// monitor's indexer does (site.Indexer). Nil uses Change.ChangeID only,
	// which misses membership indices — wire the real one when available.
	Indexer func(db.Change) []odg.NodeID
	// Tracer, when set, supplies in-flight propagation state at sample
	// time and the freshness SLO: explained divergence whose oldest
	// in-flight propagation exceeded the SLO at serve time is SLO-violating.
	// Without one, no divergence is classified SLO-violating.
	Tracer *obs.Tracer
	// StaleBudget is the bound a degraded (OutcomeStale) response must
	// respect; within it the response is bounded-stale by contract.
	StaleBudget time.Duration
	// MaxSamples bounds the sample buffer between sweeps (default 4096);
	// excess samples are dropped and counted.
	MaxSamples int
	// SampleEvery keeps one response in every n observed (default 1: keep
	// all).
	SampleEvery int
	// OnIncoherent, if set, is called once per incoherent page found by a
	// sweep, in sorted page order (on the sweeping goroutine). The
	// observability journal wires in here; the callback must not block.
	OnIncoherent func(page string)
}

// sample is one served response captured for the next sweep.
type sample struct {
	path     string
	outcome  httpserver.Outcome
	body     []byte
	version  int64
	staleAge time.Duration
	// replicaLSN, inFlight and worst snapshot propagation state at capture
	// time.
	replicaLSN int64
	inFlight   int
	worst      time.Duration
}

// Auditor samples served responses and sweeps them against shadow renders.
// Observe is safe for concurrent use from many serving nodes; Sweep may run
// concurrently with Observe but not with another Sweep.
type Auditor struct {
	cfg Config

	mu      sync.Mutex
	seq     int64
	samples []sample

	observed   stats.Counter
	dropped    stats.Counter
	sweeps     stats.Counter
	coherent   stats.Counter
	bounded    stats.Counter
	violating  stats.Counter
	incoherent stats.Counter
	unchecked  stats.Counter
	pages      stats.Gauge
	missing    stats.Gauge
	superfl    stats.Gauge
}

// New returns an Auditor. Config.Replica and Config.Build are required.
func New(cfg Config) *Auditor {
	if cfg.Replica == nil || cfg.Build == nil {
		panic("audit: Config.Replica and Config.Build are required")
	}
	if cfg.Name == "" {
		cfg.Name = cfg.Replica.Name()
	}
	if cfg.MaxSamples <= 0 {
		cfg.MaxSamples = 4096
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	if cfg.Indexer == nil {
		cfg.Indexer = func(c db.Change) []odg.NodeID {
			return []odg.NodeID{odg.NodeID(c.ChangeID())}
		}
	}
	return &Auditor{cfg: cfg}
}

// Observe captures one served response. It is the httpserver.ResponseTap
// for every node of the audited complex, so it runs on the request path:
// it snapshots the replica LSN and in-flight propagation state, appends to
// a bounded buffer, and returns.
func (a *Auditor) Observe(s httpserver.ResponseSample) {
	a.observed.Inc()
	var body []byte
	var version int64
	if s.Object != nil {
		body = s.Object.Value
		version = s.Object.Version
	}
	smp := sample{
		path:       s.Path,
		outcome:    s.Outcome,
		body:       body,
		version:    version,
		staleAge:   s.StaleAge,
		replicaLSN: a.cfg.Replica.LSN(),
	}
	if a.cfg.Tracer != nil {
		smp.inFlight = a.cfg.Tracer.InFlight()
		smp.worst = a.cfg.Tracer.WorstInFlight()
	}
	a.mu.Lock()
	a.seq++
	keep := a.seq%int64(a.cfg.SampleEvery) == 0
	if keep && len(a.samples) >= a.cfg.MaxSamples {
		keep = false
		a.dropped.Inc()
	}
	if keep {
		a.samples = append(a.samples, smp)
	}
	a.mu.Unlock()
}

// Sweep drains the buffered samples, shadow-renders the full page set
// against a pinned-LSN snapshot of the replica, runs the ODG completeness
// diff, classifies every sample, and returns the report. Counters and
// gauges registered via RegisterMetrics are updated as a side effect.
func (a *Auditor) Sweep() (*Report, error) {
	a.mu.Lock()
	samples := a.samples
	a.samples = nil
	a.mu.Unlock()
	a.sweeps.Inc()

	snap := a.cfg.Replica.Snapshot()
	shadow := db.New(a.cfg.Name + "-shadow")
	if err := shadow.Restore(snap); err != nil {
		return nil, fmt.Errorf("audit: shadow restore: %w", err)
	}
	reg := &shadowGraph{graph: odg.New()}
	engine, pages, err := a.cfg.Build(shadow, reg)
	if err != nil {
		return nil, fmt.Errorf("audit: shadow build: %w", err)
	}
	sort.Strings(pages)

	// Render every page with per-page read windows. Reads and dependency
	// registrations recorded inside a window belong to that page (including
	// fragments first rendered while the page included them).
	coll := &readCollector{}
	shadow.SetReadHook(coll.record)
	rendered := make(map[string][]byte, len(pages))
	rep := &Report{Name: a.cfg.Name, LSN: snap.LSN, Pages: len(pages), Dropped: a.dropped.Value()}
	edgeSeen := make(map[Edge]struct{})
	for _, p := range pages {
		coll.reset()
		reg.resetWindow()
		obj, err := engine.Generate(cache.Key(p), snap.LSN)
		if err != nil {
			shadow.SetReadHook(nil)
			return nil, fmt.Errorf("audit: shadow render %s: %w", p, err)
		}
		rendered[p] = obj.Value
		// Missing edges: observed reads that do not reach this page through
		// the graph the shadow renders registered.
		for _, id := range coll.list() {
			if !reg.reaches(odg.NodeID(id), p) {
				addEdge(&rep.MissingEdges, edgeSeen, Edge{Page: p, Vertex: id})
			}
		}
		// Superfluous edges: declared db-level dependencies of objects
		// registered in this window that no read observed.
		for _, r := range reg.window {
			for _, dep := range r.deps {
				if strings.HasPrefix(string(dep), "db:") && !coll.saw(string(dep)) {
					addEdge(&rep.SuperfluousEdges, edgeSeen, Edge{Page: p, Vertex: string(dep)})
				}
			}
		}
	}
	shadow.SetReadHook(nil)

	// Classify every sample against the shadow renders.
	incoherentPages := make(map[string]struct{})
	affects := make(map[odg.NodeID]map[string]struct{})
	for _, s := range samples {
		rep.Samples++
		switch a.classify(s, rendered, reg.graph, snap.LSN, affects) {
		case verdictShed:
			rep.Shed++
		case verdictUnchecked:
			rep.Unchecked++
			a.unchecked.Inc()
		case verdictCoherent:
			rep.Coherent++
			a.coherent.Inc()
		case verdictBounded:
			rep.BoundedStale++
			a.bounded.Inc()
		case verdictViolating:
			rep.ViolatingStale++
			a.violating.Inc()
		case verdictIncoherent:
			rep.Incoherent++
			a.incoherent.Inc()
			incoherentPages[s.path] = struct{}{}
		}
	}
	for p := range incoherentPages {
		rep.IncoherentPages = append(rep.IncoherentPages, p)
	}
	sort.Strings(rep.IncoherentPages)
	if a.cfg.OnIncoherent != nil {
		for _, p := range rep.IncoherentPages {
			a.cfg.OnIncoherent(p)
		}
	}
	sortEdges(rep.MissingEdges)
	sortEdges(rep.SuperfluousEdges)

	a.pages.Set(int64(rep.Pages))
	a.missing.Set(int64(len(rep.MissingEdges)))
	a.superfl.Set(int64(len(rep.SuperfluousEdges)))
	return rep, nil
}

type verdict int

const (
	verdictShed verdict = iota
	verdictUnchecked
	verdictCoherent
	verdictBounded
	verdictViolating
	verdictIncoherent
)

// classify decides what one sample's divergence (if any) means.
//
// The load-bearing step is "explained": a divergence is propagation lag,
// not a bug, iff some change committed after the served body's version (and
// at or before the snapshot) reaches the page through the shadow graph — or
// propagation was still in flight when the response was captured, which
// covers the one lag the log cannot see (a miss render splicing a fragment
// whose own refresh had not yet run, stamping a version at or above the
// change). At quiescence the in-flight escape is inert — InFlight is zero —
// so quiescent sweeps are exactly as sharp as the log-based check.
func (a *Auditor) classify(s sample, rendered map[string][]byte, g *odg.Graph, snapLSN int64, affects map[odg.NodeID]map[string]struct{}) verdict {
	if s.outcome == httpserver.OutcomeShed || s.body == nil {
		return verdictShed
	}
	want, ok := rendered[s.path]
	if !ok {
		return verdictUnchecked
	}
	if bytes.Equal(s.body, want) {
		return verdictCoherent
	}
	explained := s.inFlight > 0
	if !explained && snapLSN > s.version {
		// The explanation needs every transaction in (version, snapLSN].
		// If truncation (or a snapshot bootstrap) removed part of that
		// range from the retained log, err toward lag rather than raising
		// a false alarm.
		oldest := a.cfg.Replica.OldestRetainedLSN()
		if oldest == 0 || oldest > s.version+1 {
			explained = true
		}
	}
	if !explained {
		for _, tx := range a.cfg.Replica.LogSince(s.version) {
			if tx.LSN > snapLSN {
				break
			}
			for _, c := range tx.Changes {
				for _, id := range a.cfg.Indexer(c) {
					if a.affectsPage(g, id, s.path, affects) {
						explained = true
					}
				}
			}
			if explained {
				break
			}
		}
	}
	if !explained {
		return verdictIncoherent
	}
	if s.outcome == httpserver.OutcomeStale && a.cfg.StaleBudget > 0 && s.staleAge <= a.cfg.StaleBudget {
		return verdictBounded
	}
	if t := a.cfg.Tracer; t != nil && t.SLO() > 0 && s.worst > t.SLO() {
		return verdictViolating
	}
	return verdictBounded
}

// affectsPage reports whether changed vertex id reaches page in g,
// memoizing the affected set per vertex across one sweep.
func (a *Auditor) affectsPage(g *odg.Graph, id odg.NodeID, page string, memo map[odg.NodeID]map[string]struct{}) bool {
	set, ok := memo[id]
	if !ok {
		set = make(map[string]struct{})
		for _, n := range g.Affected(id) {
			set[string(n)] = struct{}{}
		}
		memo[id] = set
	}
	_, hit := set[page]
	return hit
}

// RegisterMetrics publishes the audit_* metric families.
func (a *Auditor) RegisterMetrics(reg *stats.Registry, extra stats.Labels) {
	labels := stats.Labels{"auditor": a.cfg.Name}
	for k, v := range extra {
		labels[k] = v
	}
	reg.RegisterCounter("audit_samples_total", "served responses observed by the auditor", labels, &a.observed)
	reg.RegisterCounter("audit_samples_dropped_total", "samples dropped by the bounded buffer", labels, &a.dropped)
	reg.RegisterCounter("audit_sweeps_total", "shadow-render sweeps executed", labels, &a.sweeps)
	reg.RegisterCounter("audit_coherent_total", "samples whose bytes matched the shadow render", labels, &a.coherent)
	reg.RegisterCounter("audit_bounded_stale_total", "divergent samples explained by in-flight propagation or within the stale budget", labels, &a.bounded)
	reg.RegisterCounter("audit_violating_stale_total", "explained divergence whose propagation exceeded the freshness SLO", labels, &a.violating)
	reg.RegisterCounter("audit_incoherent_total", "divergent samples no propagation explains — consistency bugs", labels, &a.incoherent)
	reg.RegisterCounter("audit_unchecked_total", "samples for paths outside the shadow page set", labels, &a.unchecked)
	reg.RegisterFunc("audit_pages_checked", "pages shadow-rendered in the last sweep", labels,
		func() float64 { return float64(a.pages.Value()) })
	reg.RegisterFunc("audit_missing_edges", "observed reads not declared in the ODG (last sweep)", labels,
		func() float64 { return float64(a.missing.Value()) })
	reg.RegisterFunc("audit_superfluous_edges", "declared db-level dependencies no read observed (last sweep)", labels,
		func() float64 { return float64(a.superfl.Value()) })
}

// shadowGraph is the capturing registrar: it maintains the dependence graph
// the shadow renders declare (via the same ReplaceDependencies semantics as
// core.Engine) and records registrations per render window for the
// superfluous-edge diff.
type shadowGraph struct {
	graph  *odg.Graph
	window []registration
	memo   map[odg.NodeID]map[string]struct{}
}

type registration struct {
	key  cache.Key
	deps []odg.NodeID
}

func (r *shadowGraph) RegisterObject(key cache.Key, deps []odg.NodeID) {
	r.graph.ReplaceDependencies(odg.NodeID(key), deps)
	r.window = append(r.window, registration{key: key, deps: deps})
}

func (r *shadowGraph) RegisterFragment(key cache.Key, deps []odg.NodeID) {
	r.graph.ReplaceDependencies(odg.NodeID(key), deps)
	r.graph.AddNode(odg.NodeID(key), odg.KindBoth)
	r.window = append(r.window, registration{key: key, deps: deps})
}

func (r *shadowGraph) resetWindow() {
	r.window = r.window[:0]
	// Registrations change the graph, so reachability memos go stale with
	// every window.
	r.memo = nil
}

// reaches reports whether vertex id transitively affects page.
func (r *shadowGraph) reaches(id odg.NodeID, page string) bool {
	if r.memo == nil {
		r.memo = make(map[odg.NodeID]map[string]struct{})
	}
	set, ok := r.memo[id]
	if !ok {
		set = make(map[string]struct{})
		for _, n := range r.graph.Affected(id) {
			set[string(n)] = struct{}{}
		}
		r.memo[id] = set
	}
	_, hit := set[page]
	return hit
}

// readCollector accumulates the vertex names a render window read. record
// runs under the shadow database's read lock, so it only appends.
type readCollector struct {
	ids  []string
	seen map[string]struct{}
}

func (c *readCollector) record(id string) {
	if _, dup := c.seen[id]; dup {
		return
	}
	if c.seen == nil {
		c.seen = make(map[string]struct{})
	}
	c.seen[id] = struct{}{}
	c.ids = append(c.ids, id)
}

func (c *readCollector) reset() {
	c.ids = c.ids[:0]
	c.seen = make(map[string]struct{})
}

func (c *readCollector) list() []string {
	out := append([]string(nil), c.ids...)
	sort.Strings(out)
	return out
}

func (c *readCollector) saw(id string) bool {
	_, ok := c.seen[id]
	return ok
}

func addEdge(dst *[]Edge, seen map[Edge]struct{}, e Edge) {
	if _, dup := seen[e]; dup {
		return
	}
	seen[e] = struct{}{}
	*dst = append(*dst, e)
}

func sortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Page != edges[j].Page {
			return edges[i].Page < edges[j].Page
		}
		return edges[i].Vertex < edges[j].Vertex
	})
}
