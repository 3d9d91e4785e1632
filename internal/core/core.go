// Package core implements Data Update Propagation (DUP), the paper's
// primary contribution: given a set of changes to underlying data, determine
// exactly which cached objects became obsolete, and remedy each one by
// regenerating it directly in the cache (the 1998 design) or invalidating it
// (the fallback), instead of conservatively dumping whole sections of the
// cache (the 1996 design that capped hit rates near 80%).
//
// The Engine ties together three collaborators:
//
//   - an object dependence graph (internal/odg) recording which objects
//     depend on which underlying data;
//   - a Store — anything that can accept fresh objects and invalidations
//     (a single cache, or a cache.Group fanning out to all serving nodes);
//   - a Generator that re-renders an object on demand (the page renderer).
//
// Server programs register each rendered object's dependencies with
// RegisterObject; the trigger monitor calls OnChange with the rows each
// database transaction touched. Everything in between is DUP.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/odg"
	"dupserve/internal/stats"
)

// Policy selects the remedy DUP applies to obsolete objects.
type Policy uint8

const (
	// PolicyUpdateInPlace regenerates each affected object and stores the
	// fresh version over the stale one. Pages never leave the cache, so hot
	// pages never miss — the mechanism behind the paper's ~100% hit rate.
	PolicyUpdateInPlace Policy = iota
	// PolicyInvalidate removes each affected object from the store; the
	// next request regenerates it (precise invalidation, still DUP).
	PolicyInvalidate
	// PolicyConservative ignores the dependence graph and invalidates
	// whole key prefixes derived from the changed data — the 1996 Atlanta
	// design. It requires a ConservativeMapper.
	PolicyConservative
	// PolicyHybrid regenerates *hot* objects in place and invalidates cold
	// ones — the paper's actual prose: "when hot pages in the cache became
	// obsolete as a result of updates to underlying data, new versions of
	// the pages were updated directly in the cache". Hotness comes from a
	// HotOracle; fragments (objects other objects depend on) are always
	// regenerated, since a page render must find its fragments fresh.
	PolicyHybrid
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyUpdateInPlace:
		return "update-in-place"
	case PolicyInvalidate:
		return "invalidate"
	case PolicyConservative:
		return "conservative"
	case PolicyHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Store is where DUP applies its remedies. It is the single shared
// contract of the propagation pipeline: *cache.Cache and *cache.Group
// implement it directly (Apply* methods). Injected push faults live in
// cache.Group's put hook (fault.Injector.PushHook), which downgrades a
// failed push to an invalidation.
type Store interface {
	// ApplyPut installs a freshly generated object.
	ApplyPut(obj *cache.Object)
	// ApplyInvalidate removes an object, reporting how many cache replicas
	// held it.
	ApplyInvalidate(key cache.Key) int
	// ApplyInvalidatePrefix removes every object whose key has the prefix,
	// returning the total entries removed across replicas.
	ApplyInvalidatePrefix(prefix string) int
}

// BatchStore is a Store that takes a whole wave of fresh objects in one
// call (*wire.GroupClient ships it as one frame per node). The engine finds
// it by type assertion and then hands each regenerated set over at once —
// the phase-1 fragments, then the phase-2 page wave — instead of calling
// ApplyPut per object.
type BatchStore interface {
	Store
	// ApplyBatch installs freshly generated objects, in order.
	ApplyBatch(objs []*cache.Object)
}

// Assembler is the engine's contract with an incremental page-assembly
// renderer (*fragment.Engine implements it). Before phase-1 fragment
// regeneration the engine opens a batch, pinning the batch version as the
// required floor for every changed fragment — page assembly then splices
// cached fragment bytes only at or above their floors, re-rendering (with
// single-flight deduplication) anything stale. EndBatch closes the batch
// and reports its render-vs-reuse accounting.
type Assembler interface {
	// BeginBatch pins version as the required floor for the changed
	// fragments and opens the batch's accounting window.
	BeginBatch(version int64, fragments []cache.Key)
	// EndBatch reports fragment renders and cached-byte reuses performed
	// since BeginBatch.
	EndBatch() (renders, reuses int64)
}

// Generator re-renders the object stored under key. The returned object's
// Key must equal key. Version is the LSN of the change batch that made the
// object obsolete; generators stamp it into the object so freshness is
// observable end-to-end.
type Generator func(key cache.Key, version int64) (*cache.Object, error)

// HotOracle reports whether a cached object is hot enough to be worth
// regenerating eagerly under PolicyHybrid. A typical oracle compares the
// serving cache's HitCount against a threshold.
type HotOracle func(key cache.Key) bool

// ConservativeMapper translates a changed underlying-data ID into the cache
// key prefixes to drop, e.g. "db:results:alpine:*" -> ["/en/sports/alpine",
// "/ja/sports/alpine", "/en/today"]. Used only by PolicyConservative.
type ConservativeMapper func(changedID odg.NodeID) []string

// ErrNoGenerator is returned when an update-in-place engine has no
// generator to regenerate objects with.
var ErrNoGenerator = errors.New("core: no generator configured")

// Result summarizes one propagation.
type Result struct {
	// Changed is the number of underlying-data IDs in the batch.
	Changed int
	// Affected is the number of distinct cached objects DUP identified as
	// obsolete (or, for the conservative policy, the number of cache
	// entries dropped).
	Affected int
	// Updated counts objects regenerated in place.
	Updated int
	// Invalidated counts objects (or entries) removed.
	Invalidated int
	// Deferred counts objects left in place because their accumulated
	// weighted staleness has not yet crossed the threshold.
	Deferred int
	// Errors collects generation failures; failed objects are invalidated
	// instead so the cache can never serve a page DUP knows is stale.
	Errors []error

	// FragmentRenders and FragmentReuses are the batch's render-vs-reuse
	// accounting from the assembler: fragments rendered (each changed
	// fragment exactly once) and cached fragment splices during page
	// assembly. Zero when no assembler is wired.
	FragmentRenders int
	FragmentReuses  int

	// Stage timings, for propagation tracing (internal/obs): how long
	// this propagation spent traversing the dependence graph, regenerating
	// objects, and pushing remedies into the store. Render and push are
	// summed over the objects of the propagation.
	GraphDur  time.Duration
	RenderDur time.Duration
	PushDur   time.Duration
	// FragmentDur and AssembleDur split the incremental planner's wall
	// clock into phase 1 (changed-fragment renders) and phase 2 (page
	// assembly). Zero when no assembler is wired; RenderDur remains the
	// summed render time across both phases.
	FragmentDur time.Duration
	AssembleDur time.Duration
}

// Engine executes DUP propagations. Safe for concurrent use, though the
// intended deployment runs propagations from a single trigger-monitor
// goroutine while readers serve from the caches.
type Engine struct {
	graph  *odg.Graph
	store  Store
	batch  BatchStore // store, when it takes whole waves; else nil
	gen    Generator
	policy Policy
	mapper ConservativeMapper
	hot    HotOracle

	// asm, when set, switches update-in-place propagation to the
	// incremental planner: the affected set is partitioned into changed
	// fragments and containing pages, fragments render exactly once in
	// phase 1, and pages rebuild by memoized assembly in phase 2. Written
	// once at wiring time (SetAssembler), before
	// propagation starts.
	asm Assembler

	// threshold enables weighted mode when > 0: objects accumulate
	// staleness across propagations and are remediated only once the
	// accumulation reaches the threshold (section 2: "it is often possible
	// to save considerable CPU cycles by allowing pages to remain in the
	// cache which are only slightly obsolete").
	threshold float64
	staleMu   sync.Mutex
	staleAcc  map[cache.Key]float64 // accumulated below-threshold staleness

	propagations stats.Counter
	updated      stats.Counter
	invalidated  stats.Counter
	deferred     stats.Counter
	genErrors    stats.Counter
	fragRenders  stats.Counter
	fragReuses   stats.Counter
}

// Option configures an Engine.
type Option func(*Engine)

// WithPolicy selects the remedy policy (default PolicyUpdateInPlace).
func WithPolicy(p Policy) Option {
	return func(e *Engine) { e.policy = p }
}

// WithGenerator supplies the object regenerator (required for
// PolicyUpdateInPlace).
func WithGenerator(g Generator) Option {
	return func(e *Engine) { e.gen = g }
}

// WithConservativeMapper supplies the prefix mapper for
// PolicyConservative.
func WithConservativeMapper(m ConservativeMapper) Option {
	return func(e *Engine) { e.mapper = m }
}

// WithHotOracle supplies the hot-page signal for PolicyHybrid. Without an
// oracle, PolicyHybrid treats every object as hot (equivalent to
// PolicyUpdateInPlace).
func WithHotOracle(h HotOracle) Option {
	return func(e *Engine) { e.hot = h }
}

// WithStalenessThreshold enables weighted-staleness mode: an object is
// remediated only when its accumulated staleness reaches t. Requires the
// dependence graph to carry meaningful weights.
func WithStalenessThreshold(t float64) Option {
	return func(e *Engine) { e.threshold = t }
}

// SetAssembler wires an incremental page assembler (typically the
// complex's *fragment.Engine): update-in-place propagation partitions the
// affected set into changed fragments and containing pages, renders each
// fragment exactly once per batch, and rebuilds pages by splicing the
// cached fragment bytes. It is the one binding, after construction,
// because the deployment builds its engine before the site (and therefore
// the fragment engine) exists. Call before propagation starts; the engine
// does not synchronize this field against in-flight OnChange calls.
func (e *Engine) SetAssembler(a Assembler) { e.asm = a }

// NewEngine returns an Engine over the given graph and store.
func NewEngine(graph *odg.Graph, store Store, opts ...Option) *Engine {
	e := &Engine{
		graph:    graph,
		store:    store,
		policy:   PolicyUpdateInPlace,
		staleAcc: make(map[cache.Key]float64),
	}
	e.batch, _ = store.(BatchStore)
	for _, o := range opts {
		o(e)
	}
	return e
}

// RegisterObject declares that the cached object key depends on exactly the
// given underlying-data IDs, replacing any previous registration. Server
// programs call this after each render.
func (e *Engine) RegisterObject(key cache.Key, deps []odg.NodeID) {
	e.graph.ReplaceDependencies(odg.NodeID(key), deps)
}

// RegisterFragment declares a cached object that other objects depend on (a
// page fragment): it is marked KindBoth so changes flow through it.
func (e *Engine) RegisterFragment(key cache.Key, deps []odg.NodeID) {
	e.graph.ReplaceDependencies(odg.NodeID(key), deps)
	e.graph.AddNode(odg.NodeID(key), odg.KindBoth)
}

// OnChange runs one DUP propagation for a batch of changed underlying-data
// IDs. version is the LSN (or other monotone stamp) of the batch; it is
// handed to the generator so freshly rendered objects carry it.
func (e *Engine) OnChange(version int64, changed ...odg.NodeID) Result {
	e.propagations.Inc()
	res := Result{Changed: len(changed)}
	if len(changed) == 0 {
		return res
	}

	if e.policy == PolicyConservative {
		return e.conservative(res, changed)
	}

	graphStart := time.Now()
	var affected []odg.NodeID
	if e.threshold > 0 {
		affected, res.Deferred = e.thresholdFilter(changed)
	} else {
		affected = e.graph.Affected(changed...)
	}
	res.GraphDur = time.Since(graphStart)
	res.Affected = len(affected)

	switch e.policy {
	case PolicyInvalidate:
		pushStart := time.Now()
		for _, id := range affected {
			n := e.store.ApplyInvalidate(cache.Key(id))
			if n > 0 {
				res.Invalidated++
			}
		}
		res.PushDur = time.Since(pushStart)
		e.invalidated.Add(int64(res.Invalidated))
	case PolicyHybrid:
		e.hybrid(&res, version, affected)
	case PolicyUpdateInPlace:
		e.updateInPlace(&res, version, affected)
	}
	return res
}

// updateInPlace regenerates the affected objects in dependency order
// (fragments before the pages that embed them) and broadcasts each fresh
// object to the store — per object, or per set to a BatchStore.
func (e *Engine) updateInPlace(res *Result, version int64, affected []odg.NodeID) {
	if e.gen == nil {
		// Degrade to invalidation rather than serving stale data.
		pushStart := time.Now()
		for _, id := range affected {
			if e.store.ApplyInvalidate(cache.Key(id)) > 0 {
				res.Invalidated++
			}
		}
		res.PushDur += time.Since(pushStart)
		res.Errors = append(res.Errors, ErrNoGenerator)
		e.invalidated.Add(int64(res.Invalidated))
		return
	}
	if e.asm != nil {
		e.assemble(res, version, affected)
	} else {
		e.regenerateSet(res, version, e.dependencyOrder(affected))
	}
	e.updated.Add(int64(res.Updated))
	e.invalidated.Add(int64(res.Invalidated))
}

// assemble is the incremental batch planner: partition the affected set
// into changed fragments and merely-containing pages, open the assembler's
// batch (pinning fragment version floors), render each changed fragment
// exactly once in phase 1 (dependency-ordered, so nested fragments precede
// their embedders), then rebuild the containing pages in phase 2 as one
// flat wave — every fragment a page splices is already fresh, so
// page assembly degenerates to cached-byte concatenation and the batch's
// render work scales with the number of changed fragments, not
// pages x fragments.
func (e *Engine) assemble(res *Result, version int64, affected []odg.NodeID) {
	fragments, pages := e.graph.Partition(affected)
	keys := make([]cache.Key, len(fragments))
	for i, id := range fragments {
		keys[i] = cache.Key(id)
	}
	e.asm.BeginBatch(version, keys)
	fragStart := time.Now()
	e.regenerateSet(res, version, e.dependencyOrder(fragments))
	res.FragmentDur += time.Since(fragStart)
	asmStart := time.Now()
	// Pages have no edges among themselves (a depended-on vertex is by
	// definition in the fragment partition), so no ordering pass is needed.
	e.regenerateSet(res, version, pages)
	res.AssembleDur += time.Since(asmStart)
	renders, reuses := e.asm.EndBatch()
	res.FragmentRenders += int(renders)
	res.FragmentReuses += int(reuses)
	e.fragRenders.Add(renders)
	e.fragReuses.Add(reuses)
}

// regenerateSet regenerates an ordered set of objects, one at a time in
// set order. Each fresh object goes to the store at once, or, with a
// BatchStore, all of them in one ApplyBatch after the set has rendered. A
// failed render is invalidated at once: never leave a known-stale page in
// the cache.
func (e *Engine) regenerateSet(res *Result, version int64, ordered []odg.NodeID) {
	var wave []*cache.Object
	if e.batch != nil {
		wave = make([]*cache.Object, 0, len(ordered))
	}
	for _, id := range ordered {
		renderStart := time.Now()
		obj, err := e.gen(cache.Key(id), version)
		res.RenderDur += time.Since(renderStart)
		if err != nil {
			e.genErrors.Inc()
			pushStart := time.Now()
			if e.store.ApplyInvalidate(cache.Key(id)) > 0 {
				res.Invalidated++
			}
			res.PushDur += time.Since(pushStart)
			res.Errors = append(res.Errors, fmt.Errorf("core: regenerate %q: %w", id, err))
			continue
		}
		if obj.Version == 0 {
			obj.Version = version
		}
		res.Updated++
		if e.batch != nil {
			wave = append(wave, obj)
			continue
		}
		pushStart := time.Now()
		e.store.ApplyPut(obj)
		res.PushDur += time.Since(pushStart)
	}
	if len(wave) > 0 {
		pushStart := time.Now()
		e.batch.ApplyBatch(wave)
		res.PushDur += time.Since(pushStart)
	}
}

// hybrid regenerates hot objects (and every fragment, which pages depend
// on) in place, and invalidates cold objects so their next request
// regenerates them on demand.
func (e *Engine) hybrid(res *Result, version int64, affected []odg.NodeID) {
	if e.gen == nil {
		e.updateInPlace(res, version, affected) // degrades to invalidation
		return
	}
	var regen []odg.NodeID
	pushStart := time.Now()
	for _, id := range affected {
		isFragment := len(e.graph.Successors(id)) > 0
		if isFragment || e.hot == nil || e.hot(cache.Key(id)) {
			regen = append(regen, id)
			continue
		}
		if e.store.ApplyInvalidate(cache.Key(id)) > 0 {
			res.Invalidated++
		}
	}
	res.PushDur += time.Since(pushStart)
	e.invalidated.Add(int64(res.Invalidated))
	e.updateInPlace(res, version, regen)
}

// dependencyOrder sorts the affected set so that predecessors (fragments)
// come before successors (pages), using a topological sort restricted to
// the affected subgraph — propagation cost must scale with the update's
// fan-out, not the size of the site.
func (e *Engine) dependencyOrder(affected []odg.NodeID) []odg.NodeID {
	if len(affected) <= 1 {
		return affected
	}
	return e.graph.SubgraphTopoOrder(affected)
}

// thresholdFilter accumulates weighted staleness for the affected objects
// and returns only those that crossed the threshold, resetting their
// accumulators. Objects below threshold are counted as deferred.
func (e *Engine) thresholdFilter(changed []odg.NodeID) (due []odg.NodeID, deferred int) {
	changes := make(map[odg.NodeID]float64, len(changed))
	for _, id := range changed {
		changes[id] = 1
	}
	st := e.graph.Staleness(changes)
	e.staleMu.Lock()
	for id, s := range st {
		key := cache.Key(id)
		acc := e.staleAcc[key] + s
		if acc >= e.threshold {
			delete(e.staleAcc, key)
			due = append(due, id)
		} else {
			e.staleAcc[key] = acc
			deferred++
			e.deferred.Inc()
		}
	}
	e.staleMu.Unlock()
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due, deferred
}

// conservative implements the 1996-style remedy: map each change to key
// prefixes and drop them all.
func (e *Engine) conservative(res Result, changed []odg.NodeID) Result {
	if e.mapper == nil {
		res.Errors = append(res.Errors, errors.New("core: conservative policy requires a mapper"))
		return res
	}
	prefixes := make(map[string]struct{})
	for _, id := range changed {
		for _, p := range e.mapper(id) {
			prefixes[p] = struct{}{}
		}
	}
	ordered := make([]string, 0, len(prefixes))
	for p := range prefixes {
		ordered = append(ordered, p)
	}
	sort.Strings(ordered)
	pushStart := time.Now()
	for _, p := range ordered {
		res.Invalidated += e.store.ApplyInvalidatePrefix(p)
	}
	res.PushDur = time.Since(pushStart)
	res.Affected = res.Invalidated
	e.invalidated.Add(int64(res.Invalidated))
	return res
}

// EngineStats is a snapshot of engine counters.
type EngineStats struct {
	Propagations int64
	Updated      int64
	Invalidated  int64
	Deferred     int64
	GenErrors    int64
	// FragmentRenders and FragmentReuses accumulate the assembler's
	// render-vs-reuse accounting across batches (zero when no assembler
	// is wired).
	FragmentRenders int64
	FragmentReuses  int64
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Propagations:    e.propagations.Value(),
		Updated:         e.updated.Value(),
		Invalidated:     e.invalidated.Value(),
		Deferred:        e.deferred.Value(),
		GenErrors:       e.genErrors.Value(),
		FragmentRenders: e.fragRenders.Value(),
		FragmentReuses:  e.fragReuses.Value(),
	}
}

// RegisterMetrics publishes the engine's counters into a registry — the
// thin adapter that supersedes polling EngineStats. labels (may be nil)
// are attached to every series, e.g. {"complex": "tokyo"}.
func (e *Engine) RegisterMetrics(reg *stats.Registry, labels stats.Labels) {
	reg.RegisterCounter("dup_propagations_total",
		"DUP propagation batches executed", labels, &e.propagations)
	reg.RegisterCounter("dup_objects_updated_total",
		"cached objects regenerated in place", labels, &e.updated)
	reg.RegisterCounter("dup_objects_invalidated_total",
		"cached objects (or entries) invalidated", labels, &e.invalidated)
	reg.RegisterCounter("dup_objects_deferred_total",
		"remedies deferred below the staleness threshold", labels, &e.deferred)
	reg.RegisterCounter("dup_generator_errors_total",
		"object regeneration failures", labels, &e.genErrors)
	reg.RegisterCounter("core_fragment_renders_total",
		"fragments rendered by incremental propagation batches", labels, &e.fragRenders)
	reg.RegisterCounter("core_fragment_reuses_total",
		"cached fragment byte-splices during page assembly", labels, &e.fragReuses)
}
