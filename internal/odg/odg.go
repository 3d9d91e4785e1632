// Package odg implements the object dependence graph (ODG) at the heart of
// Data Update Propagation (DUP), as described in section 2 of Challenger,
// Dantzig & Iyengar (SC '98) and the companion technical report (Iyengar &
// Challenger, RC 21093).
//
// An ODG is a directed graph whose vertices are either underlying data
// (database rows, result feeds), cacheable objects (pages, page fragments),
// or both. An edge v -> u means "a change to v also affects u". Edges may
// carry positive weights expressing the importance of the dependence; the
// weights let DUP quantify *how* obsolete an object has become rather than
// only whether it is obsolete.
//
// The paper singles out the common case of a "simple" ODG — underlying-data
// vertices have no incoming edges, object vertices have no outgoing edges,
// and no edge is weighted — for which propagation reduces to reading the
// direct successor list. Graph tracks simplicity incrementally and Affected
// takes that O(out-degree) fast path automatically.
//
// All methods are safe for concurrent use. Mutations (AddEdge, RemoveNode,
// ...) take the write lock, except a re-registration that would change
// nothing, which only reads; propagation queries take the read lock, so many
// trigger-monitor propagations may run concurrently with page serving.
package odg

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// NodeID identifies a vertex in the graph. IDs are opaque to the package;
// dupserve uses hierarchical names such as "db:results:row:1234" and
// "page:/sports/ski/event7".
type NodeID string

// Kind classifies a vertex per the paper's taxonomy.
type Kind uint8

const (
	// KindUnderlying marks underlying data: items that change and drive
	// propagation but are not themselves cached (e.g. database rows).
	KindUnderlying Kind = iota
	// KindObject marks cacheable objects (pages, fragments).
	KindObject
	// KindBoth marks items that are both cached and act as underlying data
	// for other objects (e.g. a cached page fragment embedded in pages).
	KindBoth
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindUnderlying:
		return "underlying"
	case KindObject:
		return "object"
	case KindBoth:
		return "both"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// DefaultWeight is the weight assigned to edges added without an explicit
// weight. A simple ODG contains only edges of this weight.
const DefaultWeight = 1.0

// ErrNodeNotFound is returned by operations that reference a vertex absent
// from the graph.
var ErrNodeNotFound = errors.New("odg: node not found")

// ErrBadWeight is returned when an edge weight is not strictly positive.
var ErrBadWeight = errors.New("odg: edge weight must be > 0")

type node struct {
	id   NodeID
	kind Kind
	out  map[NodeID]float64
	in   map[NodeID]float64
}

// Graph is a mutable, concurrency-safe object dependence graph.
//
// The zero value is not usable; call New.
type Graph struct {
	mu    sync.RWMutex
	nodes map[NodeID]*node
	edges int
	// weighted counts edges whose weight differs from DefaultWeight;
	// simplicity requires weighted == 0 plus the structural bipartite
	// property, tracked by violations.
	weighted int
	// violations counts vertices that break the simple-ODG structural
	// rules: an underlying-data vertex with incoming edges, or an object
	// vertex with outgoing edges.
	violations int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{nodes: make(map[NodeID]*node)}
}

// violationCount reports how many simple-ODG structural rules node n breaks.
func violationCount(n *node) int {
	v := 0
	if n.kind == KindUnderlying && len(n.in) > 0 {
		v++
	}
	if n.kind == KindObject && len(n.out) > 0 {
		v++
	}
	if n.kind == KindBoth && len(n.in) > 0 && len(n.out) > 0 {
		// A vertex that is simultaneously cached and feeding other objects
		// is outside the simple (bipartite) form.
		v++
	}
	return v
}

// mutateLocked runs fn while keeping the violations counter consistent for
// the given nodes: their contributions are subtracted before fn and added
// back afterwards for every node still present in the graph. All structural
// mutations funnel through this helper so the simplicity bookkeeping lives
// in exactly one place.
func (g *Graph) mutateLocked(touched map[NodeID]*node, fn func()) {
	for _, n := range touched {
		g.violations -= violationCount(n)
	}
	fn()
	for id, n := range touched {
		if g.nodes[id] == n {
			g.violations += violationCount(n)
		}
	}
}

func (g *Graph) getOrAddLocked(id NodeID, kind Kind) *node {
	n, ok := g.nodes[id]
	if !ok {
		n = &node{id: id, kind: kind, out: make(map[NodeID]float64), in: make(map[NodeID]float64)}
		g.nodes[id] = n
		g.violations += violationCount(n)
	}
	return n
}

// AddNode inserts a vertex with the given kind. Adding an existing vertex
// updates its kind (re-evaluating simplicity) and is not an error: DUP
// applications routinely re-register dependencies as pages are re-rendered.
// Re-adding a vertex with the kind it already has is a read-locked no-op.
func (g *Graph) AddNode(id NodeID, kind Kind) {
	g.mu.RLock()
	old, ok := g.nodes[id]
	unchanged := ok && old.kind == kind
	g.mu.RUnlock()
	if unchanged {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.getOrAddLocked(id, kind)
	g.mutateLocked(map[NodeID]*node{id: n}, func() {
		n.kind = kind
	})
}

// Contains reports whether id is a vertex of the graph.
func (g *Graph) Contains(id NodeID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.nodes[id]
	return ok
}

// NodeKind returns the kind of vertex id.
func (g *Graph) NodeKind(id NodeID) (Kind, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNodeNotFound, id)
	}
	return n.kind, nil
}

// AddEdge records the dependence from -> to with DefaultWeight, creating
// missing vertices (from as underlying data, to as object — the common
// registration pattern for server programs declaring "this page depends on
// that row"). Re-adding an edge overwrites its weight.
func (g *Graph) AddEdge(from, to NodeID) error {
	return g.AddWeightedEdge(from, to, DefaultWeight)
}

// AddWeightedEdge records the dependence from -> to with the given positive
// weight, creating missing vertices as AddEdge does.
func (g *Graph) AddWeightedEdge(from, to NodeID, weight float64) error {
	if weight <= 0 {
		return fmt.Errorf("%w: %v -> %v weight %v", ErrBadWeight, from, to, weight)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	nf := g.getOrAddLocked(from, KindUnderlying)
	nt := g.getOrAddLocked(to, KindObject)
	g.mutateLocked(map[NodeID]*node{from: nf, to: nt}, func() {
		if old, existed := nf.out[to]; existed {
			if old != DefaultWeight {
				g.weighted--
			}
		} else {
			g.edges++
		}
		nf.out[to] = weight
		nt.in[from] = weight
		if weight != DefaultWeight {
			g.weighted++
		}
	})
	return nil
}

// RemoveEdge deletes the dependence from -> to. Removing a non-existent
// edge is a no-op, mirroring delete on maps.
func (g *Graph) RemoveEdge(from, to NodeID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	nf, ok := g.nodes[from]
	if !ok {
		return
	}
	w, ok := nf.out[to]
	if !ok {
		return
	}
	nt := g.nodes[to]
	g.mutateLocked(map[NodeID]*node{from: nf, to: nt}, func() {
		delete(nf.out, to)
		delete(nt.in, from)
		g.edges--
		if w != DefaultWeight {
			g.weighted--
		}
	})
}

// RemoveNode deletes a vertex and all edges incident on it. Removing a
// non-existent vertex is a no-op.
func (g *Graph) RemoveNode(id NodeID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes[id]
	if !ok {
		return
	}
	touched := map[NodeID]*node{id: n}
	for succ := range n.out {
		touched[succ] = g.nodes[succ]
	}
	for pred := range n.in {
		touched[pred] = g.nodes[pred]
	}
	g.mutateLocked(touched, func() {
		for succ, w := range n.out {
			delete(g.nodes[succ].in, id)
			g.edges--
			if w != DefaultWeight {
				g.weighted--
			}
		}
		for pred, w := range n.in {
			if pred == id {
				continue // self-loop already counted via out
			}
			delete(g.nodes[pred].out, id)
			g.edges--
			if w != DefaultWeight {
				g.weighted--
			}
		}
		delete(g.nodes, id)
	})
}

// ReplaceDependencies atomically replaces the full set of incoming edges of
// object id with the given predecessor set at DefaultWeight. This is the
// operation a page renderer performs after regenerating a page: the page's
// dependencies are exactly the data it read this time. Missing vertices are
// created (id as object, predecessors as underlying data).
//
// A page usually reads the same rows on every re-render, so a call that
// would leave the graph as it is — id exists, preds is sorted without
// repeats, and it names exactly id's in-edges, each at DefaultWeight — is a
// read-locked no-op: it takes no write lock and allocates nothing. Any other
// call, including one that would reset a weighted in-edge to DefaultWeight,
// replaces the edges in full.
func (g *Graph) ReplaceDependencies(id NodeID, preds []NodeID) {
	g.mu.RLock()
	unchanged := g.hasExactDependenciesLocked(id, preds)
	g.mu.RUnlock()
	if unchanged {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.getOrAddLocked(id, KindObject)
	touched := map[NodeID]*node{id: n}
	for pred := range n.in {
		touched[pred] = g.nodes[pred]
	}
	for _, pred := range preds {
		touched[pred] = g.getOrAddLocked(pred, KindUnderlying)
	}
	g.mutateLocked(touched, func() {
		for pred, w := range n.in {
			delete(g.nodes[pred].out, id)
			g.edges--
			if w != DefaultWeight {
				g.weighted--
			}
		}
		n.in = make(map[NodeID]float64, len(preds))
		for _, pred := range preds {
			np := g.nodes[pred]
			if _, existed := np.out[id]; !existed {
				g.edges++
			}
			np.out[id] = DefaultWeight
			n.in[pred] = DefaultWeight
		}
	})
}

// hasExactDependenciesLocked reports whether id exists and its in-edges are
// exactly preds, each at DefaultWeight — the case in which ReplaceDependencies
// would leave the graph as it is. Every pred is an in-edge and there are as
// many preds as in-edges, so the sets are equal when preds holds no repeat,
// which a strictly ascending list proves in one pass. Renderers pass sorted,
// deduplicated lists; any other list takes the full replace.
func (g *Graph) hasExactDependenciesLocked(id NodeID, preds []NodeID) bool {
	n, ok := g.nodes[id]
	if !ok || len(n.in) != len(preds) {
		return false
	}
	for i, pred := range preds {
		if i > 0 && preds[i-1] >= pred {
			return false
		}
		if w, ok := n.in[pred]; !ok || w != DefaultWeight {
			return false
		}
	}
	return true
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.edges
}

// IsSimple reports whether the graph currently satisfies the paper's three
// simple-ODG conditions: underlying-data vertices have no incoming edges,
// object vertices have no outgoing edges, and all edges are unweighted
// (weight == DefaultWeight).
func (g *Graph) IsSimple() bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.weighted == 0 && g.violations == 0
}

// Successors returns the direct successors of id in unspecified order, or
// nil if id is absent.
func (g *Graph) Successors(id NodeID) []NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	if !ok {
		return nil
	}
	out := make([]NodeID, 0, len(n.out))
	for s := range n.out {
		out = append(out, s)
	}
	return out
}

// Predecessors returns the direct predecessors of id in unspecified order,
// or nil if id is absent.
func (g *Graph) Predecessors(id NodeID) []NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	if !ok {
		return nil
	}
	out := make([]NodeID, 0, len(n.in))
	for p := range n.in {
		out = append(out, p)
	}
	return out
}

// EdgeWeight returns the weight of edge from -> to, with ok reporting
// whether the edge exists.
func (g *Graph) EdgeWeight(from, to NodeID) (weight float64, ok bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, found := g.nodes[from]
	if !found {
		return 0, false
	}
	weight, ok = n.out[to]
	return weight, ok
}

// Affected returns every object vertex transitively reachable from the
// changed vertices — the set DUP must invalidate or update. The changed
// vertices themselves are included only if they are objects (KindObject or
// KindBoth), because a cached item that is also underlying data must itself
// be refreshed.
//
// For simple ODGs this is a union of successor lists with no traversal; for
// general graphs it is a BFS over the reachable subgraph. The result is
// sorted so propagation order (and tests) are deterministic.
func (g *Graph) Affected(changed ...NodeID) []NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()

	set := make(map[NodeID]struct{})
	if g.weighted == 0 && g.violations == 0 {
		// Simple fast path: affected objects are exactly the direct
		// successors (objects have no outgoing edges, so reachability
		// terminates after one hop).
		for _, c := range changed {
			n, ok := g.nodes[c]
			if !ok {
				continue
			}
			if n.kind != KindUnderlying {
				set[c] = struct{}{}
			}
			for s := range n.out {
				set[s] = struct{}{}
			}
		}
	} else {
		// General case: BFS over the reachable subgraph.
		visited := make(map[NodeID]struct{}, len(changed))
		queue := make([]NodeID, 0, len(changed))
		for _, c := range changed {
			if _, ok := g.nodes[c]; !ok {
				continue
			}
			if _, seen := visited[c]; seen {
				continue
			}
			visited[c] = struct{}{}
			queue = append(queue, c)
		}
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			n := g.nodes[id]
			if n.kind != KindUnderlying {
				set[id] = struct{}{}
			}
			for s := range n.out {
				if _, seen := visited[s]; !seen {
					visited[s] = struct{}{}
					queue = append(queue, s)
				}
			}
		}
	}
	out := make([]NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Partition splits a set of object vertices into *fragments* — vertices
// other cached objects depend on (KindBoth, or any vertex with outgoing
// edges) — and leaf *pages*. DUP's incremental planner renders the fragment
// half of an affected set first, exactly once per batch, then rebuilds the
// page half by assembly, splicing the fresh fragment bytes instead of
// re-rendering them under every containing page. Unknown vertices are
// dropped; both halves preserve the input's relative order, so feeding
// Affected's sorted output keeps the partition deterministic.
func (g *Graph) Partition(ids []NodeID) (fragments, pages []NodeID) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, id := range ids {
		n, ok := g.nodes[id]
		if !ok {
			continue
		}
		if n.kind == KindBoth || len(n.out) > 0 {
			fragments = append(fragments, id)
		} else {
			pages = append(pages, id)
		}
	}
	return fragments, pages
}

// Staleness quantifies how obsolete each affected object becomes when the
// given underlying vertices change with the given magnitudes. It implements
// the weighted-propagation scheme of the DUP technical report: the graph is
// condensed into strongly connected components, and staleness flows through
// the condensation in topological order, with each edge contributing
// (source staleness) x (edge weight) to its target. Vertices in a cycle
// share the combined staleness that enters the cycle.
//
// Only vertices of kind object/both appear in the result. A caller then
// compares staleness against a threshold to decide whether a slightly
// obsolete page may stay in the cache (section 2 of the paper).
func (g *Graph) Staleness(changes map[NodeID]float64) map[NodeID]float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()

	// Restrict work to the subgraph reachable from the changed set.
	reach := make(map[NodeID]struct{})
	var stack []NodeID
	for id, mag := range changes {
		if mag <= 0 {
			continue
		}
		if _, ok := g.nodes[id]; !ok {
			continue
		}
		if _, seen := reach[id]; !seen {
			reach[id] = struct{}{}
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for s := range g.nodes[id].out {
			if _, seen := reach[s]; !seen {
				reach[s] = struct{}{}
				stack = append(stack, s)
			}
		}
	}
	if len(reach) == 0 {
		return map[NodeID]float64{}
	}

	comps := g.sccLocked(reach)
	compOf := make(map[NodeID]int, len(reach))
	for ci, members := range comps {
		for _, m := range members {
			compOf[m] = ci
		}
	}

	// Build the condensation with accumulated edge weights, and seed
	// component staleness with the external change magnitudes.
	type cedge struct {
		to int
		w  float64
	}
	cout := make([][]cedge, len(comps))
	indeg := make([]int, len(comps))
	seen := make([]map[int]int, len(comps)) // target comp -> index in cout[ci]
	stale := make([]float64, len(comps))
	for ci := range comps {
		seen[ci] = make(map[int]int)
	}
	for id := range reach {
		ci := compOf[id]
		if mag, ok := changes[id]; ok && mag > 0 {
			stale[ci] += mag
		}
		for s, w := range g.nodes[id].out {
			cj, inReach := compOf[s]
			if !inReach || cj == ci {
				continue
			}
			if k, ok := seen[ci][cj]; ok {
				cout[ci][k].w += w
			} else {
				seen[ci][cj] = len(cout[ci])
				cout[ci] = append(cout[ci], cedge{to: cj, w: w})
				indeg[cj]++
			}
		}
	}

	// Kahn's algorithm over the condensation (a DAG by construction).
	queue := make([]int, 0, len(comps))
	for ci := range comps {
		if indeg[ci] == 0 {
			queue = append(queue, ci)
		}
	}
	for len(queue) > 0 {
		ci := queue[0]
		queue = queue[1:]
		for _, e := range cout[ci] {
			stale[e.to] += stale[ci] * e.w
			indeg[e.to]--
			if indeg[e.to] == 0 {
				queue = append(queue, e.to)
			}
		}
	}

	out := make(map[NodeID]float64)
	for ci, members := range comps {
		if stale[ci] <= 0 {
			continue
		}
		for _, m := range members {
			if g.nodes[m].kind != KindUnderlying {
				out[m] = stale[ci]
			}
		}
	}
	return out
}

// sccLocked computes strongly connected components of the induced subgraph
// over the given vertex set using an iterative Tarjan's algorithm (the page
// universe is large enough that recursion depth would be a hazard).
func (g *Graph) sccLocked(sub map[NodeID]struct{}) [][]NodeID {
	index := make(map[NodeID]int, len(sub))
	low := make(map[NodeID]int, len(sub))
	onStack := make(map[NodeID]bool, len(sub))
	var sccStack []NodeID
	var comps [][]NodeID
	next := 0

	type frame struct {
		id    NodeID
		succs []NodeID
		i     int
	}
	for start := range sub {
		if _, done := index[start]; done {
			continue
		}
		var callStack []frame
		push := func(id NodeID) {
			index[id] = next
			low[id] = next
			next++
			sccStack = append(sccStack, id)
			onStack[id] = true
			n := g.nodes[id]
			succs := make([]NodeID, 0, len(n.out))
			for s := range n.out {
				if _, ok := sub[s]; ok {
					succs = append(succs, s)
				}
			}
			callStack = append(callStack, frame{id: id, succs: succs})
		}
		push(start)
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			if f.i < len(f.succs) {
				s := f.succs[f.i]
				f.i++
				if _, visited := index[s]; !visited {
					push(s)
				} else if onStack[s] && index[s] < low[f.id] {
					low[f.id] = index[s]
				}
				continue
			}
			// Post-order: pop frame, possibly emit an SCC.
			if low[f.id] == index[f.id] {
				var comp []NodeID
				for {
					top := sccStack[len(sccStack)-1]
					sccStack = sccStack[:len(sccStack)-1]
					onStack[top] = false
					comp = append(comp, top)
					if top == f.id {
						break
					}
				}
				comps = append(comps, comp)
			}
			id := f.id
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := &callStack[len(callStack)-1]
				if low[id] < low[parent.id] {
					low[parent.id] = low[id]
				}
			}
		}
	}
	return comps
}

// HasCycle reports whether the graph contains a directed cycle. Simple ODGs
// are acyclic by construction; general ODGs may not be, and DUP must remain
// correct on them (Staleness handles cycles via SCC condensation).
func (g *Graph) HasCycle() bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	all := make(map[NodeID]struct{}, len(g.nodes))
	for id, n := range g.nodes {
		all[id] = struct{}{}
		if _, self := n.out[id]; self {
			return true
		}
	}
	for _, comp := range g.sccLocked(all) {
		if len(comp) > 1 {
			return true
		}
	}
	return false
}

// TopoOrder returns the vertices in a topological order, or an error if the
// graph has a cycle. Useful for regenerating objects bottom-up (fragments
// before the pages embedding them).
func (g *Graph) TopoOrder() ([]NodeID, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	indeg := make(map[NodeID]int, len(g.nodes))
	for id := range g.nodes {
		indeg[id] = 0
	}
	for _, n := range g.nodes {
		for s := range n.out {
			indeg[s]++
		}
	}
	queue := make([]NodeID, 0, len(g.nodes))
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	order := make([]NodeID, 0, len(g.nodes))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		succs := make([]NodeID, 0, len(g.nodes[id].out))
		for s := range g.nodes[id].out {
			succs = append(succs, s)
		}
		sort.Slice(succs, func(i, j int) bool { return succs[i] < succs[j] })
		for _, s := range succs {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(g.nodes) {
		return nil, errors.New("odg: graph has a cycle")
	}
	return order, nil
}

// SubgraphTopoOrder orders the given vertices so that, within the set,
// predecessors come before successors — the order DUP regenerates affected
// objects in (fragments before the pages embedding them). Unknown vertices
// are dropped. Vertices on cycles (which have no valid order) are appended
// at the end in sorted order. Cost is proportional to the subset and its
// internal edges, not the whole graph, which matters because propagation
// runs on every database update.
func (g *Graph) SubgraphTopoOrder(ids []NodeID) []NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	in := make(map[NodeID]int, len(ids))
	for _, id := range ids {
		if _, ok := g.nodes[id]; ok {
			in[id] = 0
		}
	}
	for id := range in {
		for s := range g.nodes[id].out {
			if _, ok := in[s]; ok && s != id {
				in[s]++
			}
		}
	}
	queue := make([]NodeID, 0, len(in))
	for id, d := range in {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	order := make([]NodeID, 0, len(in))
	emitted := make(map[NodeID]struct{}, len(in))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		emitted[id] = struct{}{}
		var ready []NodeID
		for s := range g.nodes[id].out {
			if _, ok := in[s]; !ok || s == id {
				continue
			}
			in[s]--
			if in[s] == 0 {
				ready = append(ready, s)
			}
		}
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
		queue = append(queue, ready...)
	}
	if len(order) < len(in) {
		var rest []NodeID
		for id := range in {
			if _, ok := emitted[id]; !ok {
				rest = append(rest, id)
			}
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
		order = append(order, rest...)
	}
	return order
}

// Objects returns all vertices of kind object or both, sorted.
func (g *Graph) Objects() []NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]NodeID, 0, len(g.nodes))
	for id, n := range g.nodes {
		if n.kind != KindUnderlying {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Underlying returns all vertices of kind underlying or both, sorted.
func (g *Graph) Underlying() []NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]NodeID, 0, len(g.nodes))
	for id, n := range g.nodes {
		if n.kind != KindObject {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats summarizes the graph for diagnostics.
type Stats struct {
	Nodes      int
	Edges      int
	Objects    int
	Underlying int
	Both       int
	Simple     bool
	MaxOutDeg  int
	MaxInDeg   int
}

// Snapshot returns current graph statistics.
func (g *Graph) Snapshot() Stats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	st := Stats{Nodes: len(g.nodes), Edges: g.edges, Simple: g.weighted == 0 && g.violations == 0}
	for _, n := range g.nodes {
		switch n.kind {
		case KindObject:
			st.Objects++
		case KindUnderlying:
			st.Underlying++
		case KindBoth:
			st.Both++
		}
		if len(n.out) > st.MaxOutDeg {
			st.MaxOutDeg = len(n.out)
		}
		if len(n.in) > st.MaxInDeg {
			st.MaxInDeg = len(n.in)
		}
	}
	return st
}

// checkInvariants verifies internal consistency (edge symmetry, counter
// accuracy). It exists for tests; it is unexported but reachable via the
// package's test files.
func (g *Graph) checkInvariants() error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	edges, weighted, violations := 0, 0, 0
	for id, n := range g.nodes {
		violations += violationCount(n)
		for s, w := range n.out {
			edges++
			if w != DefaultWeight {
				weighted++
			}
			ns, ok := g.nodes[s]
			if !ok {
				return fmt.Errorf("edge %v->%v points to missing node", id, s)
			}
			if win, ok := ns.in[id]; !ok || win != w {
				return fmt.Errorf("edge %v->%v asymmetric (out %v, in %v ok=%v)", id, s, w, win, ok)
			}
		}
		for p, w := range n.in {
			np, ok := g.nodes[p]
			if !ok {
				return fmt.Errorf("in-edge %v<-%v from missing node", id, p)
			}
			if wout, ok := np.out[id]; !ok || wout != w {
				return fmt.Errorf("in-edge %v<-%v asymmetric", id, p)
			}
		}
	}
	if edges != g.edges {
		return fmt.Errorf("edge count drift: counted %d, stored %d", edges, g.edges)
	}
	if weighted != g.weighted {
		return fmt.Errorf("weighted count drift: counted %d, stored %d", weighted, g.weighted)
	}
	if violations != g.violations {
		return fmt.Errorf("violation count drift: counted %d, stored %d", violations, g.violations)
	}
	return nil
}
