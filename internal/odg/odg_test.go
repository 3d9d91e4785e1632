package odg

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// paperFig1 builds the weighted ODG from Figure 1 of the paper:
//
//	go1 --5--> go5
//	go2 --1--> go5, go2 --1--> go6
//	go5 --1--> go7
//	go6 --1--> go7   (go5, go6 feed go7 transitively)
func paperFig1(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.AddNode("go1", KindUnderlying)
	g.AddNode("go2", KindUnderlying)
	g.AddNode("go5", KindBoth)
	g.AddNode("go6", KindBoth)
	g.AddNode("go7", KindObject)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddWeightedEdge("go1", "go5", 5))
	must(g.AddWeightedEdge("go2", "go5", 1))
	must(g.AddWeightedEdge("go2", "go6", 1))
	must(g.AddWeightedEdge("go5", "go7", 1))
	must(g.AddWeightedEdge("go6", "go7", 1))
	return g
}

func TestPaperFigure1Propagation(t *testing.T) {
	g := paperFig1(t)
	// "If node go2 changes ... DUP determines that nodes go5 and go6 also
	// change. By transitivity, go7 also changes."
	got := g.Affected("go2")
	want := []NodeID{"go5", "go6", "go7"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Affected(go2) = %v, want %v", got, want)
	}
	if g.IsSimple() {
		t.Fatal("figure 1 graph must not be simple (weighted edges, both-kind nodes)")
	}
}

func TestPaperFigure1Weights(t *testing.T) {
	g := paperFig1(t)
	// The go1->go5 dependence is 5x as important as go2->go5.
	st := g.Staleness(map[NodeID]float64{"go1": 1})
	if st["go5"] != 5 {
		t.Fatalf("staleness(go5 | go1 changed) = %v, want 5", st["go5"])
	}
	st2 := g.Staleness(map[NodeID]float64{"go2": 1})
	if st2["go5"] != 1 {
		t.Fatalf("staleness(go5 | go2 changed) = %v, want 1", st2["go5"])
	}
	// go7 accumulates from both go5 and go6 when go2 changes: 1*1 + 1*1.
	if st2["go7"] != 2 {
		t.Fatalf("staleness(go7 | go2 changed) = %v, want 2", st2["go7"])
	}
}

func TestSimpleODGFastPath(t *testing.T) {
	g := New()
	// Figure 2: bipartite, unweighted.
	for i := 0; i < 3; i++ {
		u := NodeID(fmt.Sprintf("u%d", i))
		for j := 0; j < 4; j++ {
			o := NodeID(fmt.Sprintf("o%d", j))
			if (i+j)%2 == 0 {
				if err := g.AddEdge(u, o); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if !g.IsSimple() {
		t.Fatal("bipartite unweighted graph should be simple")
	}
	got := g.Affected("u0")
	want := []NodeID{"o0", "o2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Affected(u0) = %v, want %v", got, want)
	}
}

func TestSimplicityTransitions(t *testing.T) {
	g := New()
	if err := g.AddEdge("a", "b"); err != nil {
		t.Fatal(err)
	}
	if !g.IsSimple() {
		t.Fatal("single unweighted edge should be simple")
	}
	// Weighted edge breaks simplicity.
	if err := g.AddWeightedEdge("a", "c", 3); err != nil {
		t.Fatal(err)
	}
	if g.IsSimple() {
		t.Fatal("weighted edge should break simplicity")
	}
	g.ReplaceDependencies("c", []NodeID{"a"})
	if !g.IsSimple() {
		t.Fatal("re-registering c at the default weight should restore simplicity")
	}
	// Chain through an object breaks simplicity (b gains an out-edge).
	if err := g.AddEdge("b", "d"); err != nil {
		t.Fatal(err)
	}
	if g.IsSimple() {
		t.Fatal("object with out-edge should break simplicity")
	}
	g.ReplaceDependencies("d", nil)
	if !g.IsSimple() {
		t.Fatal("dropping d's dependencies should restore simplicity")
	}
	if err := g.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddNodeUpdatesKind(t *testing.T) {
	g := New()
	g.AddNode("x", KindObject)
	if k, _ := kindOf(g, "x"); k != KindObject {
		t.Fatalf("kind = %v, want object", k)
	}
	g.AddNode("x", KindBoth)
	if k, _ := kindOf(g, "x"); k != KindBoth {
		t.Fatalf("kind = %v, want both", k)
	}
	if len(g.nodes) != 1 {
		t.Fatalf("%d vertices, want 1", len(g.nodes))
	}
}

func TestBadWeightRejected(t *testing.T) {
	g := New()
	for _, w := range []float64{0, -1} {
		if err := g.AddWeightedEdge("a", "b", w); err == nil {
			t.Fatalf("weight %v accepted", w)
		}
	}
	if len(g.nodes) != 0 {
		t.Fatal("failed AddWeightedEdge must not create nodes")
	}
}

func TestReplaceDependencies(t *testing.T) {
	g := New()
	g.ReplaceDependencies("page", []NodeID{"r1", "r2"})
	got := g.Affected("r1")
	if !reflect.DeepEqual(got, []NodeID{"page"}) {
		t.Fatalf("Affected(r1) = %v", got)
	}
	// Re-render: page now depends on r2, r3 only.
	g.ReplaceDependencies("page", []NodeID{"r2", "r3"})
	if got := g.Affected("r1"); len(got) != 0 {
		t.Fatalf("Affected(r1) after replace = %v, want empty", got)
	}
	if got := g.Affected("r3"); !reflect.DeepEqual(got, []NodeID{"page"}) {
		t.Fatalf("Affected(r3) = %v", got)
	}
	if n := numEdges(g); n != 2 {
		t.Fatalf("%d edges, want 2", n)
	}
	if !g.IsSimple() {
		t.Fatal("replace-deps graph should be simple")
	}
	if err := g.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceDependenciesDuplicatePreds(t *testing.T) {
	g := New()
	g.ReplaceDependencies("page", []NodeID{"r1", "r1", "r1"})
	if n := numEdges(g); n != 1 {
		t.Fatalf("%d edges, want 1 (deduped)", n)
	}
	if err := g.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAffectedUnknownNode(t *testing.T) {
	g := paperFig1(t)
	if got := g.Affected("nope"); len(got) != 0 {
		t.Fatalf("Affected(unknown) = %v, want empty", got)
	}
}

func TestAffectedIncludesChangedObject(t *testing.T) {
	g := paperFig1(t)
	// go5 is KindBoth: when it changes directly it must itself be refreshed.
	got := g.Affected("go5")
	want := []NodeID{"go5", "go7"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Affected(go5) = %v, want %v", got, want)
	}
}

func TestAffectedMultipleRoots(t *testing.T) {
	g := paperFig1(t)
	got := g.Affected("go1", "go2")
	want := []NodeID{"go5", "go6", "go7"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Affected(go1,go2) = %v, want %v", got, want)
	}
}

func TestStalenessCycle(t *testing.T) {
	g := New()
	g.AddNode("a", KindUnderlying)
	g.AddNode("x", KindBoth)
	g.AddNode("y", KindBoth)
	for _, e := range [][2]NodeID{{"a", "x"}, {"x", "y"}, {"y", "x"}} {
		if err := g.AddWeightedEdge(e[0], e[1], 2); err != nil {
			t.Fatal(err)
		}
	}
	st := g.Staleness(map[NodeID]float64{"a": 1})
	// a contributes 2 into the {x,y} SCC; both members share it.
	if st["x"] != 2 || st["y"] != 2 {
		t.Fatalf("staleness = %v, want x=y=2", st)
	}
}

func TestStalenessIgnoresNonPositiveAndUnknown(t *testing.T) {
	g := paperFig1(t)
	st := g.Staleness(map[NodeID]float64{"go1": 0, "ghost": 5, "go2": -1})
	if len(st) != 0 {
		t.Fatalf("staleness = %v, want empty", st)
	}
}

func TestStalenessDiamond(t *testing.T) {
	// u -> a (w2), u -> b (w3), a -> o (w1), b -> o (w1): o gets 2+3=5.
	g := New()
	g.AddNode("a", KindBoth)
	g.AddNode("b", KindBoth)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddWeightedEdge("u", "a", 2))
	must(g.AddWeightedEdge("u", "b", 3))
	must(g.AddWeightedEdge("a", "o", 1))
	must(g.AddWeightedEdge("b", "o", 1))
	st := g.Staleness(map[NodeID]float64{"u": 1})
	if st["o"] != 5 {
		t.Fatalf("staleness(o) = %v, want 5", st["o"])
	}
}

// TestEdgeWeight: an edge's weight scales the staleness it carries, and
// re-adding an edge overwrites its weight rather than adding a second one.
func TestEdgeWeight(t *testing.T) {
	g := paperFig1(t)
	if st := g.Staleness(map[NodeID]float64{"go1": 1}); st["go5"] != 5 {
		t.Fatalf("staleness(go5 | go1 changed) = %v, want the edge weight 5", st["go5"])
	}
	if err := g.AddWeightedEdge("go1", "go5", 2); err != nil {
		t.Fatal(err)
	}
	if st := g.Staleness(map[NodeID]float64{"go1": 1}); st["go5"] != 2 {
		t.Fatalf("staleness(go5 | go1 changed) = %v after re-adding at weight 2, want 2", st["go5"])
	}
	if n := numEdges(g); n != 5 {
		t.Fatalf("%d edges after re-adding one, want 5", n)
	}
	if err := g.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// predecessors returns the direct predecessors of id in unspecified order,
// or nil if id is absent: the in-edges Successors mirrors.
func predecessors(g *Graph, id NodeID) []NodeID {
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

func TestSuccessorsPredecessors(t *testing.T) {
	g := paperFig1(t)
	succs := g.Successors("go2")
	if len(succs) != 2 {
		t.Fatalf("Successors(go2) = %v", succs)
	}
	preds := predecessors(g, "go7")
	if len(preds) != 2 {
		t.Fatalf("Predecessors(go7) = %v", preds)
	}
	if g.Successors("ghost") != nil || predecessors(g, "ghost") != nil {
		t.Fatal("missing node should return nil adjacency")
	}
}

func TestConcurrentMutationAndQuery(t *testing.T) {
	g := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				u := NodeID(fmt.Sprintf("u%d", (w*7+i)%50))
				o := NodeID(fmt.Sprintf("o%d", i%80))
				switch i % 4 {
				case 0:
					_ = g.AddEdge(u, o)
				case 1:
					g.Affected(u)
				case 2:
					g.ReplaceDependencies(o, nil)
				case 3:
					g.Staleness(map[NodeID]float64{u: 1})
				}
			}
		}(w)
	}
	wg.Wait()
	if err := g.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// buildRandom constructs a random graph from an operation script; used by
// the property tests below.
func buildRandom(rng *rand.Rand, nOps int) *Graph {
	g := New()
	id := func(n int) NodeID { return NodeID(fmt.Sprintf("n%d", n)) }
	for i := 0; i < nOps; i++ {
		a, b := id(rng.Intn(30)), id(rng.Intn(30))
		switch rng.Intn(6) {
		case 0, 1, 2:
			_ = g.AddEdge(a, b)
		case 3:
			_ = g.AddWeightedEdge(a, b, float64(1+rng.Intn(5)))
		case 4:
			g.ReplaceDependencies(b, nil)
		case 5:
			g.ReplaceDependencies(b, []NodeID{a})
		}
	}
	return g
}

// Property: internal counters (weighted, violations) never drift from
// a full recount, for any mutation sequence.
func TestInvariantsUnderRandomMutation(t *testing.T) {
	f := func(seed int64) bool {
		g := buildRandom(rand.New(rand.NewSource(seed)), 300)
		return g.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Affected via the simple fast path equals Affected computed by
// BFS. We verify by comparing against an independent reachability check.
func TestAffectedMatchesReachability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := buildRandom(rng, 200)
		roots := []NodeID{NodeID(fmt.Sprintf("n%d", rng.Intn(30)))}
		got := g.Affected(roots...)
		// Independent reachability: repeated Successors expansion.
		seen := map[NodeID]struct{}{}
		var frontier []NodeID
		for _, r := range roots {
			if _, ok := kindOf(g, r); ok {
				seen[r] = struct{}{}
				frontier = append(frontier, r)
			}
		}
		for len(frontier) > 0 {
			next := frontier[:0:0]
			for _, id := range frontier {
				for _, s := range g.Successors(id) {
					if _, ok := seen[s]; !ok {
						seen[s] = struct{}{}
						next = append(next, s)
					}
				}
			}
			frontier = next
		}
		want := map[NodeID]struct{}{}
		for id := range seen {
			if k, ok := kindOf(g, id); ok && k != KindUnderlying {
				want[id] = struct{}{}
			}
		}
		if len(got) != len(want) {
			return false
		}
		for _, id := range got {
			if _, ok := want[id]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: staleness is monotone in change magnitude — doubling every
// change magnitude doubles every staleness value.
func TestStalenessLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := buildRandom(rng, 150)
		changes := map[NodeID]float64{}
		for i := 0; i < 5; i++ {
			changes[NodeID(fmt.Sprintf("n%d", rng.Intn(30)))] = float64(1 + rng.Intn(3))
		}
		st1 := g.Staleness(changes)
		doubled := map[NodeID]float64{}
		for k, v := range changes {
			doubled[k] = 2 * v
		}
		st2 := g.Staleness(doubled)
		if len(st1) != len(st2) {
			return false
		}
		for k, v := range st1 {
			w, ok := st2[k]
			if !ok {
				return false
			}
			if diff := w - 2*v; diff > 1e-6 || diff < -1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every object reported by Staleness is also reported by Affected
// (weighted propagation never invents reachability).
func TestStalenessSubsetOfAffected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := buildRandom(rng, 150)
		var roots []NodeID
		changes := map[NodeID]float64{}
		for i := 0; i < 4; i++ {
			id := NodeID(fmt.Sprintf("n%d", rng.Intn(30)))
			roots = append(roots, id)
			changes[id] = 1
		}
		affected := map[NodeID]struct{}{}
		for _, id := range g.Affected(roots...) {
			affected[id] = struct{}{}
		}
		for id := range g.Staleness(changes) {
			if _, ok := affected[id]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAffectedSimple(b *testing.B) {
	g := New()
	for i := 0; i < 1000; i++ {
		u := NodeID(fmt.Sprintf("u%d", i))
		for j := 0; j < 8; j++ {
			_ = g.AddEdge(u, NodeID(fmt.Sprintf("o%d", (i*3+j)%4000)))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Affected(NodeID(fmt.Sprintf("u%d", i%1000)))
	}
}

func BenchmarkAffectedGeneral(b *testing.B) {
	g := New()
	// Layered DAG with weighted edges to force the general path.
	for l := 0; l < 4; l++ {
		for i := 0; i < 250; i++ {
			from := NodeID(fmt.Sprintf("l%d_%d", l, i))
			for j := 0; j < 4; j++ {
				to := NodeID(fmt.Sprintf("l%d_%d", l+1, (i+j*17)%250))
				_ = g.AddWeightedEdge(from, to, 2)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Affected(NodeID(fmt.Sprintf("l0_%d", i%250)))
	}
}

func BenchmarkStaleness(b *testing.B) {
	g := New()
	for l := 0; l < 4; l++ {
		for i := 0; i < 250; i++ {
			from := NodeID(fmt.Sprintf("l%d_%d", l, i))
			for j := 0; j < 4; j++ {
				to := NodeID(fmt.Sprintf("l%d_%d", l+1, (i+j*17)%250))
				_ = g.AddWeightedEdge(from, to, 2)
			}
		}
	}
	changes := map[NodeID]float64{"l0_0": 1, "l0_1": 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Staleness(changes)
	}
}

func TestSubgraphTopoOrderRespectsEdges(t *testing.T) {
	g := paperFig1(t)
	order := g.SubgraphTopoOrder([]NodeID{"go7", "go5", "go6"})
	pos := map[NodeID]int{}
	for i, id := range order {
		pos[id] = i
	}
	if pos["go5"] > pos["go7"] || pos["go6"] > pos["go7"] {
		t.Fatalf("order = %v, want go5/go6 before go7", order)
	}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestSubgraphTopoOrderIgnoresOutsideEdges(t *testing.T) {
	g := paperFig1(t)
	// go5 and go6 have no edges between each other; order is just sorted.
	order := g.SubgraphTopoOrder([]NodeID{"go6", "go5"})
	if !reflect.DeepEqual(order, []NodeID{"go5", "go6"}) {
		t.Fatalf("order = %v", order)
	}
}

func TestSubgraphTopoOrderDropsUnknown(t *testing.T) {
	g := paperFig1(t)
	order := g.SubgraphTopoOrder([]NodeID{"ghost", "go7"})
	if !reflect.DeepEqual(order, []NodeID{"go7"}) {
		t.Fatalf("order = %v", order)
	}
}

func TestSubgraphTopoOrderCycleFallback(t *testing.T) {
	g := New()
	g.AddNode("x", KindBoth)
	g.AddNode("y", KindBoth)
	if err := g.AddEdge("x", "y"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("y", "x"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("y", "z"); err != nil {
		t.Fatal(err)
	}
	order := g.SubgraphTopoOrder([]NodeID{"x", "y", "z"})
	if len(order) != 3 {
		t.Fatalf("order = %v, want all three", order)
	}
	// z depends on the cycle; it should still be emitted, and the cycle
	// members appended deterministically.
	seen := map[NodeID]bool{}
	for _, id := range order {
		seen[id] = true
	}
	if !seen["x"] || !seen["y"] || !seen["z"] {
		t.Fatalf("order = %v", order)
	}
}

// Property: SubgraphTopoOrder is a permutation of the known subset, and for
// acyclic subsets every internal edge goes forward.
func TestSubgraphTopoOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := buildRandom(rng, 150)
		var subset []NodeID
		for i := 0; i < 12; i++ {
			id := NodeID(fmt.Sprintf("n%d", rng.Intn(30)))
			if _, ok := kindOf(g, id); ok {
				subset = append(subset, id)
			}
		}
		// Dedup.
		uniq := map[NodeID]struct{}{}
		var ids []NodeID
		for _, id := range subset {
			if _, ok := uniq[id]; !ok {
				uniq[id] = struct{}{}
				ids = append(ids, id)
			}
		}
		order := g.SubgraphTopoOrder(ids)
		if len(order) != len(ids) {
			return false
		}
		pos := map[NodeID]int{}
		for i, id := range order {
			pos[id] = i
		}
		if cyclic(g, ids) {
			return true // ordering not guaranteed, only permutation
		}
		for _, id := range ids {
			for _, s := range g.Successors(id) {
				if sp, ok := pos[s]; ok && s != id && sp < pos[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSubgraphTopoOrder(b *testing.B) {
	g := New()
	// Fragment layer feeding 128 pages each, in a 20k-object graph.
	for s := 0; s < 150; s++ {
		frag := NodeID(fmt.Sprintf("frag%d", s))
		g.AddNode(frag, KindBoth)
		_ = g.AddEdge(NodeID(fmt.Sprintf("db%d", s)), frag)
		for i := 0; i < 128; i++ {
			_ = g.AddEdge(frag, NodeID(fmt.Sprintf("p%d-%d", s, i)))
		}
	}
	subset := g.Affected("db3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SubgraphTopoOrder(subset)
	}
}

// kindOf returns the kind of vertex id, with ok reporting whether it exists.
func kindOf(g *Graph, id NodeID) (Kind, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	if !ok {
		return 0, false
	}
	return n.kind, true
}

// numEdges counts g's edges.
func numEdges(g *Graph) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, v := range g.nodes {
		n += len(v.out)
	}
	return n
}

// cyclic reports whether the subgraph induced by ids has a cycle through
// two or more vertices (SubgraphTopoOrder ignores self-loops).
func cyclic(g *Graph, ids []NodeID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	sub := make(map[NodeID]struct{}, len(ids))
	for _, id := range ids {
		sub[id] = struct{}{}
	}
	for _, comp := range g.sccLocked(sub) {
		if len(comp) > 1 {
			return true
		}
	}
	return false
}
