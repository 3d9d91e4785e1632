package odg

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// refReplaceDependencies is the reference model of ReplaceDependencies: it
// always deletes every in-edge of id and re-adds preds at DefaultWeight,
// with no unchanged-set exit. The graph the real method leaves behind must
// be indistinguishable from the one this leaves.
func refReplaceDependencies(g *Graph, id NodeID, preds []NodeID) {
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

// refAddNode is the reference model of AddNode: it always takes the write
// lock and re-evaluates the vertex's kind.
func refAddNode(g *Graph, id NodeID, kind Kind) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.getOrAddLocked(id, kind)
	g.mutateLocked(map[NodeID]*node{id: n}, func() {
		n.kind = kind
	})
}

// sameGraph reports the first difference between two graphs: counters,
// simplicity, or any vertex's kind, in-edges or out-edges with weights.
func sameGraph(got, want *Graph) error {
	if got.NumEdges() != want.NumEdges() {
		return fmt.Errorf("NumEdges = %d, reference %d", got.NumEdges(), want.NumEdges())
	}
	if got.IsSimple() != want.IsSimple() {
		return fmt.Errorf("IsSimple = %v, reference %v", got.IsSimple(), want.IsSimple())
	}
	got.mu.RLock()
	defer got.mu.RUnlock()
	want.mu.RLock()
	defer want.mu.RUnlock()
	if len(got.nodes) != len(want.nodes) {
		return fmt.Errorf("%d vertices, reference %d", len(got.nodes), len(want.nodes))
	}
	for id, wn := range want.nodes {
		gn, ok := got.nodes[id]
		if !ok {
			return fmt.Errorf("vertex %q missing", id)
		}
		if gn.kind != wn.kind {
			return fmt.Errorf("vertex %q kind %v, reference %v", id, gn.kind, wn.kind)
		}
		if !reflect.DeepEqual(gn.in, wn.in) {
			return fmt.Errorf("vertex %q in-edges %v, reference %v", id, gn.in, wn.in)
		}
		if !reflect.DeepEqual(gn.out, wn.out) {
			return fmt.Errorf("vertex %q out-edges %v, reference %v", id, gn.out, wn.out)
		}
	}
	return nil
}

// TestReplaceDependenciesMatchesReference runs seeded random operation
// sequences against a graph using the real methods and one using the
// reference models, and requires the two to agree after every step. The
// sequences lean on re-registration of the previous set — the case the
// unchanged-set exit serves — mixed with everything that must defeat it:
// a weighted edge into the object, a kind flip, a removed vertex, repeats,
// a self-pred, unsorted order, subsets and supersets.
func TestReplaceDependenciesMatchesReference(t *testing.T) {
	const (
		seeds = 40
		steps = 400
	)
	row := func(i int) NodeID { return NodeID(fmt.Sprintf("r%02d", i)) }
	page := func(i int) NodeID { return NodeID(fmt.Sprintf("p%d", i)) }
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want := New(), New()
		last := map[NodeID][]NodeID{}
		randomSet := func() []NodeID {
			set := make([]NodeID, 0, 6)
			for _, i := range rng.Perm(12)[:rng.Intn(7)] {
				set = append(set, row(i))
			}
			return set
		}
		sorted := func(ids []NodeID) []NodeID {
			ids = slices.Clone(ids)
			slices.Sort(ids)
			return ids
		}
		for step := 0; step < steps; step++ {
			id := page(rng.Intn(4))
			prev := last[id]
			var op string
			switch k := rng.Intn(14); {
			case k < 5: // the render loop: the same rows as last time
				op = fmt.Sprintf("replace %s same %v", id, prev)
				got.ReplaceDependencies(id, prev)
				refReplaceDependencies(want, id, prev)
			case k < 9:
				preds := randomSet()
				switch k {
				case 5: // a fresh set
				case 6: // a subset of the previous one
					preds = slices.Clone(prev[:rng.Intn(len(prev)+1)])
				case 7: // a superset
					preds = append(slices.Clone(prev), row(rng.Intn(12)))
				case 8: // a self-pred
					preds = append(preds, id)
				}
				if rng.Intn(4) > 0 {
					preds = sorted(preds)
				}
				if len(preds) > 0 && rng.Intn(5) == 0 { // a repeated pred
					preds = append(preds, preds[rng.Intn(len(preds))])
				}
				op = fmt.Sprintf("replace %s %v", id, preds)
				got.ReplaceDependencies(id, preds)
				refReplaceDependencies(want, id, preds)
				// Sorted and deduplicated, so that repeating last[id] is
				// the unchanged set.
				last[id] = slices.Compact(sorted(preds))
			case k < 11: // a weighted edge into a registered object
				from := row(rng.Intn(12))
				if len(prev) > 0 && rng.Intn(3) > 0 {
					from = prev[rng.Intn(len(prev))]
				}
				w := float64(1 + rng.Intn(3))
				op = fmt.Sprintf("weighted %s->%s %v", from, id, w)
				if err := got.AddWeightedEdge(from, id, w); err != nil {
					t.Fatal(err)
				}
				if err := want.AddWeightedEdge(from, id, w); err != nil {
					t.Fatal(err)
				}
			case k < 13: // a kind flip, on a page or a row
				target := id
				if rng.Intn(2) == 0 {
					target = row(rng.Intn(12))
				}
				kind := Kind(rng.Intn(3))
				op = fmt.Sprintf("addnode %s %v", target, kind)
				got.AddNode(target, kind)
				refAddNode(want, target, kind)
			default:
				target := id
				if rng.Intn(2) == 0 {
					target = row(rng.Intn(12))
				}
				op = fmt.Sprintf("remove %s", target)
				got.RemoveNode(target)
				want.RemoveNode(target)
				if target == id {
					delete(last, id)
				}
			}
			if err := sameGraph(got, want); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
			}
			if err := got.checkInvariants(); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
			}
			changed := randomSet()
			if rng.Intn(3) == 0 {
				changed = append(changed, page(rng.Intn(4)))
			}
			if g, w := got.Affected(changed...), want.Affected(changed...); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d step %d (%s): Affected(%v) = %v, reference %v", seed, step, op, changed, g, w)
			}
		}
	}
}

// TestReplaceDependenciesUnchangedAllocs pins the cost of the render loop's
// common case: re-registering the set a page already has, and re-marking a
// fragment with the kind it already has, allocate nothing.
func TestReplaceDependenciesUnchangedAllocs(t *testing.T) {
	g := New()
	deps := []NodeID{"db:r:1", "db:r:2", "db:r:3", "db:r:4", "db:r:5"}
	g.ReplaceDependencies("frag:a", deps)
	g.AddNode("frag:a", KindBoth)
	if n := testing.AllocsPerRun(100, func() { g.ReplaceDependencies("frag:a", deps) }); n != 0 {
		t.Errorf("unchanged ReplaceDependencies: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { g.AddNode("frag:a", KindBoth) }); n != 0 {
		t.Errorf("unchanged AddNode: %v allocs/op, want 0", n)
	}
}

// TestReplaceDependenciesConcurrent runs unchanged re-registration,
// propagation queries, and registrations that do change — a weighted edge
// into the re-registered page, and a neighbour's changing set — on one
// graph at once. Run it under -race.
func TestReplaceDependenciesConcurrent(t *testing.T) {
	g := New()
	depsA := []NodeID{"r1", "r2", "r3", "r4", "r5"}
	setsB := [2][]NodeID{{"r1", "r2", "r6"}, {"r3", "r7"}}
	g.ReplaceDependencies("pageA", depsA)
	const iters = 2000
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			g.ReplaceDependencies("pageA", depsA)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if i%2 == 0 {
				g.ReplaceDependencies("pageB", setsB[i/2%2])
			} else if err := g.AddWeightedEdge(depsA[i%len(depsA)], "pageA", 2); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			got := g.Affected(depsA[i%len(depsA)])
			if !slices.Contains(got, "pageA") {
				t.Errorf("Affected(%s) = %v lost pageA", depsA[i%len(depsA)], got)
				return
			}
		}
	}()
	wg.Wait()
	g.ReplaceDependencies("pageA", depsA)
	for _, d := range depsA {
		if w, ok := g.EdgeWeight(d, "pageA"); !ok || w != DefaultWeight {
			t.Fatalf("edge %s->pageA weight %v ok=%v after re-registration, want %v", d, w, ok, DefaultWeight)
		}
	}
	if !g.IsSimple() {
		t.Fatal("graph not simple after every weighted edge was re-registered away")
	}
	if err := g.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkReplaceDependencies measures the render loop's registration on a
// graph of 1000 pages over 2000 rows, five rows each: "unchanged"
// re-registers the set a page already has, "changed" alternates each page
// between two overlapping sets.
func BenchmarkReplaceDependencies(b *testing.B) {
	const pages, rows = 1000, 2000
	setup := func() (*Graph, [][2][]NodeID) {
		g := New()
		sets := make([][2][]NodeID, pages)
		for p := range sets {
			for v := range sets[p] {
				set := make([]NodeID, 5)
				for j := range set {
					set[j] = NodeID(fmt.Sprintf("db:r:%04d", (p*7+(j+v)*3)%rows))
				}
				slices.Sort(set)
				sets[p][v] = set
			}
			g.ReplaceDependencies(NodeID(fmt.Sprintf("page:%d", p)), sets[p][0])
		}
		return g, sets
	}
	ids := make([]NodeID, pages)
	for p := range ids {
		ids[p] = NodeID(fmt.Sprintf("page:%d", p))
	}
	b.Run("unchanged", func(b *testing.B) {
		g, sets := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.ReplaceDependencies(ids[i%pages], sets[i%pages][0])
		}
	})
	b.Run("changed", func(b *testing.B) {
		g, sets := setup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := i % pages
			g.ReplaceDependencies(ids[p], sets[p][(i/pages+1)%2])
		}
	})
}
