package dispatch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dupserve/internal/cache"
	"dupserve/internal/httpserver"
)

// churnNode is a node that records every serve against its own name, so a
// pick routed through a torn snapshot (a member struct observed half
// initialized, or an entry for a node that was never admitted) would
// surface as a serve against an unknown or down node.
type churnNode struct {
	name  string
	down  atomic.Bool
	hits  atomic.Int64
	valid atomic.Bool // set before the node is added, never cleared
}

func (n *churnNode) Name() string { return n.name }
func (n *churnNode) Serve(path string) (*cache.Object, httpserver.Outcome, error) {
	if !n.valid.Load() {
		panic("serve routed to a node before it was fully constructed")
	}
	if n.down.Load() {
		return nil, httpserver.OutcomeError, fmt.Errorf("churn node %s down", n.name)
	}
	n.hits.Add(1)
	return &cache.Object{Key: cache.Key(path), Value: []byte(n.name)}, httpserver.OutcomeHit, nil
}

// TestSnapshotSwapNoTornMemberList hammers the pick path while membership
// and probation state churn concurrently: nodes are added, removed, marked
// down and up while requests flow. Every serve must land on a fully
// constructed member and never panic, and the dispatcher must end in a
// consistent state. Run under -race this also proves the RCU swap
// publishes snapshots safely.
func TestSnapshotSwapNoTornMemberList(t *testing.T) {
	const stable = 4
	var nodes []*churnNode
	var seed []Node
	for i := 0; i < stable; i++ {
		n := &churnNode{name: fmt.Sprintf("stable-%d", i)}
		n.valid.Store(true)
		nodes = append(nodes, n)
		seed = append(seed, n)
	}
	d := New(Config{Name: "churn", Nodes: seed})

	const (
		servers = 4
		churns  = 2
		iters   = 2000
	)
	var wg sync.WaitGroup
	var served atomic.Int64
	for g := 0; g < servers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				obj, outcome, err := d.Serve("/p")
				if outcome == httpserver.OutcomeHit {
					if obj == nil || len(obj.Value) == 0 {
						t.Error("hit with empty object")
						return
					}
					served.Add(1)
				} else if err == nil {
					t.Errorf("non-hit outcome %v with nil error", outcome)
					return
				}
			}
		}()
	}
	// Membership churn: other stable nodes leave and rejoin the list.
	for g := 0; g < churns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := nodes[1+g].name
			for i := 0; i < iters/4; i++ {
				d.MarkDown(name)
				d.MarkUp(name)
			}
		}(g)
	}
	// Probation churn: a stable node flaps through the state machine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			nodes[0].down.Store(true)
			d.MarkDown(nodes[0].name)
			nodes[0].down.Store(false)
			d.MarkUp(nodes[0].name)
		}
	}()
	wg.Wait()

	if served.Load() == 0 {
		t.Fatal("no requests served during churn")
	}
	// The pool must converge: all stable nodes present and pickable.
	for _, n := range nodes {
		d.MarkUp(n.name)
	}
	if got := d.HealthyCount(); got != stable {
		t.Fatalf("healthy = %d after churn, want %d", got, stable)
	}
	for _, n := range nodes {
		if st, _ := d.MemberState(n.name); st != StateUp {
			t.Fatalf("member %q is %v after churn, want up", n.name, st)
		}
	}
}

// TestSnapshotIsolatedFromMutation proves a pick loop holding one snapshot
// is unaffected by concurrent rebuilds: the snapshot a request starts with
// keeps serving it even as members are marked down behind it.
func TestSnapshotIsolatedFromMutation(t *testing.T) {
	a := &churnNode{name: "a"}
	a.valid.Store(true)
	b := &churnNode{name: "b"}
	b.valid.Store(true)
	d := New(Config{Name: "iso", Nodes: []Node{a, b}})
	sn := d.snap.Load()
	if len(sn.entries) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(sn.entries))
	}
	d.MarkDown("a")
	d.MarkDown("b")
	// The captured snapshot still lists both members — immutable.
	if len(sn.entries) != 2 {
		t.Fatalf("captured snapshot mutated to %d entries", len(sn.entries))
	}
	// New requests see the empty pool.
	if _, _, err := d.Serve("/p"); err == nil {
		t.Fatal("expected ErrNoBackends after marking every member down")
	}
}
