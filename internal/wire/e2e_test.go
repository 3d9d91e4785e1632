package wire_test

// End-to-end test of the networked propagation plane: a master process
// (database, DUP engine, trigger monitor) pushing rendered pages over real
// TCP into the caches of two serving-node processes, modeled here as
// separate wire servers on loopback — the same wiring cmd/olympicsd uses in
// -role master / -role node mode, minus the process boundary.
//
// It then breaks the wire mid-stream two ways — a dropped connection (the
// client must reconnect and retry transparently) and an injected link
// partition (retries exhaust, the push downgrades, the undeliverable
// invalidation becomes debt replayed on heal) — and proves with an audit
// sweep that the degraded path never left a stale byte serveable.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"dupserve/internal/audit"
	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/dispatch"
	"dupserve/internal/fault"
	"dupserve/internal/fragment"
	"dupserve/internal/httpserver"
	"dupserve/internal/odg"
	"dupserve/internal/site"
	"dupserve/internal/trigger"
	"dupserve/internal/wire"
)

// wireNode is one simulated serving-node process: its cache, its HTTP
// serving layer, and the wire server exposing both.
type wireNode struct {
	name   string
	cache  *cache.Cache
	server *wire.Server
	addr   string
}

// startNode brings up a node process: cache + HTTP server registered on a
// fresh loopback wire listener.
func startNode(t *testing.T, name string, gen core.Generator, version func() int64, tap func(httpserver.ResponseSample)) *wireNode {
	t.Helper()
	c := cache.New(name)
	srv := httpserver.New(name, c, gen, version, httpserver.WithResponseTap(tap))
	s := wire.NewServer(name)
	wire.RegisterStore(s, c)
	wire.RegisterNode(s, srv)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("%s: listen: %v", name, err)
	}
	t.Cleanup(s.Close)
	return &wireNode{name: name, cache: c, server: s, addr: addr.String()}
}

// snapshot captures every page's served bytes from one node cache.
func snapshot(c *cache.Cache, pages []string) map[string][]byte {
	out := make(map[string][]byte, len(pages))
	for _, p := range pages {
		if obj, ok := c.Get(cache.Key(p)); ok {
			out[p] = obj.Value
		}
	}
	return out
}

// changedPages diffs two snapshots.
func changedPages(before, after map[string][]byte) []string {
	var changed []string
	for p, b := range after {
		if prev, ok := before[p]; !ok || !bytes.Equal(prev, b) {
			changed = append(changed, p)
		}
	}
	return changed
}

func TestE2EWirePropagation(t *testing.T) {
	master := db.New("master")
	graph := odg.New()

	var st *site.Site
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return st.Engine.Generate(key, version)
	}

	// Consistency oracle: node HTTP servers tap served responses into it;
	// the final sweep shadow-renders against the master and classifies
	// every sample.
	spec := site.DefaultSpec()
	spec.Days = 3
	spec.Languages = []string{"en"}
	aud := audit.New(audit.Config{
		Name:    "e2e",
		Replica: master,
		Build: func(sdb *db.DB, sreg fragment.Registrar) (*fragment.Engine, []string, error) {
			s, err := site.BuildReplica(spec, sdb, sreg)
			if err != nil {
				return nil, nil, err
			}
			return s.Engine, s.Pages(), nil
		},
		Indexer:     func(ch db.Change) []odg.NodeID { return st.Indexer(ch) },
		StaleBudget: time.Minute,
		SLO:         time.Minute,
	})

	// Two serving-node "processes" on loopback.
	n1 := startNode(t, "up0", gen, master.LSN, aud.Observe)
	n2 := startNode(t, "up1", gen, master.LSN, aud.Observe)

	// The master's push plane: one wire client per node, node 2's link
	// routed through the fault injector so -chaos-style partitions hit the
	// TCP transport with the same taxonomy as the in-process hooks.
	inj := fault.New(fault.Config{Seed: 1998})
	link2 := inj.PartitionCheck("push:up1")
	mkClient := func(name, addr string, check func() bool) *wire.StoreClient {
		opts := []wire.ClientOption{
			wire.WithCallTimeout(250 * time.Millisecond),
			wire.WithReconnectBackoff(time.Millisecond, 5*time.Millisecond),
		}
		if check != nil {
			opts = append(opts, wire.WithPartitionCheck(check))
		}
		return wire.NewStoreClient(name, wire.Dial(name, addr, opts...))
	}
	gc := wire.NewGroupClient(
		[]*wire.StoreClient{mkClient("up0", n1.addr, nil), mkClient("up1", n2.addr, link2)},
		wire.WithGroupRetryPolicy(cache.RetryPolicy{
			MaxAttempts: 3, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
			Sleep: time.Sleep}),
		wire.WithFlushInterval(2*time.Millisecond))
	defer gc.Close()

	// Master-side pipeline: engine pushing through the wire group, site,
	// trigger monitor on the CDC feed.
	engine := core.NewEngine(graph, gc, core.WithGenerator(gen))
	var err error
	st, err = site.Build(spec, master, engine)
	if err != nil {
		t.Fatalf("site build: %v", err)
	}
	engine.SetAssembler(st.Engine)

	if err := st.PrerenderAll(master.LSN(), func(o *cache.Object) { gc.ApplyPut(o) }); err != nil {
		t.Fatalf("prerender: %v", err)
	}
	for _, n := range []*wireNode{n1, n2} {
		for _, p := range st.Pages() {
			if _, ok := n.cache.Get(cache.Key(p)); !ok {
				t.Fatalf("%s: page %s not primed over the wire", n.name, p)
			}
		}
	}

	mon := trigger.New(trigger.Config{
		Name: "e2e", DB: master, Engine: engine,
		StartLSN: master.LSN(),
	}, trigger.WithIndexer(st.Indexer))
	if err := mon.Start(context.Background()); err != nil {
		t.Fatalf("monitor: %v", err)
	}
	defer mon.Shutdown(context.Background())

	// Phase A: a commit at the master must update affected pages in every
	// node cache via the wire path.
	before1 := snapshot(n1.cache, st.Pages())
	before2 := snapshot(n2.cache, st.Pages())
	ev := st.Events[0]
	if _, err := st.RecordResult(ev, ev.Participants[0], ev.Participants[1], ev.Participants[2], "240.0"); err != nil {
		t.Fatalf("record result: %v", err)
	}
	mon.Flush()
	ch1 := changedPages(before1, snapshot(n1.cache, st.Pages()))
	ch2 := changedPages(before2, snapshot(n2.cache, st.Pages()))
	if len(ch1) == 0 || len(ch2) == 0 {
		t.Fatalf("commit did not reach both nodes over the wire: up0=%d up1=%d changed", len(ch1), len(ch2))
	}

	// Phase B: sever node 1's connections mid-stream; the pooled client
	// must reconnect and the next propagation must still land everywhere.
	n1.server.DropConnections()
	before1 = snapshot(n1.cache, st.Pages())
	ev = st.Events[1]
	if _, err := st.RecordResult(ev, ev.Participants[1], ev.Participants[2], ev.Participants[0], "241.0"); err != nil {
		t.Fatalf("record result: %v", err)
	}
	mon.Flush()
	// The group's retry policy covers the reconnect race; by flush return
	// the push either landed or downgraded, and a downgrade would have
	// removed the page rather than leaving the old bytes.
	if ch := changedPages(before1, snapshot(n1.cache, st.Pages())); len(ch) == 0 {
		// A downgrade is acceptable only if the debt settles and the page is
		// gone; old bytes still present means the drop was swallowed.
		stale := false
		for _, p := range st.Pages() {
			if obj, ok := n1.cache.Get(cache.Key(p)); ok && bytes.Equal(obj.Value, before1[p]) {
				continue
			}
			stale = true
		}
		if !stale {
			t.Fatal("up0 saw neither fresh pages nor invalidations after reconnect")
		}
	}

	// Phase C: partition node 2's link mid-push. Retries exhaust, pushes
	// downgrade, and the undeliverable invalidations become debt.
	inj.SetPartition("push:up1", true)
	ev = st.Events[2]
	if _, err := st.RecordResult(ev, ev.Participants[2], ev.Participants[0], ev.Participants[1], "242.0"); err != nil {
		t.Fatalf("record result: %v", err)
	}
	mon.Flush()
	if gc.PendingDebt() == 0 {
		t.Fatal("partitioned node accrued no invalidation debt")
	}

	// Heal. The background flusher must settle the debt, leaving node 2
	// with no serveable stale page (misses regenerate fresh).
	inj.SetPartition("push:up1", false)
	deadline := time.Now().Add(5 * time.Second)
	for gc.PendingDebt() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("debt never settled after heal: %d outstanding", gc.PendingDebt())
		}
		time.Sleep(time.Millisecond)
	}

	// Serve every page through a dispatcher fronting both nodes over the
	// wire (TypeServe), then sweep: zero incoherence is the acceptance bar.
	nd := dispatch.New(dispatch.Config{Name: "nd", Nodes: []dispatch.Node{
		wire.NewRemoteNode("up0", wire.Dial("nd-up0", n1.addr)),
		wire.NewRemoteNode("up1", wire.Dial("nd-up1", n2.addr)),
	}})
	for _, p := range st.Pages() {
		if _, outcome, err := nd.Serve(p); outcome == httpserver.OutcomeError {
			t.Fatalf("serve %s over wire: %v", p, err)
		}
	}
	rep, err := aud.Sweep()
	if err != nil {
		t.Fatalf("audit sweep: %v", err)
	}
	if rep.Incoherent != 0 {
		t.Fatalf("audit found %d incoherent pages after wire faults: %v",
			rep.Incoherent, rep.IncoherentPages)
	}
	if rep.Samples == 0 {
		t.Fatal("audit sweep classified no samples")
	}
	t.Logf("sweep: %d samples, %d coherent, %d bounded-stale, 0 incoherent (debt replays=%d)",
		rep.Samples, rep.Coherent, rep.BoundedStale, gc.PendingDebt())
}
