package deploy

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/dispatch"
	"dupserve/internal/fault"
	"dupserve/internal/httpserver"
	"dupserve/internal/obs"
	"dupserve/internal/odg"
	"dupserve/internal/overload"
	"dupserve/internal/recovery"
	"dupserve/internal/site"
	"dupserve/internal/stats"
	"dupserve/internal/wire"
)

// startNodeProcess brings up on loopback what olympicsd -role node runs: a
// replica fed by log shipping, a cache the complex pushes pages into, and a
// server rendering misses against the replica, all on one wire listener at
// addr. It returns the server and its bound address.
func startNodeProcess(t *testing.T, spec site.Spec, name, addr string) (*wire.Server, string) {
	t.Helper()
	replica := db.New(name + "-replica")
	c := cache.New(name)
	var st *site.Site
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return st.Engine.Generate(key, version)
	}
	var err error
	if st, err = site.BuildReplica(spec, replica, core.NewEngine(odg.New(), c, core.WithGenerator(gen))); err != nil {
		t.Fatal(err)
	}
	ws := wire.NewServer(name)
	wire.RegisterReplica(ws, replica)
	wire.RegisterStore(ws, c)
	wire.RegisterNode(ws, httpserver.New(name, c, gen, replica.LSN))
	bound, err := ws.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ws.Close)
	return ws, bound.String()
}

func TestWireComplexRejectsInProcessOptions(t *testing.T) {
	cfg := Config{Spec: smallSpec(), Complexes: []ComplexSpec{{Name: "master", Peers: []string{"127.0.0.1:1"}}}}
	for name, opt := range map[string]Option{
		"faults":   WithFaults(fault.New(fault.Config{Seed: 1})),
		"overload": WithOverload(overload.Config{}, 0),
		"audit":    WithAudit(),
		"recovery": WithRecovery(recovery.Policy{}),
	} {
		if _, err := New(cfg, opt); err == nil {
			t.Fatalf("%s accepted for a wire complex", name)
		}
	}
}

// TestWireComplexKeepsRestartedNodeDown restarts a node process empty on its
// old address after a commit. The restarted process answers pings, but its
// replica is at LSN 0 and replication stops at the gap, so readmitting it
// would serve version-0 pages as hits. The node must stay down, and every
// serve must come from the surviving node at the commit's version.
func TestWireComplexKeepsRestartedNodeDown(t *testing.T) {
	spec := smallSpec()
	_, addr0 := startNodeProcess(t, spec, "up0", "127.0.0.1:0")
	n1, addr1 := startNodeProcess(t, spec, "up1", "127.0.0.1:0")
	d, err := New(Config{Spec: spec, Complexes: []ComplexSpec{{Name: "master", Peers: []string{addr0, addr1}}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Shutdown(context.Background()) })
	if err := d.Prime(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	reg := stats.NewRegistry()
	d.RegisterMetrics(reg)
	if err := reg.WriteText(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	st := d.MasterSite
	ev := st.Events[0]
	tx, err := st.RecordResult(ev, ev.Participants[0], ev.Participants[1], ev.Participants[2], "240.0")
	if err != nil {
		t.Fatal(err)
	}
	if !d.WaitFresh(10 * time.Second) {
		t.Fatal("commit never reached both node replicas")
	}
	cx, _ := d.Complex("master")
	page := fmt.Sprintf("/en/sports/%s/%s", ev.Sport, ev.Key)

	n1.Close()
	startNodeProcess(t, spec, "up1", addr1)
	deadline := time.Now().Add(5 * time.Second)
	for !cx.nodes[1].RemoteNode.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("restarted node never answered a ping")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cx.Dispatcher.CheckNow()
	if st, _ := cx.Dispatcher.MemberState("up1"); st != dispatch.StateDown {
		t.Fatalf("restarted empty node is %v after a probe, want down", st)
	}
	for i := 0; i < 50; i++ {
		obj, outcome, err := cx.Dispatcher.Serve(page)
		if err != nil || outcome != httpserver.OutcomeHit {
			t.Fatalf("serve %d: %v %v", i, outcome, err)
		}
		if obj.Version < tx.LSN || !bytes.Contains(obj.Value, []byte(ev.Participants[0])) {
			t.Fatalf("serve %d: version %d without the new result, want the commit at lsn %d", i, obj.Version, tx.LSN)
		}
	}
}

// TestEveryComplexIsTracedAndObserved: New with no options gives an
// in-process complex and a wire complex alike an observability suite whose
// tracer records every propagation, whose families register under the
// complex's label, and whose journal takes the violations of a 1ns
// Config.SLO.
func TestEveryComplexIsTracedAndObserved(t *testing.T) {
	spec := smallSpec()
	_, addr := startNodeProcess(t, spec, "up0", "127.0.0.1:0")
	d, err := New(Config{Spec: spec, SLO: time.Nanosecond, Complexes: []ComplexSpec{
		{Name: "tokyo", Frames: 1, NodesPerFrame: 2},
		{Name: "master", Peers: []string{addr}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Shutdown(context.Background()) })
	if err := d.Prime(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	ev := d.MasterSite.Events[0]
	tx, err := d.MasterSite.RecordResult(ev, ev.Participants[0], ev.Participants[1], ev.Participants[2], "240.0")
	if err != nil {
		t.Fatal(err)
	}
	if !d.WaitFresh(10 * time.Second) {
		t.Fatal("commit never propagated")
	}
	page := fmt.Sprintf("/en/sports/%s/%s", ev.Sport, ev.Key)

	reg := stats.NewRegistry()
	d.RegisterMetrics(reg)
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, cx := range d.Complexes() {
		if cx.Obs == nil {
			t.Fatalf("%s: no observability suite", cx.Name)
		}
		tr := cx.Obs.Tracer.Recent(0)
		if len(tr) == 0 || tr[0].LSN != tx.LSN {
			t.Fatalf("%s: newest trace %+v, want the commit at lsn %d", cx.Name, tr, tx.LSN)
		}
		if _, _, err := cx.Dispatcher.Serve(page); err != nil {
			t.Fatalf("%s: serve %s: %v", cx.Name, page, err)
		}
		if spans := cx.Obs.Collector.Recent(1); len(spans) != 1 || spans[0].Path != page {
			t.Fatalf("%s: newest serve span %+v, want %s", cx.Name, spans, page)
		}
		if cx.Obs.Tracer.Violations() == 0 {
			t.Fatalf("%s: no SLO violation under a 1ns SLO", cx.Name)
		}
		violated := false
		for _, e := range cx.Obs.Journal.Recent(0) {
			violated = violated || e.Scope+"/"+e.Kind == obs.TriggerSLOViolation
		}
		if !violated {
			t.Fatalf("%s: journal has no %s event", cx.Name, obs.TriggerSLOViolation)
		}
		for _, series := range []string{
			`dup_propagation_seconds_count{complex="` + cx.Name + `"}`,
			`serve_seconds_count{complex="` + cx.Name + `"}`,
			`journal_events_total{complex="` + cx.Name + `"}`,
		} {
			if !bytes.Contains(text.Bytes(), []byte(series)) {
				t.Fatalf("exposition has no %s", series)
			}
		}
	}
}
