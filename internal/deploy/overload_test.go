package deploy

import (
	"context"
	"testing"
	"time"

	"dupserve/internal/core"
	"dupserve/internal/httpserver"
	"dupserve/internal/overload"
)

func newOverloadDeployment(t *testing.T, ocfg overload.Config, budget time.Duration) *Deployment {
	t.Helper()
	cfg := NaganoConfig(smallSpec())
	for i := range cfg.Complexes {
		cfg.Complexes[i].ReplicationDelay = time.Millisecond
	}
	cfg.Policy = core.PolicyInvalidate
	d, err := New(cfg, WithOverload(ocfg, budget))
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
	return d
}

func TestWithOverloadArmsEveryNode(t *testing.T) {
	d := newOverloadDeployment(t, overload.Config{MaxConcurrent: 2}, time.Minute)
	seen := make(map[*overload.Limiter]bool)
	for _, cx := range d.Complexes() {
		for _, node := range cx.Cluster.Nodes() {
			srv, ok := node.Server().(*httpserver.Server)
			if !ok {
				t.Fatalf("node %s does not wrap an httpserver.Server", node.Name())
			}
			lim := srv.Limiter()
			if lim == nil {
				t.Fatalf("node %s has no admission limiter", node.Name())
			}
			if seen[lim] {
				t.Fatalf("node %s shares a limiter with another node", node.Name())
			}
			seen[lim] = true
		}
	}
}

func TestPolicyReachesEveryEngine(t *testing.T) {
	d := newOverloadDeployment(t, overload.Config{MaxConcurrent: 2}, time.Minute)
	ev := d.MasterSite.Events[0]
	if _, err := d.MasterSite.RecordResult(ev, ev.Participants[0], ev.Participants[1], ev.Participants[2], "1"); err != nil {
		t.Fatal(err)
	}
	if !d.WaitFresh(10 * time.Second) {
		t.Fatal("freshness timeout")
	}
	// Under the invalidate policy a commit drops the affected pages and
	// renders none of them.
	for _, cx := range d.Complexes() {
		if st := cx.Engine.Stats(); st.Invalidated == 0 || st.Updated != 0 {
			t.Fatalf("complex %s engine invalidated %d and updated %d pages, want invalidate only", cx.Name, st.Invalidated, st.Updated)
		}
	}
}

func TestAdviseLoadWithdrawsAndRestores(t *testing.T) {
	d := newOverloadDeployment(t, overload.Config{MaxConcurrent: 2}, time.Minute)

	loads := d.AdviseLoad()
	if len(loads) != len(d.Complexes()) {
		t.Fatalf("AdviseLoad covered %d complexes, want %d", len(loads), len(d.Complexes()))
	}
	for name, load := range loads {
		if load >= 1 {
			t.Fatalf("idle complex %s reports load %v", name, load)
		}
		if shed := d.Router.LoadShedAddrs(name); len(shed) != 0 {
			t.Fatalf("idle complex %s has withdrawn addrs %v", name, shed)
		}
	}

	// Saturate every limiter slot in tokyo: its aggregate load crosses the
	// shed threshold, so the next advisor sweep withdraws addresses.
	cx, _ := d.Complex("tokyo")
	var releases []func()
	for _, node := range cx.Cluster.Nodes() {
		lim := node.Server().(*httpserver.Server).Limiter()
		for i := 0; i < 2; i++ {
			release, err := lim.TryAcquire()
			if err != nil {
				t.Fatal(err)
			}
			releases = append(releases, release)
		}
	}
	loads = d.AdviseLoad()
	if loads["tokyo"] < 1 {
		t.Fatalf("saturated tokyo reports load %v, want >= 1", loads["tokyo"])
	}
	if shed := d.Router.LoadShedAddrs("tokyo"); len(shed) == 0 {
		t.Fatal("saturated complex kept all addresses advertised")
	}

	// The surge clears; the next sweep re-advertises everything.
	for _, release := range releases {
		release()
	}
	if loads = d.AdviseLoad(); loads["tokyo"] >= 1 {
		t.Fatalf("drained tokyo reports load %v", loads["tokyo"])
	}
	if shed := d.Router.LoadShedAddrs("tokyo"); len(shed) != 0 {
		t.Fatalf("drained complex still sheds %v", shed)
	}
}
