package deploy

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/dispatch"
	"dupserve/internal/httpserver"
	"dupserve/internal/recovery"
	"dupserve/internal/routing"
)

// recoveryDeployment builds a single-complex plant (three nodes, so a dead
// one has two peers) armed with the recovery protocol.
func recoveryDeployment(t *testing.T, p recovery.Policy) *Deployment {
	t.Helper()
	d, err := New(Config{
		Spec: smallSpec(),
		Complexes: []ComplexSpec{
			{Name: "tokyo", Frames: 1, NodesPerFrame: 3, ReplicationDelay: time.Millisecond,
				Distance: map[routing.Region]int{
					routing.RegionJapan: 10, routing.RegionAsia: 10, routing.RegionUS: 10,
					routing.RegionEurope: 10, routing.RegionOther: 10,
				}},
		},
	}, WithRecovery(p))
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

// TestRecoveredNodeNeverServesBelowPreFailureLSN is the protocol's
// acceptance invariant, enforced end-to-end: record every page version the
// victim held before dying, commit a burst while it is down (its cache is
// detached, so the pushes miss it), readmit it through the warmup, and
// verify every page it now serves is a hit at a version no older than its
// own pre-failure copy.
func TestRecoveredNodeNeverServesBelowPreFailureLSN(t *testing.T) {
	d := recoveryDeployment(t, recovery.Policy{
		Warm: true, FailThreshold: 1, ReadmitThreshold: 1, RampStart: 1,
	})
	cx := d.Complexes()[0]
	victim := cx.Cluster.Nodes()[0]
	vcache, ok := cx.Cluster.Caches.Get(victim.Name())
	if !ok {
		t.Fatalf("no cache for %s", victim.Name())
	}
	pages := cx.Site.Pages()
	pre := make(map[string]int64, len(pages))
	for _, p := range pages {
		obj, cached := vcache.Peek(cache.Key(p))
		if !cached {
			t.Fatalf("page %s not primed on %s", p, victim.Name())
		}
		pre[p] = obj.Version
	}

	victim.Fail()
	cx.Cluster.Advise()
	if got := cx.Cluster.Healthy(); got != 2 {
		t.Fatalf("healthy = %d, want 2", got)
	}

	events := d.MasterSite.Events
	for i := 0; i < 6; i++ {
		ev := events[i%len(events)]
		if _, err := d.MasterSite.RecordPartial(ev,
			ev.Participants[i%len(ev.Participants)], fmt.Sprintf("floor.%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if !d.WaitFresh(10 * time.Second) {
		t.Fatal("plant did not converge while victim was down")
	}

	victim.Recover()
	if !victim.WaitReady(10 * time.Second) {
		t.Fatal("victim never became ready")
	}
	cx.Cluster.Advise()
	if st, _ := cx.Cluster.Dispatcher.MemberState(victim.Name()); st != dispatch.StateUp {
		t.Fatalf("victim state = %s, want up", st)
	}

	for _, p := range pages {
		obj, outcome, err := victim.Serve(p)
		if err != nil {
			t.Fatalf("post-rejoin serve %s: %v", p, err)
		}
		if outcome != httpserver.OutcomeHit {
			t.Errorf("post-rejoin %s: outcome %s, want hit (warmup must prevent the miss storm)", p, outcome)
		}
		if obj.Version < pre[p] {
			t.Errorf("post-rejoin %s: version %d below pre-failure %d (LSN-floor violation)",
				p, obj.Version, pre[p])
		}
	}
	if cx.Recovery == nil || cx.Recovery.Warmups.Value() != 1 {
		t.Fatalf("recovery metrics missing or warmups != 1: %+v", cx.Recovery)
	}
}

// TestDetachedCacheMissesPushesWhileDown: the recovery wiring detaches a
// failed node's cache from the broadcast group (a dead machine receives no
// pushes) and the warmup's re-attach restores membership.
func TestDetachedCacheMissesPushesWhileDown(t *testing.T) {
	d := recoveryDeployment(t, recovery.Policy{
		Warm: true, FailThreshold: 1, ReadmitThreshold: 1, RampStart: 1,
	})
	cx := d.Complexes()[0]
	victim := cx.Cluster.Nodes()[0]
	group := cx.Cluster.Caches

	before := group.Len()
	victim.Fail()
	if got := group.Len(); got != before-1 {
		t.Fatalf("group members = %d after fail, want %d (cache detached)", got, before-1)
	}
	victim.Recover()
	if !victim.WaitReady(10 * time.Second) {
		t.Fatal("victim never became ready")
	}
	if got := group.Len(); got != before {
		t.Fatalf("group members = %d after rejoin, want %d (cache re-attached)", got, before)
	}
}

// TestColdPolicyRejoinsEmpty: with Warm off the node rejoins with an empty
// cache — the baseline the benchmark compares against — and every
// post-rejoin serve is a render.
func TestColdPolicyRejoinsEmpty(t *testing.T) {
	d := recoveryDeployment(t, recovery.Policy{
		Warm: false, FailThreshold: 1, ReadmitThreshold: 1, RampStart: 1,
	})
	cx := d.Complexes()[0]
	victim := cx.Cluster.Nodes()[0]
	victim.Fail()
	cx.Cluster.Advise()
	victim.Recover()
	if !victim.WaitReady(10 * time.Second) {
		t.Fatal("victim never became ready")
	}
	page := cx.Site.Pages()[0]
	_, outcome, err := victim.Serve(page)
	if err != nil {
		t.Fatal(err)
	}
	if outcome == httpserver.OutcomeHit {
		t.Fatal("cold rejoin served a hit, want a miss (empty cache)")
	}
}
