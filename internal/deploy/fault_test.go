package deploy

import (
	"context"
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/fault"
)

// faultyDeployment builds a Nagano-shaped deployment with fault injection
// armed through the given injector and the given freshness SLO (0: the
// paper's 60s).
func faultyDeployment(t *testing.T, inj *fault.Injector, slo time.Duration) *Deployment {
	t.Helper()
	cfg := NaganoConfig(smallSpec())
	cfg.SLO = slo
	for i := range cfg.Complexes {
		cfg.Complexes[i].ReplicationDelay = time.Millisecond
	}
	d, err := New(cfg, WithFaults(inj))
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

// TestMonitorCrashIsSupervisedAndRecovers: with crashes armed, the
// deployment restarts dead monitors from their checkpoints; once the fault
// clears, every complex converges to the master with nothing lost.
func TestMonitorCrashIsSupervisedAndRecovers(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 23})
	d := faultyDeployment(t, inj, 0)

	inj.SetRate(fault.KindMonitorCrash, 1)
	ev := d.MasterSite.Events[0]
	if _, err := d.MasterSite.RecordPartial(ev, ev.Participants[0], "1.0"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.MonitorRestarts() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no monitor restart despite certain crashes")
		}
		time.Sleep(time.Millisecond)
	}
	inj.ClearRates()

	if !d.WaitFresh(10 * time.Second) {
		t.Fatal("deployment never converged after crashes cleared")
	}
	target := d.Master.LSN()
	for _, cx := range d.Complexes() {
		mon := cx.Monitor()
		if mon == nil {
			t.Fatalf("%s has no live monitor after recovery", cx.Name)
		}
		if mon.LastLSN() != target {
			t.Fatalf("%s monitor LSN %d, master %d — committed work lost",
				cx.Name, mon.LastLSN(), target)
		}
	}
	if d.MonitorRestarts() < 1 {
		t.Fatalf("restarts = %d", d.MonitorRestarts())
	}
}

// TestPartitionHealsWithZeroLoss: a partitioned replication link queues
// commits; the heal ships them all.
func TestPartitionHealsWithZeroLoss(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 29})
	d := faultyDeployment(t, inj, 0)
	cx, ok := d.Complex("tokyo")
	if !ok {
		t.Fatal("no tokyo complex")
	}

	inj.SetPartition(cx.Link, true)
	for i, ev := range d.MasterSite.Events[:3] {
		if _, err := d.MasterSite.RecordPartial(ev, ev.Participants[0], "2.0"); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	// The partitioned replica must fall behind while others converge.
	time.Sleep(20 * time.Millisecond)
	if cx.Replica.LSN() == d.Master.LSN() {
		t.Fatal("partitioned link still shipped")
	}

	inj.SetPartition(cx.Link, false)
	if !d.WaitFresh(10 * time.Second) {
		t.Fatal("no convergence after heal")
	}
	if cx.Replica.LSN() != d.Master.LSN() {
		t.Fatalf("tokyo LSN %d, master %d after heal", cx.Replica.LSN(), d.Master.LSN())
	}
}

// TestSLOViolationsReturnToZeroAfterFaultClears: transactions delayed past
// the freshness SLO by a partition are recorded as violations, but once the
// fault clears a fresh transaction propagates with zero new violations.
func TestSLOViolationsReturnToZeroAfterFaultClears(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 31})
	d := faultyDeployment(t, inj, 50*time.Millisecond)
	cx, _ := d.Complex("tokyo")

	inj.SetPartition(cx.Link, true)
	ev := d.MasterSite.Events[0]
	if _, err := d.MasterSite.RecordPartial(ev, ev.Participants[0], "3.0"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // hold well past the 50ms SLO
	inj.SetPartition(cx.Link, false)
	if !d.WaitFresh(10 * time.Second) {
		t.Fatal("no convergence after heal")
	}
	if cx.Obs.Tracer.Violations() == 0 {
		t.Fatal("held transaction did not register an SLO violation")
	}

	// Healthy pipeline: a probe transaction adds zero violations.
	base := int64(0)
	for _, c := range d.Complexes() {
		base += c.Obs.Tracer.Violations()
	}
	if _, err := d.MasterSite.RecordPartial(ev, ev.Participants[1], "3.1"); err != nil {
		t.Fatal(err)
	}
	if !d.WaitFresh(10 * time.Second) {
		t.Fatal("probe did not converge")
	}
	after := int64(0)
	for _, c := range d.Complexes() {
		after += c.Obs.Tracer.Violations()
	}
	if after != base {
		t.Fatalf("healthy probe added %d SLO violations", after-base)
	}
}

// TestPushFaultsNeverServeStale: with push failures armed, broadcasts may
// downgrade to invalidations — but no cache may keep a version older than
// the committed update.
func TestPushFaultsNeverServeStale(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 37})
	d := faultyDeployment(t, inj, 0)

	inj.SetRate(fault.KindPush, 0.5)
	ev := d.MasterSite.Events[1]
	tx, err := d.MasterSite.RecordPartial(ev, ev.Participants[0], "4.0")
	if err != nil {
		t.Fatal(err)
	}
	if !d.WaitFresh(10 * time.Second) {
		t.Fatal("no convergence under push faults")
	}
	inj.ClearRates()

	page := cache.Key("/en/sports/" + ev.Sport + "/" + ev.Key)
	for _, cx := range d.Complexes() {
		for _, c := range cx.Cluster.Caches.Members() {
			if obj, cached := c.Peek(page); cached && obj.Version < tx.LSN {
				t.Fatalf("%s/%s holds stale %s (v%d < v%d)",
					cx.Name, c.Name(), page, obj.Version, tx.LSN)
			}
		}
	}
}
