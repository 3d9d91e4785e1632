package dispatch

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/httpserver"
)

// probeNode is a backend with a synthetic health check: DefaultProbe asks
// Ready() and never touches the serve path.
type probeNode struct {
	name   string
	ready  atomic.Bool
	served atomic.Int64
}

func newProbeNode(name string) *probeNode {
	n := &probeNode{name: name}
	n.ready.Store(true)
	return n
}

func (p *probeNode) Name() string { return p.name }

func (p *probeNode) Ready() bool { return p.ready.Load() }

func (p *probeNode) Serve(path string) (*cache.Object, httpserver.Outcome, error) {
	if !p.ready.Load() {
		return nil, httpserver.OutcomeError, fmt.Errorf("%s down", p.name)
	}
	p.served.Add(1)
	return &cache.Object{Key: cache.Key(path), Value: []byte(p.name)}, httpserver.OutcomeHit, nil
}

func probePool(n int) ([]Node, []*probeNode) {
	var ns []Node
	var ps []*probeNode
	for i := 0; i < n; i++ {
		p := newProbeNode(fmt.Sprintf("up%d", i))
		ns = append(ns, p)
		ps = append(ps, p)
	}
	return ns, ps
}

// TestDefaultProbeUsesReadyReporter: a node exposing a synthetic health
// check is probed through it — advisor sweeps must not drive requests
// through the serve path (no served counters move, no spans are minted on
// behalf of a probe).
func TestDefaultProbeUsesReadyReporter(t *testing.T) {
	ns, ps := probePool(2)
	d := New(Config{Name: "nd", Nodes: ns})
	for i := 0; i < 50; i++ {
		d.CheckNow()
	}
	for _, p := range ps {
		if got := p.served.Load(); got != 0 {
			t.Fatalf("node %s served %d probe requests, want 0 (probe must use Ready)", p.name, got)
		}
	}
	ps[0].ready.Store(false)
	if got := d.CheckNow(); got != 1 {
		t.Fatalf("CheckNow = %d healthy, want 1", got)
	}
	if ps[0].served.Load() != 0 {
		t.Fatal("failing probe still drove the serve path")
	}
}

// TestProbeHysteresis: with FailThreshold and ReadmitThreshold of 2, a
// single bad (or good) probe observation changes nothing; the second one
// flips the member.
func TestProbeHysteresis(t *testing.T) {
	ns, ps := probePool(2)
	d := New(Config{Name: "nd", Nodes: ns},
		WithHealthPolicy(HealthPolicy{FailThreshold: 2, ReadmitThreshold: 2}))

	ps[0].ready.Store(false)
	if got := d.CheckNow(); got != 2 {
		t.Fatalf("after 1 bad observation: healthy = %d, want 2 (threshold not reached)", got)
	}
	if got := d.CheckNow(); got != 1 {
		t.Fatalf("after 2 bad observations: healthy = %d, want 1", got)
	}

	ps[0].ready.Store(true)
	if got := d.CheckNow(); got != 1 {
		t.Fatalf("after 1 good observation: healthy = %d, want 1 (threshold not reached)", got)
	}
	if got := d.CheckNow(); got != 2 {
		t.Fatalf("after 2 good observations: healthy = %d, want 2", got)
	}
	if st, _ := d.MemberState("up0"); st != StateUp {
		t.Fatalf("state = %s, want up (RampStart 1 skips probation)", st)
	}
}

// TestSlowStartRamp: a readmitted member starts at a fraction of the
// traffic and grows to an even share as good observations multiply the
// ramp.
func TestSlowStartRamp(t *testing.T) {
	ns, ps := probePool(2)
	d := New(Config{Name: "nd", Nodes: ns},
		WithHealthPolicy(HealthPolicy{RampStart: 0.25, RampFactor: 2}))

	ps[1].ready.Store(false)
	d.CheckNow() // evict up1
	ps[1].ready.Store(true)
	d.CheckNow() // readmit into probation at quarter weight
	if st, _ := d.MemberState("up1"); st != StateProbation {
		t.Fatalf("state = %s, want probation", st)
	}

	base := ps[1].served.Load()
	for i := 0; i < 100; i++ {
		if _, _, err := d.Serve("/p"); err != nil {
			t.Fatal(err)
		}
	}
	ramped := ps[1].served.Load() - base
	// At a quarter weight the probationary member is eligible for roughly
	// one pick in four; it must take some traffic but well under half.
	if ramped == 0 || ramped > 40 {
		t.Fatalf("probationary member served %d of 100, want (0, 40]", ramped)
	}

	// Two more good observations: 0.25 -> 0.5 -> 1.0, back to full weight.
	d.CheckNow()
	d.CheckNow()
	if st, _ := d.MemberState("up1"); st != StateUp {
		t.Fatalf("state = %s, want up after the ramp completes", st)
	}
	base0, base1 := ps[0].served.Load(), ps[1].served.Load()
	for i := 0; i < 100; i++ {
		if _, _, err := d.Serve("/p"); err != nil {
			t.Fatal(err)
		}
	}
	if got := ps[1].served.Load() - base1; got != 50 {
		t.Fatalf("restored member served %d of 100, want 50 (even split)", got)
	}
	if got := ps[0].served.Load() - base0; got != 50 {
		t.Fatalf("up member served %d of 100, want 50", got)
	}
}

// TestFlapQuarantineGrows: each re-eviction inside the flap window earns an
// exponentially longer quarantine (good observations ignored before
// readmission may begin), capped at QuarantineMax.
func TestFlapQuarantineGrows(t *testing.T) {
	ns, _ := probePool(2)
	d := New(Config{Name: "nd", Nodes: ns},
		WithHealthPolicy(HealthPolicy{FlapWindow: 16, QuarantineBase: 2, QuarantineMax: 8}))

	sweepsToReadmit := func() int {
		for i := 1; i <= 64; i++ {
			d.MarkUp("up0")
			if st, _ := d.MemberState("up0"); st == StateUp {
				return i
			}
		}
		t.Fatal("up0 never readmitted")
		return 0
	}

	// First eviction: no readmission history, no flap, instant readmit.
	d.MarkDown("up0")
	if got := sweepsToReadmit(); got != 1 {
		t.Fatalf("first readmission took %d observations, want 1", got)
	}

	// Flap cycles: quarantine 2, then 4, then 8, then capped at 8.
	wantQ := []int{2, 4, 8, 8}
	for i, q := range wantQ {
		d.MarkDown("up0")
		st := d.Stats()
		if got := st.Nodes[0].Quarantine; got != q {
			t.Fatalf("flap %d: quarantine = %d, want %d", i+1, got, q)
		}
		if got := sweepsToReadmit(); got != q+1 {
			t.Fatalf("flap %d: readmission took %d observations, want %d", i+1, got, q+1)
		}
	}
	if got := d.Stats().Flaps; got != int64(len(wantQ)) {
		t.Fatalf("flaps counter = %d, want %d", got, len(wantQ))
	}
}

// TestFlapForgiveness: a clean run past the flap window clears the flap
// history, so the next eviction is treated as a first failure again.
func TestFlapForgiveness(t *testing.T) {
	ns, _ := probePool(1)
	d := New(Config{Name: "nd", Nodes: ns},
		WithHealthPolicy(HealthPolicy{FlapWindow: 3, QuarantineBase: 2, QuarantineMax: 8}))

	d.MarkDown("up0")
	d.MarkUp("up0") // readmitted, readmits=1
	d.MarkDown("up0")
	if got := d.Stats().Nodes[0].Flaps; got != 1 {
		t.Fatalf("flaps = %d, want 1 (re-eviction inside the window)", got)
	}
	// Work through the quarantine and readmit, then survive past the window.
	for i := 0; i < 3; i++ {
		d.MarkUp("up0")
	}
	if st, _ := d.MemberState("up0"); st != StateUp {
		t.Fatal("up0 not readmitted after quarantine")
	}
	for i := 0; i < 4; i++ { // goodRun grows past FlapWindow=3
		d.MarkUp("up0")
	}
	if got := d.Stats().Nodes[0].Flaps; got != 0 {
		t.Fatalf("flaps = %d, want 0 (clean run forgives)", got)
	}
	d.MarkDown("up0")
	if got := d.Stats().Nodes[0].Quarantine; got != 0 {
		t.Fatalf("quarantine = %d, want 0 (forgiven history, not a flap)", got)
	}
}

// TestNoBlackHoleAllProbation: a pool whose only members are probationary
// must still serve every request — the credit gate yields rather than
// black-holing.
func TestNoBlackHoleAllProbation(t *testing.T) {
	ns, ps := probePool(1)
	d := New(Config{Name: "nd", Nodes: ns},
		WithHealthPolicy(HealthPolicy{RampStart: 0.25, RampFactor: 2}))
	ps[0].ready.Store(false)
	d.CheckNow()
	ps[0].ready.Store(true)
	d.CheckNow()
	if st, _ := d.MemberState("up0"); st != StateProbation {
		t.Fatalf("state = %s, want probation", st)
	}
	for i := 0; i < 20; i++ {
		if _, _, err := d.Serve("/p"); err != nil {
			t.Fatalf("serve %d: %v (sole probationary member must not black-hole)", i, err)
		}
	}
}

// TestStateChangeHook: transitions are delivered with their cause, outside
// the dispatcher's lock (the hook may call back in).
func TestStateChangeHook(t *testing.T) {
	ns, ps := probePool(2)
	var mu sync.Mutex
	var got []StateChange
	var d *Dispatcher
	d = New(Config{Name: "nd", Nodes: ns},
		WithStateChange(func(ch StateChange) {
			d.HealthyCount() // re-entrancy: must not deadlock
			mu.Lock()
			got = append(got, ch)
			mu.Unlock()
		}))

	d.MarkDown("up0")
	d.MarkUp("up0")
	ps[1].ready.Store(false)
	// Two serves: the round-robin cursor reaches up1 on the second, which
	// dies mid-request and is pulled with cause serve_failure.
	for i := 0; i < 2; i++ {
		if _, _, err := d.Serve("/p"); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("changes = %d, want 3: %+v", len(got), got)
	}
	if got[0].Node != "up0" || got[0].To != StateDown || got[0].Cause != "advisor" {
		t.Fatalf("change 0 = %+v, want up0 -> down by advisor", got[0])
	}
	if got[1].Node != "up0" || got[1].From != StateDown || got[1].Cause != "advisor" {
		t.Fatalf("change 1 = %+v, want up0 readmitted by advisor", got[1])
	}
	if got[2].Node != "up1" || got[2].To != StateDown || got[2].Cause != "serve_failure" {
		t.Fatalf("change 2 = %+v, want up1 -> down by serve_failure", got[2])
	}
}

// TestProbationMachineRace hammers every mutating entry point of the
// dispatcher concurrently — serves, synchronous advisor sweeps, explicit
// mark-down/up, pool membership churn, stats reads — under a running
// background advisor loop and nodes that flip health the whole time. It
// asserts nothing beyond "no crash, no deadlock, serves complete": its
// value is under -race.
func TestProbationMachineRace(t *testing.T) {
	ns, ps := probePool(4)
	var d *Dispatcher
	d = New(Config{Name: "nd", Nodes: ns, ProbeInterval: 100 * time.Microsecond},
		WithHealthPolicy(HealthPolicy{
			FailThreshold: 2, ReadmitThreshold: 2,
			RampStart: 0.25, RampFactor: 2,
			FlapWindow: 4, QuarantineBase: 2, QuarantineMax: 8,
		}),
		WithStateChange(func(ch StateChange) { _ = d.HealthyCount() }))
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	worker := func(fn func(r *rand.Rand)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(len(ps))))
			for {
				select {
				case <-stop:
					return
				default:
					fn(r)
				}
			}
		}()
	}

	for i := 0; i < 4; i++ {
		worker(func(r *rand.Rand) { _, _, _ = d.Serve("/p") })
	}
	worker(func(r *rand.Rand) { d.CheckNow() })
	worker(func(r *rand.Rand) { ps[r.Intn(len(ps))].ready.Store(r.Intn(3) != 0) })
	worker(func(r *rand.Rand) {
		name := ps[r.Intn(len(ps))].name
		if r.Intn(2) == 0 {
			d.MarkDown(name)
		} else {
			d.MarkUp(name)
		}
	})
	worker(func(r *rand.Rand) {
		extra := newProbeNode("extra")
		d.Add(extra)
		_, _, _ = d.Serve("/p")
		d.Remove("extra")
	})
	worker(func(r *rand.Rand) {
		_ = d.Stats()
		_ = d.LoadSignal()
		_, _ = d.MemberState("up0")
		_ = d.Healthy()
	})

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Leave every node healthy and verify the pool still serves.
	for _, p := range ps {
		p.ready.Store(true)
	}
	for i := 0; i < 8; i++ {
		d.CheckNow()
	}
	if _, _, err := d.Serve("/final"); err != nil {
		t.Fatalf("pool unserviceable after the storm: %v", err)
	}
}

// TestServeFailureReadmittedByBackgroundLoop: one failed serve evicts a
// node at once, and only an advisor sweep can put it back. With
// Config.ProbeInterval set, Start's background loop readmits it as soon as
// its probe reports healthy again, with no CheckNow from the caller.
func TestServeFailureReadmittedByBackgroundLoop(t *testing.T) {
	ns, ps := probePool(2)
	d := New(Config{Name: "nd", Nodes: ns, ProbeInterval: 2 * time.Millisecond})
	ps[0].ready.Store(false)
	for i := 0; i < 4; i++ {
		if _, _, err := d.Serve("/p"); err != nil {
			t.Fatalf("serve %d: %v", i, err)
		}
	}
	if d.HealthyCount() != 1 || d.Stats().Evictions != 1 {
		t.Fatalf("healthy=%d evictions=%d after a failed serve, want 1 and 1",
			d.HealthyCount(), d.Stats().Evictions)
	}

	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	ps[0].ready.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for d.HealthyCount() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("background advisor never readmitted the recovered node")
		}
		time.Sleep(time.Millisecond)
	}
	before := ps[0].served.Load()
	for i := 0; i < 4; i++ {
		if _, _, err := d.Serve("/p"); err != nil {
			t.Fatal(err)
		}
	}
	if ps[0].served.Load() == before {
		t.Fatal("readmitted node receives no traffic")
	}
}
