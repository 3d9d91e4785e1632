package routing

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"dupserve/internal/cache"
	"dupserve/internal/httpserver"
	"dupserve/internal/overload"
)

// shedComplex is a backend that can be put into overload-shedding mode.
type shedComplex struct {
	name     string
	shedding atomic.Bool
	served   atomic.Int64
}

func (s *shedComplex) Name() string { return s.name }
func (s *shedComplex) Serve(path string) (*cache.Object, httpserver.Outcome, error) {
	if s.shedding.Load() {
		return nil, httpserver.OutcomeShed,
			fmt.Errorf("%w: %q: %w", httpserver.ErrOverloaded, s.name, overload.ErrShed)
	}
	s.served.Add(1)
	return &cache.Object{Key: cache.Key(path), Value: []byte(s.name)}, httpserver.OutcomeHit, nil
}

// pairTopology: two equidistant complexes, each primary for half the twelve
// addresses, so load-shed share arithmetic is exact twelfths.
func pairTopology(t testing.TB) (*Router, *shedComplex, *shedComplex) {
	t.Helper()
	r := NewRouter(NumAddresses)
	a := &shedComplex{name: "a"}
	b := &shedComplex{name: "b"}
	dist := map[Region]int{RegionUS: 0}
	r.AddComplex("a", a, dist)
	r.AddComplex("b", b, dist)
	if err := r.AdvertiseSpread([]string{"a", "b"}, 10, 20); err != nil {
		t.Fatal(err)
	}
	return r, a, b
}

func TestLoadWithdrawalShedsInTwelfths(t *testing.T) {
	r, _, _ := pairTopology(t)
	if got := r.PrimaryShare(RegionUS, "a"); got != 0.5 {
		t.Fatalf("baseline share = %v, want 0.5", got)
	}
	// Each loadShedStep above the threshold withdraws exactly one more
	// address: an 8 1/3 % traffic shift per step.
	for step := 1; step <= 6; step++ {
		load := 1.0 + 0.25*float64(step-1)
		if err := r.SetComplexLoad("a", load); err != nil {
			t.Fatal(err)
		}
		want := (6.0 - float64(step)) / 12.0
		if got := r.PrimaryShare(RegionUS, "a"); math.Abs(got-want) > 1e-9 {
			t.Fatalf("share at load %.2f = %v, want %v", load, got, want)
		}
		if got := len(r.LoadShedAddrs("a")); got != step {
			t.Fatalf("withdrawn addrs at load %.2f = %d, want %d", load, got, step)
		}
	}
	// Load subsiding re-advertises: the cascade is reversible.
	if err := r.SetComplexLoad("a", 0.3); err != nil {
		t.Fatal(err)
	}
	if got := r.PrimaryShare(RegionUS, "a"); got != 0.5 {
		t.Fatalf("share after recovery = %v, want 0.5", got)
	}
	if got := len(r.LoadShedAddrs("a")); got != 0 {
		t.Fatalf("withdrawn addrs after recovery = %d, want 0", got)
	}
}

func TestLoadWithdrawalTakesPrimariesFirst(t *testing.T) {
	r, _, _ := pairTopology(t)
	if err := r.SetComplexLoad("a", 1.0); err != nil {
		t.Fatal(err)
	}
	shed := r.LoadShedAddrs("a")
	if len(shed) != 1 {
		t.Fatalf("withdrawn = %v, want exactly one address", shed)
	}
	// Complex a is primary (cost 10) for even addresses; the first
	// withdrawal must be its cheapest advertised address, 0.
	if shed[0] != 0 {
		t.Fatalf("withdrew %v, want primary address 0 first", shed[0])
	}
	// The withdrawn address still routes — via b.
	if order := r.Route(RegionUS, 0); len(order) == 0 || order[0] != "b" {
		t.Fatalf("route for withdrawn addr = %v, want b first", order)
	}
}

func TestLoadShedDeterministic(t *testing.T) {
	mk := func() []Address {
		r, _, _ := pairTopology(t)
		r.SetComplexLoad("a", 1.6)
		return r.LoadShedAddrs("a")
	}
	x, y := mk(), mk()
	if len(x) != len(y) {
		t.Fatalf("withdrawals differ: %v vs %v", x, y)
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("withdrawals differ: %v vs %v", x, y)
		}
	}
}

func TestLoadShedNoBlackHole(t *testing.T) {
	r, a, b := pairTopology(t)
	// Both complexes drowning: every address nominally withdrawn everywhere.
	r.SetComplexLoad("a", 100)
	r.SetComplexLoad("b", 100)
	for addr := 0; addr < NumAddresses; addr++ {
		if order := r.Route(RegionUS, Address(addr)); len(order) == 0 {
			t.Fatalf("address %d black-holed by load shedding", addr)
		}
	}
	// Requests still land somewhere.
	if _, _, _, err := r.RequestVia(RegionUS, 0, "/p"); err != nil {
		t.Fatalf("request under total load shed: %v", err)
	}
	if a.served.Load()+b.served.Load() == 0 {
		t.Fatal("no complex served under total load shed")
	}
}

func TestShedRerouteKeepsComplexUp(t *testing.T) {
	r, a, b := pairTopology(t)
	a.shedding.Store(true)
	// Address 0 is a's primary; the request must fail over to b without
	// marking a down.
	obj, outcome, name, err := r.RequestVia(RegionUS, 0, "/p")
	if err != nil || outcome != httpserver.OutcomeHit {
		t.Fatalf("RequestVia = %v %v %v", outcome, name, err)
	}
	if string(obj.Value) != "b" {
		t.Fatalf("served by %q, want b", obj.Value)
	}
	// The shedding complex must still be routable: its surge will clear.
	a.shedding.Store(false)
	if obj, _, _, err := r.RequestVia(RegionUS, 0, "/p"); err != nil || string(obj.Value) != "a" {
		t.Fatalf("complex did not recover: %v %v", obj, err)
	}
	if b.served.Load() != 1 {
		t.Fatalf("b served %d, want 1", b.served.Load())
	}
}

func TestAllComplexesSheddingReturnsShed(t *testing.T) {
	r, a, b := pairTopology(t)
	a.shedding.Store(true)
	b.shedding.Store(true)
	_, outcome, _, err := r.RequestVia(RegionUS, 0, "/p")
	if outcome != httpserver.OutcomeShed || err == nil {
		t.Fatalf("RequestVia = %v %v, want shed", outcome, err)
	}
	// Neither complex was marked down: both recover without intervention.
	a.shedding.Store(false)
	b.shedding.Store(false)
	if _, _, _, err := r.RequestVia(RegionUS, 1, "/p"); err != nil {
		t.Fatalf("request after surge: %v", err)
	}
}

func TestComplexDownDrainsCompletely(t *testing.T) {
	// SetComplexUp(false) must drain a complex entirely — every address,
	// every region — with traffic flowing to survivors and no region
	// black-holed. This is the server -> frame -> ND -> complex cascade's
	// final stage.
	r, stubs := paperTopology(t)
	r.SetComplexUp("tokyo", false)
	regions := []Region{RegionUS, RegionJapan, RegionEurope, RegionAsia, RegionOther}
	for _, reg := range regions {
		for addr := 0; addr < NumAddresses; addr++ {
			order := r.Route(reg, Address(addr))
			if len(order) == 0 {
				t.Fatalf("region %s addr %d black-holed after complex loss", reg, addr)
			}
			for _, name := range order {
				if name == "tokyo" {
					t.Fatalf("downed complex still routed for %s/%d", reg, addr)
				}
			}
			if _, _, _, err := r.RequestVia(reg, Address(addr), "/p"); err != nil {
				t.Fatalf("request %s/%d failed after complex loss: %v", reg, addr, err)
			}
		}
	}
	if got := stubs["tokyo"].served.Load(); got != 0 {
		t.Fatalf("downed complex served %d requests, want 0", got)
	}
	if got := r.PrimaryShare(RegionJapan, "tokyo"); got != 0 {
		t.Fatalf("downed complex primary share = %v, want 0", got)
	}
}
