package routing

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"dupserve/internal/cache"
	"dupserve/internal/httpserver"
)

// stubComplex counts requests and can be failed.
type stubComplex struct {
	name    string
	served  atomic.Int64
	failing atomic.Bool
}

func (s *stubComplex) Name() string { return s.name }
func (s *stubComplex) Serve(path string) (*cache.Object, httpserver.Outcome, error) {
	if s.failing.Load() {
		return nil, httpserver.OutcomeError, errors.New("complex offline")
	}
	s.served.Add(1)
	return &cache.Object{Key: cache.Key(path), Value: []byte(s.name)}, httpserver.OutcomeHit, nil
}

// paperTopology builds the four-complex layout: Tokyo near Japan/Asia, the
// three US sites near the US, Europe split toward the US east coast.
func paperTopology(t testing.TB) (*Router, map[string]*stubComplex) {
	t.Helper()
	r := NewRouter(NumAddresses)
	// Backbone distances dominate the primary/secondary cost spread
	// (10 vs 20), so clients reach their nearest complex and the
	// primary-address ownership only splits traffic among equidistant
	// complexes — the paper's behaviour.
	sites := map[string]map[Region]int{
		"tokyo":      {RegionJapan: 10, RegionAsia: 20, RegionUS: 80, RegionEurope: 90, RegionOther: 60},
		"schaumburg": {RegionUS: 10, RegionEurope: 50, RegionJapan: 80, RegionAsia: 70, RegionOther: 50},
		"columbus":   {RegionUS: 10, RegionEurope: 50, RegionJapan: 90, RegionAsia: 80, RegionOther: 50},
		"bethesda":   {RegionUS: 10, RegionEurope: 50, RegionJapan: 90, RegionAsia: 80, RegionOther: 50},
	}
	stubs := make(map[string]*stubComplex)
	for name, dist := range sites {
		s := &stubComplex{name: name}
		stubs[name] = s
		r.AddComplex(name, s, dist)
	}
	order := []string{"tokyo", "schaumburg", "columbus", "bethesda"}
	if err := r.AdvertiseSpread(order, 10, 20); err != nil {
		t.Fatal(err)
	}
	return r, stubs
}

func TestResolveRoundRobin(t *testing.T) {
	r := NewRouter(3)
	got := []Address{r.Resolve(), r.Resolve(), r.Resolve(), r.Resolve()}
	want := []Address{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Resolve sequence = %v, want %v", got, want)
		}
	}
}

func TestAdvertiseValidation(t *testing.T) {
	r := NewRouter(2)
	if err := r.Advertise("ghost", 0, 1); !errors.Is(err, ErrUnknownComplex) {
		t.Fatalf("err = %v", err)
	}
	r.AddComplex("c", &stubComplex{name: "c"}, nil)
	if err := r.Advertise("c", 5, 1); err == nil {
		t.Fatal("out-of-range address accepted")
	}
	if err := r.Advertise("c", 0, 1); err != nil {
		t.Fatal(err)
	}
	// Re-advertising updates cost instead of duplicating.
	if err := r.Advertise("c", 0, 2); err != nil {
		t.Fatal(err)
	}
	if got := r.Route("x", 0); len(got) != 1 {
		t.Fatalf("Route = %v", got)
	}
}

func TestGeographicRouting(t *testing.T) {
	r, stubs := paperTopology(t)
	// Japanese clients land on Tokyo regardless of address, because the
	// distance term dominates the primary/secondary cost spread.
	for i := 0; i < 120; i++ {
		_, _, complexName, err := r.Request(RegionJapan, "/home")
		if err != nil {
			t.Fatal(err)
		}
		if complexName != "tokyo" {
			t.Fatalf("japan request served by %s", complexName)
		}
	}
	if stubs["tokyo"].served.Load() != 120 {
		t.Fatalf("tokyo served = %d", stubs["tokyo"].served.Load())
	}
}

func TestUSSpreadAcrossUSSites(t *testing.T) {
	r, stubs := paperTopology(t)
	// US clients: Tokyo is far; the three US sites share traffic by
	// primary address ownership (Tokyo's primaries fall to US secondaries).
	for i := 0; i < 1200; i++ {
		_, _, _, err := r.Request(RegionUS, "/home")
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := stubs["tokyo"].served.Load(); got != 0 {
		t.Fatalf("tokyo served %d US requests", got)
	}
	total := int64(0)
	for _, name := range []string{"schaumburg", "columbus", "bethesda"} {
		n := stubs[name].served.Load()
		if n == 0 {
			t.Fatalf("%s received no US traffic", name)
		}
		total += n
	}
	if total != 1200 {
		t.Fatalf("US total = %d", total)
	}
}

func TestTrafficShiftGranularity(t *testing.T) {
	// Moving one address's primary from schaumburg to columbus shifts
	// 1/12 = 8.33% of the traffic that schaumburg owned.
	r, _ := paperTopology(t)
	before := r.PrimaryShare(RegionUS, "schaumburg")
	// schaumburg is primary (cost 10) for addresses 1, 5, 9 under the
	// spread; bump address 1 to cost 30 so columbus's secondary wins.
	if err := r.Advertise("schaumburg", 1, 30); err != nil {
		t.Fatal(err)
	}
	after := r.PrimaryShare(RegionUS, "schaumburg")
	shift := before - after
	if math.Abs(shift-1.0/12) > 1e-9 {
		t.Fatalf("shift = %v, want 1/12", shift)
	}
}

func TestComplexFailureReroutes(t *testing.T) {
	r, stubs := paperTopology(t)
	stubs["tokyo"].failing.Store(true)
	// Japanese clients must still be served — by a US site.
	for i := 0; i < 48; i++ {
		_, _, complexName, err := r.Request(RegionJapan, "/home")
		if err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
		if complexName == "tokyo" {
			t.Fatal("served by failed complex")
		}
	}
}

func TestComplexRecovery(t *testing.T) {
	r, stubs := paperTopology(t)
	stubs["tokyo"].failing.Store(true)
	if _, _, _, err := r.Request(RegionJapan, "/p"); err != nil {
		t.Fatal(err)
	}
	// Recover and re-enable.
	stubs["tokyo"].failing.Store(false)
	r.SetComplexUp("tokyo", true)
	_, _, complexName, err := r.Request(RegionJapan, "/p")
	if err != nil || complexName != "tokyo" {
		t.Fatalf("after recovery served by %s (err %v)", complexName, err)
	}
}

func TestAllComplexesDown(t *testing.T) {
	r, stubs := paperTopology(t)
	for _, s := range stubs {
		s.failing.Store(true)
	}
	_, _, _, err := r.Request(RegionUS, "/p")
	if err == nil {
		t.Fatal("expected total failure")
	}
}

func TestRouteUnknownAddress(t *testing.T) {
	r, _ := paperTopology(t)
	if got := r.Route(RegionUS, -1); got != nil {
		t.Fatalf("Route(-1) = %v", got)
	}
	if got := r.Route(RegionUS, 99); got != nil {
		t.Fatalf("Route(99) = %v", got)
	}
}

func TestRegionWithoutDistanceIsFarthest(t *testing.T) {
	r := NewRouter(1)
	near := &stubComplex{name: "near"}
	far := &stubComplex{name: "far"}
	r.AddComplex("near", near, map[Region]int{"mars": 1})
	r.AddComplex("far", far, nil) // no distances at all
	if err := r.Advertise("near", 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := r.Advertise("far", 0, 10); err != nil {
		t.Fatal(err)
	}
	if order := r.Route("mars", 0); order[0] != "near" {
		t.Fatalf("order = %v", order)
	}
}

func TestRequestViaDeterministic(t *testing.T) {
	r, stubs := paperTopology(t)
	for i := 0; i < 5; i++ {
		_, _, name, err := r.RequestVia(RegionJapan, 0, "/p")
		if err != nil || name != "tokyo" {
			t.Fatalf("RequestVia = %s, %v", name, err)
		}
	}
	if stubs["tokyo"].served.Load() != 5 {
		t.Fatal("RequestVia did not hit tokyo")
	}
}

func TestNewRouterDefaultAddrs(t *testing.T) {
	r := NewRouter(0)
	if r.NumAddrs() != NumAddresses {
		t.Fatalf("NumAddrs = %d", r.NumAddrs())
	}
}

func BenchmarkRequestRouting(b *testing.B) {
	r, _ := paperTopology(b)
	regions := []Region{RegionUS, RegionJapan, RegionEurope, RegionAsia}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := r.Request(regions[i%len(regions)], "/p"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrimaryShare(b *testing.B) {
	r, _ := paperTopology(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.PrimaryShare(RegionUS, fmt.Sprintf("%s", "schaumburg"))
	}
}
