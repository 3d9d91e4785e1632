package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dupserve/internal/cache"
	"dupserve/internal/odg"
)

// testGen returns a generator that renders "content-for-<key>@<version>"
// and records which keys it was asked for, in order.
func testGen() (Generator, *[]string) {
	var mu sync.Mutex
	var calls []string
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		mu.Lock()
		calls = append(calls, string(key))
		mu.Unlock()
		return &cache.Object{
			Key:     key,
			Value:   []byte(fmt.Sprintf("content-for-%s@%d", key, version)),
			Version: version,
		}, nil
	}
	return gen, &calls
}

func newEngine(t *testing.T, opts ...Option) (*Engine, *cache.Cache) {
	t.Helper()
	c := cache.New("test")
	g := odg.New()
	e := NewEngine(g, c, opts...)
	return e, c
}

func TestUpdateInPlaceKeepsPagesCached(t *testing.T) {
	gen, _ := testGen()
	e, c := newEngine(t, WithGenerator(gen))
	e.RegisterObject("/sports/ski", []odg.NodeID{"db:results:ski"})
	c.Put(&cache.Object{Key: "/sports/ski", Value: []byte("old"), Version: 1})

	res := e.OnChange(2, "db:results:ski")
	if res.Affected != 1 || res.Updated != 1 || res.Invalidated != 0 {
		t.Fatalf("result = %+v", res)
	}
	obj, ok := c.Peek("/sports/ski")
	if !ok {
		t.Fatal("page left the cache under update-in-place")
	}
	if string(obj.Value) != "content-for-/sports/ski@2" || obj.Version != 2 {
		t.Fatalf("obj = %q v%d", obj.Value, obj.Version)
	}
	// A subsequent request hits.
	if _, ok := c.Get("/sports/ski"); !ok {
		t.Fatal("miss after update-in-place")
	}
	if c.Stats().HitRate() != 1 {
		t.Fatalf("hit rate = %v, want 1", c.Stats().HitRate())
	}
}

func TestInvalidatePolicyRemoves(t *testing.T) {
	e, c := newEngine(t, WithPolicy(PolicyInvalidate))
	e.RegisterObject("/p", []odg.NodeID{"db:x"})
	c.Put(&cache.Object{Key: "/p", Value: []byte("old")})
	res := e.OnChange(1, "db:x")
	if res.Invalidated != 1 || res.Updated != 0 {
		t.Fatalf("result = %+v", res)
	}
	if present(c.Peek("/p")) {
		t.Fatal("page still cached after invalidate policy")
	}
}

func TestInvalidateAbsentObjectNotCounted(t *testing.T) {
	e, _ := newEngine(t, WithPolicy(PolicyInvalidate))
	e.RegisterObject("/p", []odg.NodeID{"db:x"})
	res := e.OnChange(1, "db:x")
	if res.Affected != 1 || res.Invalidated != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestConservativePolicy(t *testing.T) {
	mapper := func(id odg.NodeID) []string {
		// db:results:ski:* -> all ski pages in both languages
		if strings.HasPrefix(string(id), "db:results:ski") {
			return []string{"/en/ski", "/ja/ski"}
		}
		return nil
	}
	e, c := newEngine(t, WithPolicy(PolicyConservative), WithConservativeMapper(mapper))
	for _, k := range []string{"/en/ski/e1", "/en/ski/e2", "/ja/ski/e1", "/en/skate/e1"} {
		c.Put(&cache.Object{Key: cache.Key(k), Value: []byte("x")})
	}
	res := e.OnChange(1, "db:results:ski:e1")
	if res.Invalidated != 3 {
		t.Fatalf("invalidated = %d, want 3 (all ski pages)", res.Invalidated)
	}
	if !present(c.Peek("/en/skate/e1")) {
		t.Fatal("conservative policy dropped an unrelated page")
	}
	// The point of the 1996 baseline: it drops far more than necessary —
	// e2 pages were untouched by the change yet got invalidated.
	if present(c.Peek("/en/ski/e2")) {
		t.Fatal("expected over-invalidation of /en/ski/e2")
	}
}

func TestConservativeWithoutMapperErrors(t *testing.T) {
	e, _ := newEngine(t, WithPolicy(PolicyConservative))
	res := e.OnChange(1, "db:x")
	if len(res.Errors) == 0 {
		t.Fatal("expected configuration error")
	}
}

func TestUpdateInPlaceWithoutGeneratorDegradesToInvalidate(t *testing.T) {
	e, c := newEngine(t)
	e.RegisterObject("/p", []odg.NodeID{"db:x"})
	c.Put(&cache.Object{Key: "/p", Value: []byte("old")})
	res := e.OnChange(1, "db:x")
	if !errors.Is(res.Errors[0], ErrNoGenerator) {
		t.Fatalf("errors = %v", res.Errors)
	}
	if present(c.Peek("/p")) {
		t.Fatal("stale page left in cache with no generator")
	}
}

func TestGeneratorFailureInvalidates(t *testing.T) {
	boom := errors.New("render failed")
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		if key == "/bad" {
			return nil, boom
		}
		return &cache.Object{Key: key, Value: []byte("ok"), Version: version}, nil
	}
	e, c := newEngine(t, WithGenerator(gen))
	e.RegisterObject("/bad", []odg.NodeID{"db:x"})
	e.RegisterObject("/good", []odg.NodeID{"db:x"})
	c.Put(&cache.Object{Key: "/bad", Value: []byte("stale")})
	c.Put(&cache.Object{Key: "/good", Value: []byte("stale")})

	res := e.OnChange(1, "db:x")
	if res.Updated != 1 || res.Invalidated != 1 || len(res.Errors) != 1 {
		t.Fatalf("result = %+v", res)
	}
	if present(c.Peek("/bad")) {
		t.Fatal("known-stale page served after generator failure")
	}
	if obj, _ := c.Peek("/good"); string(obj.Value) != "ok" {
		t.Fatal("good page not regenerated")
	}
	if e.Stats().GenErrors != 1 {
		t.Fatalf("GenErrors = %d", e.Stats().GenErrors)
	}
}

func TestFragmentOrdering(t *testing.T) {
	// medal fragment depends on results; home page embeds the fragment.
	gen, calls := testGen()
	e, _ := newEngine(t, WithGenerator(gen))
	e.RegisterFragment("frag:medals", []odg.NodeID{"db:results:ski"})
	e.RegisterObject("/home", []odg.NodeID{"frag:medals"})

	res := e.OnChange(1, "db:results:ski")
	if res.Updated != 2 {
		t.Fatalf("result = %+v", res)
	}
	if len(*calls) != 2 || (*calls)[0] != "frag:medals" || (*calls)[1] != "/home" {
		t.Fatalf("generation order = %v, want fragment before page", *calls)
	}
}

func TestTransitivePropagationMatchesPaperExample(t *testing.T) {
	// "one typical update to Cross Country Skiing results affected the
	// values of 128 Web pages" — fan-out through shared fragments.
	gen, _ := testGen()
	e, c := newEngine(t, WithGenerator(gen))
	e.RegisterFragment("frag:cc-results", []odg.NodeID{"db:results:cc:ev1"})
	for i := 0; i < 128; i++ {
		e.RegisterObject(cache.Key(fmt.Sprintf("/page%d", i)), []odg.NodeID{"frag:cc-results"})
	}
	res := e.OnChange(1, "db:results:cc:ev1")
	if res.Affected != 129 { // 128 pages + the fragment itself
		t.Fatalf("affected = %d, want 129", res.Affected)
	}
	if c.Len() != 129 {
		t.Fatalf("cache entries = %d", c.Len())
	}
}

func TestRegisterObjectReplacesDeps(t *testing.T) {
	gen, _ := testGen()
	e, c := newEngine(t, WithGenerator(gen))
	e.RegisterObject("/p", []odg.NodeID{"db:a"})
	e.RegisterObject("/p", []odg.NodeID{"db:b"})
	res := e.OnChange(1, "db:a")
	if res.Affected != 0 {
		t.Fatalf("stale dependency still active: %+v", res)
	}
	res = e.OnChange(2, "db:b")
	if res.Affected != 1 {
		t.Fatalf("new dependency inactive: %+v", res)
	}
	_ = c
}

func TestOnChangeEmpty(t *testing.T) {
	gen, _ := testGen()
	e, _ := newEngine(t, WithGenerator(gen))
	res := e.OnChange(1)
	if res.Affected != 0 || res.Updated != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestWeightedThresholdDefersMinorUpdates(t *testing.T) {
	gen, _ := testGen()
	c := cache.New("t")
	g := odg.New()
	e := NewEngine(g, c, WithGenerator(gen), WithStalenessThreshold(3))
	// A page depends weakly (w=1) on a ticker row and strongly (w=5) on
	// the event result row.
	g.AddNode("/p", odg.KindObject)
	if err := g.AddWeightedEdge("db:ticker", "/p", 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddWeightedEdge("db:result", "/p", 5); err != nil {
		t.Fatal(err)
	}
	c.Put(&cache.Object{Key: "/p", Value: []byte("v0")})

	// First two ticker changes accumulate 1+1 < 3: deferred.
	for i := 0; i < 2; i++ {
		res := e.OnChange(int64(i+1), "db:ticker")
		if res.Updated != 0 || res.Deferred != 1 {
			t.Fatalf("tick %d: %+v", i, res)
		}
	}
	if got := pendingStaleness(e, "/p"); got != 2 {
		t.Fatalf("pending staleness = %v, want 2", got)
	}
	// Third ticker change crosses the threshold: regenerate and reset.
	res := e.OnChange(3, "db:ticker")
	if res.Updated != 1 {
		t.Fatalf("threshold crossing: %+v", res)
	}
	if got := pendingStaleness(e, "/p"); got != 0 {
		t.Fatalf("pending staleness after update = %v, want 0", got)
	}
	// A result change (weight 5) crosses immediately.
	res = e.OnChange(4, "db:result")
	if res.Updated != 1 || res.Deferred != 0 {
		t.Fatalf("heavy change: %+v", res)
	}
}

func TestGroupStoreFansOut(t *testing.T) {
	grp := cache.NewGroup()
	for i := 0; i < 8; i++ {
		grp.Add(cache.New(fmt.Sprintf("up%d", i)))
	}
	gen, _ := testGen()
	g := odg.New()
	e := NewEngine(g, grp, WithGenerator(gen))
	e.RegisterObject("/p", []odg.NodeID{"db:x"})
	res := e.OnChange(1, "db:x")
	if res.Updated != 1 {
		t.Fatalf("result = %+v", res)
	}
	for _, c := range grp.Members() {
		if !present(c.Peek("/p")) {
			t.Fatalf("cache %s missed the broadcast", c.Name())
		}
	}
	// Invalidate fan-out counts replicas.
	if n := grp.ApplyInvalidate("/p"); n != 8 {
		t.Fatalf("ApplyInvalidate = %d, want 8", n)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyUpdateInPlace.String() != "update-in-place" ||
		PolicyInvalidate.String() != "invalidate" ||
		PolicyConservative.String() != "conservative" {
		t.Fatal("policy name drift")
	}
}

func TestEngineStatsAccumulate(t *testing.T) {
	gen, _ := testGen()
	e, _ := newEngine(t, WithGenerator(gen))
	e.RegisterObject("/p", []odg.NodeID{"db:x"})
	e.OnChange(1, "db:x")
	e.OnChange(2, "db:x")
	s := e.Stats()
	if s.Propagations != 2 || s.Updated != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestConcurrentPropagationsAndRegistrations(t *testing.T) {
	gen, _ := testGen()
	e, _ := newEngine(t, WithGenerator(gen))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := cache.Key(fmt.Sprintf("/p%d-%d", w, i%10))
				e.RegisterObject(key, []odg.NodeID{odg.NodeID(fmt.Sprintf("db:x%d", i%5))})
				e.OnChange(int64(i), odg.NodeID(fmt.Sprintf("db:x%d", i%5)))
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkOnChangeUpdateInPlace(b *testing.B) {
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return &cache.Object{Key: key, Value: make([]byte, 4096), Version: version}, nil
	}
	c := cache.New("b")
	g := odg.New()
	e := NewEngine(g, c, WithGenerator(gen))
	for i := 0; i < 100; i++ {
		e.RegisterObject(cache.Key(fmt.Sprintf("/p%d", i)), []odg.NodeID{"db:hot"})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.OnChange(int64(i), "db:hot")
	}
}

func BenchmarkOnChangeInvalidate(b *testing.B) {
	c := cache.New("b")
	g := odg.New()
	e := NewEngine(g, c, WithPolicy(PolicyInvalidate))
	for i := 0; i < 100; i++ {
		e.RegisterObject(cache.Key(fmt.Sprintf("/p%d", i)), []odg.NodeID{"db:hot"})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.OnChange(int64(i), "db:hot")
	}
}

func TestHybridPolicyHotVsCold(t *testing.T) {
	gen, _ := testGen()
	c := cache.New("t")
	g := odg.New()
	hot := func(key cache.Key) bool { return c.HitCount(key) >= 3 }
	e := NewEngine(g, c, WithGenerator(gen),
		WithPolicy(PolicyHybrid), WithHotOracle(hot))
	e.RegisterObject("/hot", []odg.NodeID{"db:x"})
	e.RegisterObject("/cold", []odg.NodeID{"db:x"})
	c.Put(&cache.Object{Key: "/hot", Value: []byte("v0")})
	c.Put(&cache.Object{Key: "/cold", Value: []byte("v0")})
	for i := 0; i < 5; i++ {
		c.Get("/hot") // make it hot
	}

	res := e.OnChange(1, "db:x")
	if res.Updated != 1 || res.Invalidated != 1 {
		t.Fatalf("result = %+v", res)
	}
	if !present(c.Peek("/hot")) {
		t.Fatal("hot page was invalidated")
	}
	if present(c.Peek("/cold")) {
		t.Fatal("cold page was regenerated eagerly")
	}
	obj, _ := c.Peek("/hot")
	if string(obj.Value) != "content-for-/hot@1" {
		t.Fatalf("hot page = %q", obj.Value)
	}
}

func TestHybridFragmentsAlwaysRegenerated(t *testing.T) {
	gen, calls := testGen()
	c := cache.New("t")
	g := odg.New()
	cold := func(cache.Key) bool { return false } // everything is cold
	e := NewEngine(g, c, WithGenerator(gen),
		WithPolicy(PolicyHybrid), WithHotOracle(cold))
	e.RegisterFragment("frag:m", []odg.NodeID{"db:x"})
	e.RegisterObject("/p", []odg.NodeID{"frag:m"})
	c.Put(&cache.Object{Key: "/p", Value: []byte("v0")})

	res := e.OnChange(1, "db:x")
	// Fragment regenerated despite being "cold"; page invalidated.
	if res.Updated != 1 || res.Invalidated != 1 {
		t.Fatalf("result = %+v", res)
	}
	if len(*calls) != 1 || (*calls)[0] != "frag:m" {
		t.Fatalf("calls = %v", *calls)
	}
}

func TestHybridWithoutOracleEqualsUpdateInPlace(t *testing.T) {
	gen, _ := testGen()
	c := cache.New("t")
	g := odg.New()
	e := NewEngine(g, c, WithGenerator(gen), WithPolicy(PolicyHybrid))
	e.RegisterObject("/p", []odg.NodeID{"db:x"})
	res := e.OnChange(1, "db:x")
	if res.Updated != 1 || res.Invalidated != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestHitCountSemantics(t *testing.T) {
	c := cache.New("t")
	c.Put(&cache.Object{Key: "/p", Value: []byte("x")})
	if c.HitCount("/p") != 0 {
		t.Fatal("fresh entry has hits")
	}
	c.Get("/p")
	c.Get("/p")
	if c.HitCount("/p") != 2 {
		t.Fatalf("HitCount = %d", c.HitCount("/p"))
	}
	// Update-in-place preserves the popularity signal.
	c.Put(&cache.Object{Key: "/p", Value: []byte("y")})
	if c.HitCount("/p") != 2 {
		t.Fatal("Put reset hit count")
	}
	// Invalidation resets it.
	c.Invalidate("/p")
	c.Put(&cache.Object{Key: "/p", Value: []byte("z")})
	if c.HitCount("/p") != 0 {
		t.Fatal("Invalidate did not reset hit count")
	}
	if c.HitCount("/absent") != 0 {
		t.Fatal("absent key has hits")
	}
}

// TestTraceEvents checks the per-object remedy decisions of one
// update-in-place propagation: a page that renders is updated in the cache
// at the batch version, and a page whose generator fails is reported as an
// error and invalidated, never left stale.
func TestTraceEvents(t *testing.T) {
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		if key == "/bad" {
			return nil, errors.New("render exploded")
		}
		return &cache.Object{Key: key, Value: []byte("x"), Version: version}, nil
	}
	c := cache.New("t")
	c.Put(&cache.Object{Key: "/bad", Value: []byte("old")})
	g := odg.New()
	e := NewEngine(g, c, WithGenerator(gen))
	e.RegisterObject("/ok", []odg.NodeID{"db:x"})
	e.RegisterObject("/bad", []odg.NodeID{"db:x"})
	res := e.OnChange(7, "db:x")

	if res.Updated != 1 || res.Invalidated != 1 {
		t.Fatalf("updated=%d invalidated=%d, want 1 and 1", res.Updated, res.Invalidated)
	}
	if len(res.Errors) != 1 || !strings.Contains(res.Errors[0].Error(), "exploded") ||
		!strings.Contains(res.Errors[0].Error(), "/bad") {
		t.Fatalf("errors = %v", res.Errors)
	}
	if obj, ok := c.Peek("/ok"); !ok || obj.Version != 7 {
		t.Fatalf("/ok = %+v, %v; want version 7 cached", obj, ok)
	}
	if present(c.Peek("/bad")) {
		t.Fatal("/bad still cached after its render failed")
	}
}

// TestTraceInvalidateAndDefer checks the other two remedy decisions: the
// invalidate policy drops an affected page, and under a weighted staleness
// threshold a page below the threshold is deferred and left as it is.
func TestTraceInvalidateAndDefer(t *testing.T) {
	c := cache.New("t")
	c.Put(&cache.Object{Key: "/p", Value: []byte("old")})
	g := odg.New()
	e := NewEngine(g, c, WithPolicy(PolicyInvalidate))
	e.RegisterObject("/p", []odg.NodeID{"db:x"})
	res := e.OnChange(1, "db:x")
	if res.Invalidated != 1 || res.Updated != 0 || present(c.Peek("/p")) {
		t.Fatalf("invalidate: %+v, cached=%v", res, present(c.Peek("/p")))
	}

	gen, calls := testGen()
	g2 := odg.New()
	e2 := NewEngine(g2, c, WithGenerator(gen), WithStalenessThreshold(10))
	g2.AddNode("/q", odg.KindObject)
	if err := g2.AddWeightedEdge("db:t", "/q", 1); err != nil {
		t.Fatal(err)
	}
	c.Put(&cache.Object{Key: "/q", Value: []byte("old")})
	res = e2.OnChange(1, "db:t")
	if res.Deferred != 1 || res.Updated != 0 || res.Invalidated != 0 || len(*calls) != 0 {
		t.Fatalf("defer: %+v, renders=%v", res, *calls)
	}
	if obj, ok := c.Peek("/q"); !ok || string(obj.Value) != "old" {
		t.Fatalf("deferred page changed: %+v, %v", obj, ok)
	}
}

// present reports the ok of a cache Peek: whether the key is cached.
func present(_ *cache.Object, ok bool) bool { return ok }

// pendingStaleness returns the below-threshold staleness e has accumulated
// for key.
func pendingStaleness(e *Engine, key cache.Key) float64 {
	e.staleMu.Lock()
	defer e.staleMu.Unlock()
	return e.staleAcc[key]
}
