package httpserver

import (
	"errors"
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/overload"
	"dupserve/internal/stats"
)

// saturate fills every render slot of lim, returning a func that frees them.
func saturate(t *testing.T, lim *overload.Limiter, n int) func() {
	t.Helper()
	releases := make([]func(), 0, n)
	for i := 0; i < n; i++ {
		r, err := lim.Acquire()
		if err != nil {
			t.Fatalf("saturating acquire %d: %v", i, err)
		}
		releases = append(releases, r)
	}
	return func() {
		for _, r := range releases {
			r()
		}
	}
}

func TestOverloadHitsAlwaysAdmitted(t *testing.T) {
	c := cache.New("c", cache.WithStaleRetention())
	c.Put(&cache.Object{Key: "/hot", Value: []byte("fresh")})
	lim := overload.NewLimiter(overload.Config{MaxConcurrent: 1, MaxQueue: -1})
	s := New("n", c, okGen("x"), nil, WithOverload(lim, time.Second))

	free := saturate(t, lim, 1)
	defer free()
	// Every slot is busy, yet hits must not touch the limiter at all.
	for i := 0; i < 50; i++ {
		_, out, err := s.Serve("/hot")
		if err != nil || out != OutcomeHit {
			t.Fatalf("request %d under saturation: %v %v", i, out, err)
		}
	}
	if st := s.Stats(); st.Shed != 0 || st.ServedStale != 0 {
		t.Fatalf("hits consumed overload machinery: %+v", st)
	}
}

func TestOverloadShedFallsBackToStale(t *testing.T) {
	c := cache.New("c", cache.WithStaleRetention())
	c.Put(&cache.Object{Key: "/p", Value: []byte("old copy"), Version: 1})
	c.Invalidate("/p") // DUP invalidation retains the stale copy
	lim := overload.NewLimiter(overload.Config{MaxConcurrent: 1, MaxQueue: -1})
	s := New("n", c, okGen("x"), nil, WithOverload(lim, time.Minute))

	free := saturate(t, lim, 1)
	defer free()
	obj, out, err := s.Serve("/p")
	if err != nil || out != OutcomeStale {
		t.Fatalf("Serve = %v %v, want stale", out, err)
	}
	if string(obj.Value) != "old copy" {
		t.Fatalf("stale body = %q", obj.Value)
	}
	st := s.Stats()
	if st.ServedStale != 1 || st.Shed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.StaleAgeMax > time.Minute {
		t.Fatalf("served beyond the freshness budget: %v", st.StaleAgeMax)
	}
}

func TestOverloadShedsWithoutStaleCopy(t *testing.T) {
	c := cache.New("c", cache.WithStaleRetention())
	lim := overload.NewLimiter(overload.Config{MaxConcurrent: 1, MaxQueue: -1})
	s := New("n", c, okGen("x"), nil, WithOverload(lim, time.Minute))

	free := saturate(t, lim, 1)
	defer free()
	_, out, err := s.Serve("/never-seen")
	if out != OutcomeShed {
		t.Fatalf("outcome = %v, want shed", out)
	}
	if !errors.Is(err, ErrOverloaded) || !errors.Is(err, overload.ErrShed) {
		t.Fatalf("err = %v, want ErrOverloaded wrapping overload.ErrShed", err)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOverloadBeyondBudgetSheds(t *testing.T) {
	clk := &fakeTime{t: time.Unix(0, 0)}
	c := cache.New("c", cache.WithStaleRetention(), cache.WithClock(clk.now))
	c.Put(&cache.Object{Key: "/p", Value: []byte("old")})
	c.Invalidate("/p")
	clk.t = clk.t.Add(time.Hour) // far beyond any budget
	lim := overload.NewLimiter(overload.Config{MaxConcurrent: 1, MaxQueue: -1})
	s := New("n", c, okGen("x"), nil, WithOverload(lim, time.Second))

	free := saturate(t, lim, 1)
	defer free()
	_, out, _ := s.Serve("/p")
	if out != OutcomeShed {
		t.Fatalf("outcome = %v, want shed (stale copy is beyond budget)", out)
	}
}

type fakeTime struct{ t time.Time }

func (f *fakeTime) now() time.Time { return f.t }

func TestOverloadRecoversAfterRelease(t *testing.T) {
	c := cache.New("c", cache.WithStaleRetention())
	lim := overload.NewLimiter(overload.Config{MaxConcurrent: 1, MaxQueue: -1})
	s := New("n", c, okGen("x"), nil, WithOverload(lim, time.Second))

	free := saturate(t, lim, 1)
	if _, out, _ := s.Serve("/p"); out != OutcomeShed {
		t.Fatalf("outcome while saturated = %v, want shed", out)
	}
	free()
	if _, out, err := s.Serve("/p"); err != nil || out != OutcomeMiss {
		t.Fatalf("Serve after drain = %v %v, want miss", out, err)
	}
}

func TestOverloadZeroBudgetDisablesStaleFallback(t *testing.T) {
	c := cache.New("c", cache.WithStaleRetention())
	c.Put(&cache.Object{Key: "/p", Value: []byte("old")})
	c.Invalidate("/p")
	lim := overload.NewLimiter(overload.Config{MaxConcurrent: 1, MaxQueue: -1})
	s := New("n", c, okGen("x"), nil, WithOverload(lim, 0))

	free := saturate(t, lim, 1)
	defer free()
	if _, out, _ := s.Serve("/p"); out != OutcomeShed {
		t.Fatalf("outcome = %v, want shed with zero budget", out)
	}
}

func TestOverloadLoadSignal(t *testing.T) {
	s := New("n", cache.New("c"), okGen("x"), nil)
	if got := s.LoadSignal(); got != 0 {
		t.Fatalf("load without limiter = %v, want 0", got)
	}
	lim := overload.NewLimiter(overload.Config{MaxConcurrent: 2})
	s2 := New("n2", cache.New("c2"), okGen("x"), nil, WithOverload(lim, 0))
	free := saturate(t, lim, 2)
	defer free()
	if got := s2.LoadSignal(); got < 1 {
		t.Fatalf("saturated load = %v, want >= 1", got)
	}
}

func TestOverloadMetricsRegistered(t *testing.T) {
	reg := stats.NewRegistry()
	lim := overload.NewLimiter(overload.Config{MaxConcurrent: 1})
	s := New("n", cache.New("c"), okGen("x"), nil, WithOverload(lim, time.Second))
	s.RegisterMetrics(reg, nil)
	found := map[string]bool{}
	for _, fam := range reg.Snapshot() {
		found[fam.Name] = true
	}
	for _, want := range []string{
		"served_stale_total", "shed_total", "served_stale_age_max_seconds",
		"overload_load", "overload_shed_total",
	} {
		if !found[want] {
			t.Fatalf("metric %q not registered (have %v)", want, found)
		}
	}
}
