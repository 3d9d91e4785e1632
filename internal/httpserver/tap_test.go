package httpserver

import (
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/overload"
	"dupserve/internal/stats"
)

// TestResponseTapSeesEveryOutcome checks the tap fires once per response
// with the outcome and object the caller got.
func TestResponseTapSeesEveryOutcome(t *testing.T) {
	c := cache.New("c", cache.WithStaleRetention())
	var got []ResponseSample
	s := New("n", c, okGen("x"), nil,
		WithResponseTap(func(smp ResponseSample) { got = append(got, smp) }))

	if _, out, err := s.Serve("/p"); err != nil || out != OutcomeMiss {
		t.Fatalf("first serve = %v %v", out, err)
	}
	if _, out, err := s.Serve("/p"); err != nil || out != OutcomeHit {
		t.Fatalf("second serve = %v %v", out, err)
	}
	if len(got) != 2 {
		t.Fatalf("tap fired %d times, want 2", len(got))
	}
	if got[0].Outcome != OutcomeMiss || got[1].Outcome != OutcomeHit {
		t.Fatalf("outcomes = %v, %v", got[0].Outcome, got[1].Outcome)
	}
	for i, smp := range got {
		if smp.Path != "/p" || smp.Object == nil {
			t.Fatalf("sample %d = %+v", i, smp)
		}
		if string(smp.Object.Value) != "x:/p" {
			t.Fatalf("sample %d body = %q", i, smp.Object.Value)
		}
	}
}

// TestResponseTapPerResponseStaleAge pins the satellite fix: a degraded
// response's StaleAge is the age of the copy actually served, not the
// node's high-water mark. Two pages invalidated at different times must
// report different — and correctly ordered — ages through the tap, and
// the second (younger) age must be below the first, which a high-water
// mark could never report.
func TestResponseTapPerResponseStaleAge(t *testing.T) {
	clk := &fakeTime{t: time.Unix(1000, 0)}
	c := cache.New("c", cache.WithStaleRetention(), cache.WithClock(clk.now))
	c.Put(&cache.Object{Key: "/old", Value: []byte("old"), Version: 1})
	c.Invalidate("/old") // stale copy born now
	clk.t = clk.t.Add(2 * time.Second)
	c.Put(&cache.Object{Key: "/young", Value: []byte("young"), Version: 1})
	c.Invalidate("/young") // stale copy born 2s later
	clk.t = clk.t.Add(3 * time.Second)

	lim := overload.NewLimiter(overload.Config{MaxConcurrent: 1, MaxQueue: -1})
	var got []ResponseSample
	s := New("n", c, okGen("x"), nil,
		WithOverload(lim, time.Minute),
		WithResponseTap(func(smp ResponseSample) { got = append(got, smp) }))

	free := saturate(t, lim, 1)
	defer free()
	if _, out, err := s.Serve("/old"); err != nil || out != OutcomeStale {
		t.Fatalf("old serve = %v %v, want stale", out, err)
	}
	if _, out, err := s.Serve("/young"); err != nil || out != OutcomeStale {
		t.Fatalf("young serve = %v %v, want stale", out, err)
	}
	if _, out, _ := s.Serve("/missing"); out != OutcomeShed {
		t.Fatalf("missing serve = %v, want shed", out)
	}

	if len(got) != 3 {
		t.Fatalf("tap fired %d times, want 3", len(got))
	}
	if got[0].StaleAge != 5*time.Second {
		t.Fatalf("old age = %v, want 5s", got[0].StaleAge)
	}
	if got[1].StaleAge != 3*time.Second {
		t.Fatalf("young age = %v, want 3s (per-response, not the 5s high-water mark)", got[1].StaleAge)
	}
	if got[2].Outcome != OutcomeShed || got[2].Object != nil || got[2].StaleAge != 0 {
		t.Fatalf("shed sample = %+v", got[2])
	}

	// The per-response ages also feed the histogram metric.
	reg := stats.NewRegistry()
	s.RegisterMetrics(reg, nil)
	for _, fam := range reg.Snapshot() {
		if fam.Name == "served_stale_age_seconds" {
			return
		}
	}
	t.Fatal("served_stale_age_seconds histogram not registered")
}
