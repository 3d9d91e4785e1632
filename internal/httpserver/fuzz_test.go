package httpserver

import (
	"context"
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/overload"
)

// FuzzHTTPServePath throws arbitrary request paths at a serving node whose
// render capacity is fully occupied. No input may panic any layer (Serve,
// ServeCtx, the cache underneath), and no input may reach the
// generator without passing admission control: with every render slot held,
// a miss must degrade (stale) or shed — a render would mean the path
// smuggled itself past the limiter.
func FuzzHTTPServePath(f *testing.F) {
	f.Add("/en/day7/home")
	f.Add("")
	f.Add("/")
	f.Add("//")
	f.Add("/static")
	f.Add("/cached")
	f.Add("/../../etc/passwd")
	f.Add("/en/%2e%2e/day7")
	f.Add("/\x00\xff")
	f.Add("/very/deep/" + string(make([]byte, 1024)))
	f.Fuzz(func(t *testing.T, path string) {
		rendered := 0
		gen := func(key cache.Key, version int64) (*cache.Object, error) {
			rendered++
			return &cache.Object{Key: key, Value: []byte("rendered"), Version: version}, nil
		}
		lim := overload.NewLimiter(overload.Config{MaxConcurrent: 1, MaxQueue: -1})
		c := cache.New("fuzz", cache.WithStaleRetention())
		s := New("fuzz", c, gen, func() int64 { return 1 },
			WithOverload(lim, time.Second))
		s.SetStatic("/static", []byte("static"), "text/plain")
		c.Put(&cache.Object{Key: "/cached", Value: []byte("cached"), Version: 1})

		// Occupy the only render slot: any admission attempt must now shed.
		release, err := lim.Acquire()
		if err != nil {
			t.Fatalf("priming acquire failed: %v", err)
		}
		defer release()

		obj, outcome, _ := s.Serve(path)
		switch outcome {
		case OutcomeMiss:
			t.Fatalf("path %q rendered despite a saturated limiter", path)
		case OutcomeHit, OutcomeStatic, OutcomeStale:
			if obj == nil {
				t.Fatalf("path %q: outcome %v with nil object", path, outcome)
			}
		}
		if rendered != 0 {
			t.Fatalf("path %q invoked the generator %d times past admission control", path, rendered)
		}

		// The context path must be equally panic-free on the same input.
		if _, outcome, _ := s.ServeCtx(context.Background(), path); outcome == OutcomeMiss || rendered != 0 {
			t.Fatalf("path %q rendered via ServeCtx past admission control", path)
		}
	})
}
