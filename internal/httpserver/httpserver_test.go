package httpserver

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"dupserve/internal/cache"
)

func okGen(body string) func(key cache.Key, version int64) (*cache.Object, error) {
	return func(key cache.Key, version int64) (*cache.Object, error) {
		return &cache.Object{
			Key:         key,
			Value:       []byte(body + ":" + string(key)),
			ContentType: "text/html",
			Version:     version,
		}, nil
	}
}

func TestServeStatic(t *testing.T) {
	s := New("n1", cache.New("c"), nil, nil)
	s.SetStatic("/logo.gif", []byte("GIF89a"), "image/gif")
	obj, out, err := s.Serve("/logo.gif")
	if err != nil || out != OutcomeStatic || string(obj.Value) != "GIF89a" {
		t.Fatalf("Serve = %v %v %v", obj, out, err)
	}
	if st := s.Stats(); st.Statics != 1 || st.Requests != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServeMissThenHit(t *testing.T) {
	s := New("n1", cache.New("c"), okGen("page"), func() int64 { return 9 })
	_, out, err := s.Serve("/a")
	if err != nil || out != OutcomeMiss {
		t.Fatalf("first Serve = %v %v", out, err)
	}
	obj, out, err := s.Serve("/a")
	if err != nil || out != OutcomeHit {
		t.Fatalf("second Serve = %v %v", out, err)
	}
	if obj.Version != 9 {
		t.Fatalf("version = %d", obj.Version)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.HitRate() != 0.5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServePrimedCacheNeverMisses(t *testing.T) {
	// Update-in-place means the trigger monitor primes caches before
	// traffic arrives; every request must then be a hit.
	c := cache.New("c")
	c.Put(&cache.Object{Key: "/hot", Value: []byte("fresh")})
	s := New("n1", c, okGen("x"), nil)
	for i := 0; i < 100; i++ {
		_, out, err := s.Serve("/hot")
		if err != nil || out != OutcomeHit {
			t.Fatalf("request %d: %v %v", i, out, err)
		}
	}
	if s.Stats().HitRate() != 1 {
		t.Fatalf("hit rate = %v", s.Stats().HitRate())
	}
}

func TestWithoutCacheAlwaysGenerates(t *testing.T) {
	calls := 0
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		calls++
		return &cache.Object{Key: key, Value: []byte("x")}, nil
	}
	s := New("n1", nil, gen, nil)
	for i := 0; i < 5; i++ {
		if _, out, err := s.Serve("/p"); err != nil || out != OutcomeMiss {
			t.Fatalf("Serve = %v %v", out, err)
		}
	}
	if calls != 5 {
		t.Fatalf("generator calls = %d, want 5", calls)
	}
}

func TestServeNoRoute(t *testing.T) {
	s := New("n1", cache.New("c"), nil, nil)
	_, out, err := s.Serve("/ghost")
	if out != OutcomeNotFound || !errors.Is(err, ErrNoRoute) {
		t.Fatalf("Serve = %v %v", out, err)
	}
}

func TestServeGeneratorUnknownPageIs404(t *testing.T) {
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return nil, fmt.Errorf("fragment: unknown page or fragment: %q", key)
	}
	s := New("n1", cache.New("c"), gen, nil)
	_, out, _ := s.Serve("/ghost")
	if out != OutcomeNotFound {
		t.Fatalf("outcome = %v, want notfound", out)
	}
	if s.Stats().NotFound != 1 || s.Stats().Errors != 0 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestServeGeneratorError(t *testing.T) {
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return nil, errors.New("db unreachable")
	}
	s := New("n1", cache.New("c"), gen, nil)
	_, out, err := s.Serve("/p")
	if out != OutcomeError || err == nil {
		t.Fatalf("Serve = %v %v", out, err)
	}
	if s.Stats().Errors != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestOverheadAppliedToDynamicOnly(t *testing.T) {
	n := 0
	s := New("n1", cache.New("c"), okGen("x"), nil, WithOverhead(func() { n++ }))
	s.SetStatic("/s", []byte("st"), "")
	s.Serve("/s")
	if n != 0 {
		t.Fatal("overhead applied to static request")
	}
	s.Serve("/d")
	s.Serve("/d")
	if n != 2 {
		t.Fatalf("overhead calls = %d, want 2 (per dynamic request)", n)
	}
}

func TestSpinOverheadRuns(t *testing.T) {
	SpinOverhead(100)() // must not panic
}

func TestConcurrentServe(t *testing.T) {
	s := New("n", cache.New("c"), okGen("x"), nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, _, err := s.Serve(fmt.Sprintf("/p%d", i%10)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Requests != 1600 {
		t.Fatalf("requests = %d", st.Requests)
	}
	if st.Misses < 10 || st.Misses > 80 {
		// At most one miss per (path, racing goroutine window); typically 10.
		t.Fatalf("misses = %d, outside plausible range", st.Misses)
	}
}

func TestOutcomeString(t *testing.T) {
	names := map[Outcome]string{
		OutcomeHit: "hit", OutcomeMiss: "miss", OutcomeStatic: "static",
		OutcomeNotFound: "notfound", OutcomeError: "error",
	}
	for o, want := range names {
		if o.String() != want {
			t.Fatalf("%v.String() = %q", o, o.String())
		}
	}
}

// E2 shape at unit scale: cached dynamic serving must be far faster than
// uncached generation with CGI-like overhead.
func BenchmarkServeCachedDynamic(b *testing.B) {
	c := cache.New("c")
	c.Put(&cache.Object{Key: "/hot", Value: make([]byte, 10*1024)})
	s := New("n", c, okGen("x"), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, out, _ := s.Serve("/hot"); out != OutcomeHit {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkServeUncachedDynamic(b *testing.B) {
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		// Rebuild a 10KB page each time.
		v := make([]byte, 10*1024)
		for i := range v {
			v[i] = byte(i)
		}
		return &cache.Object{Key: key, Value: v}, nil
	}
	s := New("n", nil, gen, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Serve("/hot"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServeUncachedCGI(b *testing.B) {
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		v := make([]byte, 10*1024)
		return &cache.Object{Key: key, Value: v}, nil
	}
	// SpinOverhead approximates fork+exec+interpreter-startup CPU burn.
	s := New("n", nil, gen, nil, WithOverhead(SpinOverhead(200000)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Serve("/hot"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServeStatic(b *testing.B) {
	s := New("n", cache.New("c"), nil, nil)
	s.SetStatic("/s", make([]byte, 10*1024), "text/html")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, out, _ := s.Serve("/s"); out != OutcomeStatic {
			b.Fatal("not static")
		}
	}
}
