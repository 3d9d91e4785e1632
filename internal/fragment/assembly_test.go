package fragment

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/odg"
)

// TestSingleFlightAcrossParallelPageAssembly: after BeginBatch raises a
// changed fragment's floor, many concurrent page assemblies that all find
// the cached copy stale must share exactly one render of it. This is the
// shape of concurrent node-side cache misses — n serving goroutines each
// rendering a missed page that embeds the same changed fragment.
func TestSingleFlightAcrossParallelPageAssembly(t *testing.T) {
	const nPages = 16
	d := testDB(t)
	e := New(Config{DB: d, Registrar: newRecorder()})
	var renders atomic.Int64
	e.Define("frag:hot", func(ctx *Context) ([]byte, error) {
		renders.Add(1)
		time.Sleep(20 * time.Millisecond) // hold the flight open
		row, _, err := ctx.Get("results", "ski:ev1")
		if err != nil {
			return nil, err
		}
		return []byte(row.Cols["score"]), nil
	})
	for i := 0; i < nPages; i++ {
		e.Define(fmt.Sprintf("/p%d", i), func(ctx *Context) ([]byte, error) {
			if err := ctx.IncludeInto("frag:hot"); err != nil {
				return nil, err
			}
			return ctx.Bytes(), nil
		})
	}
	// Prime at version 1, then open a batch at version 2 naming the
	// fragment: the cached copy drops below its floor.
	if _, err := e.Generate("frag:hot", 1); err != nil {
		t.Fatal(err)
	}
	renders.Store(0)
	e.BeginBatch(2, []cache.Key{"frag:hot"})

	var wg sync.WaitGroup
	errs := make(chan error, nPages)
	for i := 0; i < nPages; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.Generate(cache.Key(fmt.Sprintf("/p%d", i)), 2); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := renders.Load(); got != 1 {
		t.Fatalf("fragment rendered %d times across %d parallel assemblies, want 1", got, nPages)
	}
	batchRenders, batchReuses := e.EndBatch()
	if batchRenders != 1 {
		t.Fatalf("batch renders = %d, want 1", batchRenders)
	}
	if batchReuses != nPages-1 {
		t.Fatalf("batch reuses = %d, want %d (every assembly but the flight's own splice)", batchReuses, nPages-1)
	}
}

// TestGenerateSharesFlightAtSameVersion: concurrent Generates of one
// fragment at one version run a single render; requests pinned at a
// different version do not alias it.
func TestGenerateSharesFlightAtSameVersion(t *testing.T) {
	d := testDB(t)
	e := New(Config{DB: d, Registrar: newRecorder()})
	var renders atomic.Int64
	entered := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	e.Define("frag:slow", func(ctx *Context) ([]byte, error) {
		renders.Add(1)
		once.Do(func() { close(entered) })
		<-gate
		return []byte("x"), nil
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.Generate("frag:slow", 7); err != nil {
			t.Error(err)
		}
	}()
	<-entered // the flight for frag:slow@7 is now held
	for i := 0; i < 7; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Generate("frag:slow", 7); err != nil {
				t.Error(err)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the waiters reach the flight table
	close(gate)
	wg.Wait()
	if got := renders.Load(); got != 1 {
		t.Fatalf("renders = %d, want 1 shared flight", got)
	}
}

// TestFloorGatesReuse: Include reuses a cached fragment only at or above
// the floor the batch pinned; unchanged fragments (floor zero) stay
// reusable at any cached version.
func TestFloorGatesReuse(t *testing.T) {
	d := testDB(t)
	e := New(Config{DB: d, Registrar: newRecorder()})
	var renders atomic.Int64
	e.Define("frag:a", func(ctx *Context) ([]byte, error) {
		renders.Add(1)
		return []byte(fmt.Sprintf("a@%d", ctx.version)), nil
	})
	e.Define("/page", func(ctx *Context) ([]byte, error) {
		if err := ctx.IncludeInto("frag:a"); err != nil {
			return nil, err
		}
		return ctx.Bytes(), nil
	})
	if _, err := e.Generate("frag:a", 1); err != nil {
		t.Fatal(err)
	}
	// Floor zero: the v1 copy satisfies a v5 assembly.
	obj, err := e.Generate("/page", 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Value) != "a@1" {
		t.Fatalf("page = %q, want the cached v1 bytes", obj.Value)
	}
	// Floor 6: the v1 copy is stale, assembly must re-render.
	e.BeginBatch(6, []cache.Key{"frag:a"})
	renders.Store(0)
	obj, err = e.Generate("/page", 6)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Value) != "a@6" {
		t.Fatalf("page = %q, want freshly rendered v6 bytes", obj.Value)
	}
	if renders.Load() != 1 {
		t.Fatalf("renders = %d, want 1", renders.Load())
	}
}

// TestIncludeReusePathAllocs guards the hot path: splicing an already-cached
// fragment into a page must not allocate.
func TestIncludeReusePathAllocs(t *testing.T) {
	d := testDB(t)
	e := New(Config{DB: d, Registrar: newRecorder()})
	e.Define("frag:a", func(ctx *Context) ([]byte, error) { return []byte("a"), nil })
	if _, err := e.Generate("frag:a", 1); err != nil {
		t.Fatal(err)
	}
	c := &Context{engine: e, name: "/page", version: 1, deps: make(map[odg.NodeID]struct{})}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Include("frag:a"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("Include reuse path allocates %.1f times per call, want 0", allocs)
	}
}

// TestFullReRenderBaselineBypassesCache: the benchmark baseline mode must
// re-render on every Include rather than splice cached bytes.
func TestFullReRenderBaselineBypassesCache(t *testing.T) {
	d := testDB(t)
	e := New(Config{DB: d, Registrar: newRecorder()})
	e.SetFullReRender(true)
	var renders atomic.Int64
	e.Define("frag:a", func(ctx *Context) ([]byte, error) {
		renders.Add(1)
		return []byte("a"), nil
	})
	e.Define("/page", func(ctx *Context) ([]byte, error) {
		if err := ctx.IncludeInto("frag:a"); err != nil {
			return nil, err
		}
		return ctx.Bytes(), nil
	})
	for i := int64(1); i <= 3; i++ {
		if _, err := e.Generate("/page", i); err != nil {
			t.Fatal(err)
		}
	}
	if got := renders.Load(); got != 3 {
		t.Fatalf("baseline renders = %d, want 3 (one per page render)", got)
	}
	_, reuses := e.Accounting()
	if reuses != 0 {
		t.Fatalf("baseline recorded %d reuses, want 0", reuses)
	}
}
