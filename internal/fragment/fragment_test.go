package fragment

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dupserve/internal/cache"
	"dupserve/internal/db"
	"dupserve/internal/odg"
)

// recordingRegistrar captures registrations for assertions.
type recordingRegistrar struct {
	mu        sync.Mutex
	objects   map[cache.Key][]odg.NodeID
	fragments map[cache.Key][]odg.NodeID
}

func newRecorder() *recordingRegistrar {
	return &recordingRegistrar{
		objects:   make(map[cache.Key][]odg.NodeID),
		fragments: make(map[cache.Key][]odg.NodeID),
	}
}

func (r *recordingRegistrar) RegisterObject(key cache.Key, deps []odg.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.objects[key] = deps
}

func (r *recordingRegistrar) RegisterFragment(key cache.Key, deps []odg.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fragments[key] = deps
}

func testDB(t *testing.T) *db.DB {
	t.Helper()
	d := db.New("test")
	d.CreateTable("results")
	tx := d.NewTx().
		Put("results", "ski:ev1", map[string]string{"gold": "AUT", "score": "251.6"}).
		Put("results", "ski:ev2", map[string]string{"gold": "NOR", "score": "248.1"})
	if _, err := d.Commit(tx); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRenderRecordsRowDependencies(t *testing.T) {
	d := testDB(t)
	rec := newRecorder()
	e := New(Config{DB: d, Registrar: rec})
	e.Define("/ski/ev1", func(ctx *Context) ([]byte, error) {
		row, ok, err := ctx.Get("results", "ski:ev1")
		if err != nil || !ok {
			return nil, fmt.Errorf("get: %v %v", ok, err)
		}
		ctx.Printf("<h1>Gold: %s</h1>", row.Cols["gold"])
		return ctx.Bytes(), nil
	})
	obj, err := e.Generate("/ski/ev1", 42)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Value) != "<h1>Gold: AUT</h1>" {
		t.Fatalf("body = %q", obj.Value)
	}
	if obj.Version != 42 || !strings.HasPrefix(obj.ContentType, "text/html") {
		t.Fatalf("obj meta = %+v", obj)
	}
	deps := rec.objects["/ski/ev1"]
	want := []odg.NodeID{"db:results:ski:ev1"}
	if !reflect.DeepEqual(deps, want) {
		t.Fatalf("deps = %v, want %v", deps, want)
	}
}

func TestGetAbsentRowStillRecordsDependency(t *testing.T) {
	d := testDB(t)
	rec := newRecorder()
	e := New(Config{DB: d, Registrar: rec})
	e.Define("/pending", func(ctx *Context) ([]byte, error) {
		_, ok, _ := ctx.Get("results", "ski:ev9")
		if !ok {
			return []byte("no results yet"), nil
		}
		return []byte("results!"), nil
	})
	if _, err := e.Generate("/pending", 1); err != nil {
		t.Fatal(err)
	}
	deps := rec.objects["/pending"]
	if len(deps) != 1 || deps[0] != "db:results:ski:ev9" {
		t.Fatalf("deps = %v", deps)
	}
}

func TestScanRecordsRowsAndIndex(t *testing.T) {
	d := testDB(t)
	rec := newRecorder()
	e := New(Config{DB: d, Registrar: rec})
	e.Define("/ski", func(ctx *Context) ([]byte, error) {
		rows, err := ctx.Scan("results", "ski:")
		if err != nil {
			return nil, err
		}
		ctx.Printf("%d events", len(rows))
		return ctx.Bytes(), nil
	})
	obj, err := e.Generate("/ski", 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Value) != "2 events" {
		t.Fatalf("body = %q", obj.Value)
	}
	deps := rec.objects["/ski"]
	want := []odg.NodeID{"db:results:index:ski:", "db:results:ski:ev1", "db:results:ski:ev2"}
	if !reflect.DeepEqual(deps, want) {
		t.Fatalf("deps = %v, want %v", deps, want)
	}
}

func TestIncludeRecordsFragmentDependencyOnly(t *testing.T) {
	d := testDB(t)
	rec := newRecorder()
	e := New(Config{DB: d, Registrar: rec})
	e.Define("frag:medals", func(ctx *Context) ([]byte, error) {
		row, _, _ := ctx.Get("results", "ski:ev1")
		return []byte("medals:" + row.Cols["gold"]), nil
	})
	e.Define("/home", func(ctx *Context) ([]byte, error) {
		ctx.Printf("<body>")
		if err := ctx.IncludeInto("frag:medals"); err != nil {
			return nil, err
		}
		ctx.Printf("</body>")
		return ctx.Bytes(), nil
	})
	obj, err := e.Generate("/home", 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Value) != "<body>medals:AUT</body>" {
		t.Fatalf("body = %q", obj.Value)
	}
	// The page depends on the fragment vertex, not the fragment's rows.
	if got := rec.objects["/home"]; len(got) != 1 || got[0] != "frag:medals" {
		t.Fatalf("page deps = %v", got)
	}
	// The fragment was registered with its row dependency.
	if got := rec.fragments["frag:medals"]; len(got) != 1 || got[0] != "db:results:ski:ev1" {
		t.Fatalf("fragment deps = %v", got)
	}
	// The fragment landed in the fragment cache.
	if _, ok := e.FragmentCache().Peek("frag:medals"); !ok {
		t.Fatal("fragment not cached")
	}
}

func TestIncludeUsesCachedFragment(t *testing.T) {
	d := testDB(t)
	e := New(Config{DB: d, Registrar: newRecorder()})
	renders := 0
	e.Define("frag:f", func(ctx *Context) ([]byte, error) {
		renders++
		return []byte("F"), nil
	})
	e.Define("/a", func(ctx *Context) ([]byte, error) { return ctx.Include("frag:f") })
	e.Define("/b", func(ctx *Context) ([]byte, error) { return ctx.Include("frag:f") })
	if _, err := e.Generate("/a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Generate("/b", 1); err != nil {
		t.Fatal(err)
	}
	if renders != 1 {
		t.Fatalf("fragment rendered %d times, want 1 (cached reuse)", renders)
	}
}

func TestIncludeFreshFragmentAfterRegeneration(t *testing.T) {
	d := testDB(t)
	e := New(Config{DB: d, Registrar: newRecorder()})
	val := "v1"
	e.Define("frag:f", func(ctx *Context) ([]byte, error) { return []byte(val), nil })
	e.Define("/p", func(ctx *Context) ([]byte, error) { return ctx.Include("frag:f") })
	if _, err := e.Generate("/p", 1); err != nil {
		t.Fatal(err)
	}
	// DUP regenerates the fragment (update-in-place into the fragment
	// cache), then the page: the page must see the new bytes.
	val = "v2"
	if _, err := e.Generate("frag:f", 2); err != nil {
		t.Fatal(err)
	}
	obj, err := e.Generate("/p", 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(obj.Value) != "v2" {
		t.Fatalf("page body = %q, want v2", obj.Value)
	}
}

func TestIncludeNonFragmentRejected(t *testing.T) {
	d := testDB(t)
	e := New(Config{DB: d, Registrar: newRecorder()})
	e.Define("/p", func(ctx *Context) ([]byte, error) { return ctx.Include("/other") })
	if _, err := e.Generate("/p", 1); err == nil {
		t.Fatal("expected error including a non-fragment name")
	}
}

func TestIncludeDepthLimit(t *testing.T) {
	d := testDB(t)
	// chain defines frag:c0 -> frag:c1 -> ... -> frag:c<n>, each including
	// the next; frag:c<i> renders at include depth i.
	chain := func(n int) *Engine {
		e := New(Config{DB: d, Registrar: newRecorder()})
		for i := 0; i < n; i++ {
			next := fmt.Sprintf("frag:c%d", i+1)
			e.Define(fmt.Sprintf("frag:c%d", i), func(ctx *Context) ([]byte, error) { return ctx.Include(next) })
		}
		e.Define(fmt.Sprintf("frag:c%d", n), func(ctx *Context) ([]byte, error) { return []byte("leaf"), nil })
		return e
	}
	if obj, err := chain(maxIncludeDepth).Generate("frag:c0", 1); err != nil || string(obj.Value) != "leaf" {
		t.Fatalf("%d-deep chain: %v, %v; want the leaf", maxIncludeDepth, obj, err)
	}
	if _, err := chain(maxIncludeDepth+1).Generate("frag:c0", 1); !errors.Is(err, ErrDepth) {
		t.Fatalf("%d-deep chain: err = %v, want ErrDepth", maxIncludeDepth+1, err)
	}

	// A self-including fragment is a cycle and hits the same bound.
	e := New(Config{DB: d, Registrar: newRecorder()})
	e.Define("frag:loop", func(ctx *Context) ([]byte, error) { return ctx.Include("frag:loop") })
	if _, err := e.Generate("frag:loop", 1); !errors.Is(err, ErrDepth) {
		t.Fatalf("err = %v, want ErrDepth", err)
	}
}

func TestUnknownName(t *testing.T) {
	d := testDB(t)
	e := New(Config{DB: d, Registrar: newRecorder()})
	if _, err := e.Generate("/ghost", 1); !errors.Is(err, ErrUnknown) {
		t.Fatalf("err = %v, want ErrUnknown", err)
	}
}

func TestRenderErrorWrapped(t *testing.T) {
	d := testDB(t)
	e := New(Config{DB: d, Registrar: newRecorder()})
	boom := errors.New("boom")
	e.Define("/p", func(ctx *Context) ([]byte, error) { return nil, boom })
	_, err := e.Generate("/p", 1)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "/p") {
		t.Fatalf("err = %v", err)
	}
}

func TestDependOnExplicit(t *testing.T) {
	d := testDB(t)
	rec := newRecorder()
	e := New(Config{DB: d, Registrar: rec})
	e.Define("/p", func(ctx *Context) ([]byte, error) {
		ctx.DependOn("custom:vertex")
		return []byte("x"), nil
	})
	if _, err := e.Generate("/p", 1); err != nil {
		t.Fatal(err)
	}
	if got := rec.objects["/p"]; len(got) != 1 || got[0] != "custom:vertex" {
		t.Fatalf("deps = %v", got)
	}
}

func TestNamesAndDefined(t *testing.T) {
	d := testDB(t)
	e := New(Config{DB: d})
	e.Define("/b", func(*Context) ([]byte, error) { return nil, nil })
	e.Define("/a", func(*Context) ([]byte, error) { return nil, nil })
	if got := e.Names(); !reflect.DeepEqual(got, []string{"/a", "/b"}) {
		t.Fatalf("Names = %v", got)
	}
	if !e.Defined("/a") || e.Defined("/zzz") {
		t.Fatal("Defined drift")
	}
}

func TestNilRegistrarOK(t *testing.T) {
	d := testDB(t)
	e := New(Config{DB: d})
	e.Define("/p", func(ctx *Context) ([]byte, error) { return []byte("x"), nil })
	e.Define("frag:f", func(ctx *Context) ([]byte, error) { return []byte("y"), nil })
	if _, err := e.Generate("/p", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Generate("frag:f", 1); err != nil {
		t.Fatal(err)
	}
}

func TestIsFragment(t *testing.T) {
	if !IsFragment("frag:x") || IsFragment("/page") {
		t.Fatal("IsFragment drift")
	}
}

func TestIndexID(t *testing.T) {
	if IndexID("results", "ski:") != "db:results:index:ski:" {
		t.Fatal("IndexID format drift")
	}
}

func TestConcurrentGenerate(t *testing.T) {
	d := testDB(t)
	e := New(Config{DB: d, Registrar: newRecorder()})
	e.Define("frag:f", func(ctx *Context) ([]byte, error) {
		row, _, _ := ctx.Get("results", "ski:ev1")
		return []byte(row.Cols["gold"]), nil
	})
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("/p%d", i)
		e.Define(name, func(ctx *Context) ([]byte, error) { return ctx.Include("frag:f") })
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := e.Generate(cache.Key(fmt.Sprintf("/p%d", (w+i)%20)), int64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkGeneratePageWithFragments(b *testing.B) {
	d := db.New("b")
	d.CreateTable("results")
	tx := d.NewTx()
	for i := 0; i < 50; i++ {
		tx.Put("results", fmt.Sprintf("ev%d", i), map[string]string{"gold": "AUT", "score": "250"})
	}
	if _, err := d.Commit(tx); err != nil {
		b.Fatal(err)
	}
	e := New(Config{DB: d})
	e.Define("frag:medals", func(ctx *Context) ([]byte, error) {
		rows, err := ctx.Scan("results", "")
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			ctx.Printf("<tr><td>%s</td><td>%s</td></tr>", r.Key, r.Cols["gold"])
		}
		return ctx.Bytes(), nil
	})
	e.Define("/home", func(ctx *Context) ([]byte, error) {
		ctx.Printf("<html><body>")
		if err := ctx.IncludeInto("frag:medals"); err != nil {
			return nil, err
		}
		ctx.Printf("</body></html>")
		return ctx.Bytes(), nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Invalidate the fragment each round so the bench measures full
		// regeneration, not cached splicing.
		e.FragmentCache().Invalidate("frag:medals")
		if _, err := e.Generate("/home", int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
