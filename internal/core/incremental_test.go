package core

import (
	"fmt"
	"testing"

	"dupserve/internal/cache"
	"dupserve/internal/db"
	"dupserve/internal/fragment"
	"dupserve/internal/odg"
)

// fragmentStack wires a real fragment engine behind the DUP engine with the
// incremental assembler installed: one fragment reading a database row,
// included by nPages pages, everything primed in the serving cache.
func fragmentStack(t *testing.T, nPages int) (*db.DB, *fragment.Engine, *Engine, *cache.Cache) {
	t.Helper()
	d := db.New("t")
	d.CreateTable("rows")
	if _, err := d.Commit(d.NewTx().Put("rows", "score", map[string]string{"v": "0"})); err != nil {
		t.Fatal(err)
	}
	c := cache.New("t")
	g := odg.New()
	var fe *fragment.Engine
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return fe.Generate(key, version)
	}
	e := NewEngine(g, c, WithGenerator(gen))
	fe = fragment.New(fragment.Config{DB: d, Registrar: e})
	e.SetAssembler(fe)

	fe.Define("frag:score", func(ctx *fragment.Context) ([]byte, error) {
		row, _, err := ctx.Get("rows", "score")
		if err != nil {
			return nil, err
		}
		return []byte("score=" + row.Cols["v"]), nil
	})
	for i := 0; i < nPages; i++ {
		fe.Define(fmt.Sprintf("/p%d", i), func(ctx *fragment.Context) ([]byte, error) {
			ctx.Printf("<h1>page</h1>")
			if err := ctx.IncludeInto("frag:score"); err != nil {
				return nil, err
			}
			return ctx.Bytes(), nil
		})
	}
	for i := 0; i < nPages; i++ {
		obj, err := fe.Generate(cache.Key(fmt.Sprintf("/p%d", i)), d.LSN())
		if err != nil {
			t.Fatal(err)
		}
		c.Put(obj)
	}
	return d, fe, e, c
}

// TestIncrementalBatchRendersFragmentOnce drives one update through the
// assembler-equipped engine: the changed fragment must
// render exactly once and every containing page must splice the cached
// bytes, never re-render it.
func TestIncrementalBatchRendersFragmentOnce(t *testing.T) {
	const nPages = 24
	d, fe, e, c := fragmentStack(t, nPages)

	if _, err := d.Commit(d.NewTx().Put("rows", "score", map[string]string{"v": "251.6"})); err != nil {
		t.Fatal(err)
	}
	r0, u0 := fe.Accounting()
	res := e.OnChange(d.LSN(), odg.NodeID(db.RowID("rows", "score")))
	r1, u1 := fe.Accounting()

	if len(res.Errors) > 0 {
		t.Fatalf("errors: %v", res.Errors)
	}
	// Affected = 1 fragment + nPages pages, all regenerated in place.
	if res.Updated != nPages+1 {
		t.Fatalf("updated = %d, want %d", res.Updated, nPages+1)
	}
	if res.FragmentRenders != 1 {
		t.Fatalf("FragmentRenders = %d, want exactly 1", res.FragmentRenders)
	}
	if res.FragmentReuses != nPages {
		t.Fatalf("FragmentReuses = %d, want %d (one splice per page)", res.FragmentReuses, nPages)
	}
	if r1-r0 != 1 {
		t.Fatalf("engine render count delta = %d, want 1", r1-r0)
	}
	if u1-u0 != int64(nPages) {
		t.Fatalf("engine reuse count delta = %d, want %d", u1-u0, nPages)
	}
	for i := 0; i < nPages; i++ {
		obj, ok := c.Peek(cache.Key(fmt.Sprintf("/p%d", i)))
		if !ok || string(obj.Value) != "<h1>page</h1>score=251.6" {
			t.Fatalf("page %d = %q, want fresh assembled bytes", i, obj.Value)
		}
	}
	st := e.Stats()
	if st.FragmentRenders != 1 || st.FragmentReuses != int64(nPages) {
		t.Fatalf("engine stats renders=%d reuses=%d, want 1/%d",
			st.FragmentRenders, st.FragmentReuses, nPages)
	}
}

// TestIncrementalBatchSkipsUnchangedFragments: a page embedding two
// fragments is rebuilt after only one of them changes; the unchanged
// fragment's cached bytes are reused, not re-rendered.
func TestIncrementalBatchSkipsUnchangedFragments(t *testing.T) {
	d := db.New("t")
	d.CreateTable("rows")
	if _, err := d.Commit(d.NewTx().
		Put("rows", "a", map[string]string{"v": "1"}).
		Put("rows", "b", map[string]string{"v": "2"})); err != nil {
		t.Fatal(err)
	}
	c := cache.New("t")
	g := odg.New()
	var fe *fragment.Engine
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return fe.Generate(key, version)
	}
	e := NewEngine(g, c, WithGenerator(gen))
	fe = fragment.New(fragment.Config{DB: d, Registrar: e})
	e.SetAssembler(fe)
	for _, name := range []string{"a", "b"} {
		name := name
		fe.Define("frag:"+name, func(ctx *fragment.Context) ([]byte, error) {
			row, _, err := ctx.Get("rows", name)
			if err != nil {
				return nil, err
			}
			return []byte(name + "=" + row.Cols["v"]), nil
		})
	}
	fe.Define("/page", func(ctx *fragment.Context) ([]byte, error) {
		if err := ctx.IncludeInto("frag:a"); err != nil {
			return nil, err
		}
		if err := ctx.IncludeInto("frag:b"); err != nil {
			return nil, err
		}
		return ctx.Bytes(), nil
	})
	obj, err := fe.Generate("/page", d.LSN())
	if err != nil {
		t.Fatal(err)
	}
	c.Put(obj)

	if _, err := d.Commit(d.NewTx().Put("rows", "a", map[string]string{"v": "9"})); err != nil {
		t.Fatal(err)
	}
	res := e.OnChange(d.LSN(), odg.NodeID(db.RowID("rows", "a")))
	if res.FragmentRenders != 1 {
		t.Fatalf("FragmentRenders = %d, want 1 (only frag:a changed)", res.FragmentRenders)
	}
	// The rebuilt page splices frag:a (fresh) and frag:b (unchanged).
	if res.FragmentReuses != 2 {
		t.Fatalf("FragmentReuses = %d, want 2", res.FragmentReuses)
	}
	got, _ := c.Peek("/page")
	if string(got.Value) != "a=9b=2" {
		t.Fatalf("page = %q, want %q", got.Value, "a=9b=2")
	}
}

// TestPartitionSeparatesFragmentsFromPages checks the batch planner's ODG
// partition: vertices with out-edges (or KindBoth) are fragments, leaves are
// pages.
func TestPartitionSeparatesFragmentsFromPages(t *testing.T) {
	_, _, e, _ := fragmentStack(t, 3)
	d := odg.NodeID(db.RowID("rows", "score"))
	affected := e.graph.Affected(d)
	frags, pages := e.graph.Partition(affected)
	if len(frags) != 1 || frags[0] != "frag:score" {
		t.Fatalf("fragments = %v, want [frag:score]", frags)
	}
	if len(pages) != 3 {
		t.Fatalf("pages = %v, want the three containing pages", pages)
	}
}
