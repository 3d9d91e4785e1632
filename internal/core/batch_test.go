package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dupserve/internal/cache"
	"dupserve/internal/db"
	"dupserve/internal/fragment"
	"dupserve/internal/odg"
)

// batchLog is a BatchStore in front of a cache that logs every call it
// takes, in order: "batch k1 k2 ...", "put k", "invalidate k".
type batchLog struct {
	*cache.Cache
	mu  sync.Mutex
	ops []string
}

func newBatchLog() *batchLog { return &batchLog{Cache: cache.New("batch")} }

func (b *batchLog) record(op string) {
	b.mu.Lock()
	b.ops = append(b.ops, op)
	b.mu.Unlock()
}

func (b *batchLog) ApplyBatch(objs []*cache.Object) {
	keys := make([]string, len(objs))
	for i, obj := range objs {
		keys[i] = string(obj.Key)
		b.Cache.ApplyPut(obj)
	}
	b.record("batch " + strings.Join(keys, " "))
}

func (b *batchLog) ApplyPut(obj *cache.Object) {
	b.record("put " + string(obj.Key))
	b.Cache.ApplyPut(obj)
}

func (b *batchLog) ApplyInvalidate(key cache.Key) int {
	b.record("invalidate " + string(key))
	return b.Cache.ApplyInvalidate(key)
}

// batches returns the logged ApplyBatch calls; any per-object put fails the
// test, since a BatchStore must never see one from the engine.
func (b *batchLog) batches(t *testing.T) []string {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for _, op := range b.ops {
		switch {
		case strings.HasPrefix(op, "put "):
			t.Fatalf("engine called ApplyPut on a BatchStore: %q", op)
		case strings.HasPrefix(op, "batch "):
			out = append(out, op)
		}
	}
	return out
}

// nestedStack wires the incremental assembler over a batchLog: fragment
// frag:z-inner reads a row, frag:a-outer embeds it, and nPages pages embed
// frag:a-outer. The names sort against dependency order, so a batch in
// sorted order would show. Nothing is primed; the caller commits and runs
// one propagation.
func nestedStack(t *testing.T, nPages int, opts ...Option) (*db.DB, *Engine, *batchLog) {
	t.Helper()
	d := db.New("t")
	d.CreateTable("rows")
	if _, err := d.Commit(d.NewTx().Put("rows", "score", map[string]string{"v": "0"})); err != nil {
		t.Fatal(err)
	}
	store := newBatchLog()
	var fe *fragment.Engine
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return fe.Generate(key, version)
	}
	e := NewEngine(odg.New(), store, append([]Option{WithGenerator(gen)}, opts...)...)
	fe = fragment.New(fragment.Config{DB: d, Registrar: e})
	e.SetAssembler(fe)
	fe.Define("frag:z-inner", func(ctx *fragment.Context) ([]byte, error) {
		row, _, err := ctx.Get("rows", "score")
		if err != nil {
			return nil, err
		}
		return []byte("score=" + row.Cols["v"]), nil
	})
	fe.Define("frag:a-outer", func(ctx *fragment.Context) ([]byte, error) {
		ctx.Printf("[")
		if err := ctx.IncludeInto("frag:z-inner"); err != nil {
			return nil, err
		}
		ctx.Printf("]")
		return ctx.Bytes(), nil
	})
	for i := 0; i < nPages; i++ {
		fe.Define(fmt.Sprintf("/p%d", i), func(ctx *fragment.Context) ([]byte, error) {
			ctx.Printf("<h1>page</h1>")
			if err := ctx.IncludeInto("frag:a-outer"); err != nil {
				return nil, err
			}
			return ctx.Bytes(), nil
		})
		if _, err := fe.Generate(cache.Key(fmt.Sprintf("/p%d", i)), d.LSN()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Commit(d.NewTx().Put("rows", "score", map[string]string{"v": "7"})); err != nil {
		t.Fatal(err)
	}
	return d, e, store
}

// TestBatchStoreGetsOneCallPerPhase: with a BatchStore the engine hands the
// phase-1 fragments over in one ApplyBatch, in dependency order, and the
// phase-2 page wave in a second one.
func TestBatchStoreGetsOneCallPerPhase(t *testing.T) {
	d, e, store := nestedStack(t, 5)
	res := e.OnChange(d.LSN(), odg.NodeID(db.RowID("rows", "score")))
	if len(res.Errors) > 0 || res.Updated != 7 {
		t.Fatalf("result = %+v, want 7 updated and no errors", res)
	}
	want := []string{
		"batch frag:z-inner frag:a-outer",
		"batch /p0 /p1 /p2 /p3 /p4",
	}
	if got := store.batches(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("batches = %q, want %q", got, want)
	}
	if obj, ok := store.Peek("/p3"); !ok || string(obj.Value) != "<h1>page</h1>[score=7]" {
		t.Fatalf("/p3 = %q, want the fresh assembled page", obj.Value)
	}
}

// TestBatchStoreParallelSameBatches: WithParallelism collects by index, so
// the batches match the sequential engine's exactly.
func TestBatchStoreParallelSameBatches(t *testing.T) {
	const nPages = 24
	seqDB, seq, seqStore := nestedStack(t, nPages)
	parDB, par, parStore := nestedStack(t, nPages, WithParallelism(4))
	seq.OnChange(seqDB.LSN(), odg.NodeID(db.RowID("rows", "score")))
	par.OnChange(parDB.LSN(), odg.NodeID(db.RowID("rows", "score")))
	want, got := seqStore.batches(t), parStore.batches(t)
	if len(want) != 2 {
		t.Fatalf("sequential batches = %q, want 2", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel batches = %q, want %q", got, want)
	}
}

// TestBatchStoreFailedRenderInvalidatesAtOnce: a key whose generator fails
// is invalidated before the wave is handed over, and is not in it.
func TestBatchStoreFailedRenderInvalidatesAtOnce(t *testing.T) {
	boom := errors.New("render failed")
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		if key == "/b" {
			return nil, boom
		}
		return &cache.Object{Key: key, Value: []byte("ok"), Version: version}, nil
	}
	for _, workers := range []int{1, 4} {
		store := newBatchLog()
		e := NewEngine(odg.New(), store, WithGenerator(gen), WithParallelism(workers))
		for _, k := range []cache.Key{"/a", "/b", "/c"} {
			e.RegisterObject(k, []odg.NodeID{"db:x"})
			store.Put(&cache.Object{Key: k, Value: []byte("stale")})
		}
		res := e.OnChange(1, "db:x")
		if res.Updated != 2 || res.Invalidated != 1 || len(res.Errors) != 1 {
			t.Fatalf("workers=%d: result = %+v", workers, res)
		}
		want := []string{"invalidate /b", "batch /a /c"}
		if !reflect.DeepEqual(store.ops, want) {
			t.Fatalf("workers=%d: ops = %q, want %q", workers, store.ops, want)
		}
		if store.Contains("/b") {
			t.Fatalf("workers=%d: known-stale /b left in the cache", workers)
		}
	}
}
