package cache

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"dupserve/internal/db"
)

// TestSharedRowsAndPagesUnderConcurrentWrites exercises the no-copy
// contracts together under the race detector: readers take committed rows
// from db.Get/Scan and read every column, and serve pages from member 0,
// while a writer commits the same keys and broadcasts the rendered pages to
// the whole group. Neither a committed row's columns nor a broadcast Object
// is ever written after it becomes visible, so -race stays silent and every
// read is self-consistent.
func TestSharedRowsAndPagesUnderConcurrentWrites(t *testing.T) {
	const keys, writes, readers = 8, 400, 4
	d := db.New("t")
	d.CreateTable("rows")
	g := NewGroup()
	for i := 0; i < 4; i++ {
		g.Add(New(fmt.Sprintf("up%d", i)))
	}
	serving, _ := g.Get("up0")
	checkRow := func(r db.Row) {
		// The writer stamps one sequence number into every column of a
		// row at once.
		want := r.Cols["seq"]
		for c, v := range r.Cols {
			if v != want {
				t.Errorf("row %s column %s = %q, want %q (torn row)", r.Key, c, v, want)
			}
		}
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				key := fmt.Sprintf("k%d", (i+r)%keys)
				if row, ok, _ := d.Get("rows", key); ok {
					checkRow(row)
				}
				if i%8 == 0 {
					rows, _ := d.Scan("rows", "k")
					for _, row := range rows {
						checkRow(row)
					}
				}
				if o, ok := serving.Get(Key(key)); ok {
					if want := fmt.Sprintf("%s@%d", key, o.Version); string(o.Value) != want {
						t.Errorf("served %q as version %d, want %q", o.Value, o.Version, want)
					}
					if o.StoredAt.IsZero() {
						t.Error("served an object with no StoredAt")
					}
				}
			}
		}(r)
	}

	for w := 1; w <= writes; w++ {
		key := fmt.Sprintf("k%d", w%keys)
		seq := strconv.Itoa(w)
		tx, err := d.Commit(d.NewTx().Put("rows", key, map[string]string{"seq": seq, "a": seq, "b": seq}))
		if err != nil {
			t.Fatal(err)
		}
		row, _, _ := d.Get("rows", key)
		g.BroadcastPut(&Object{
			Key:     Key(key),
			Value:   []byte(fmt.Sprintf("%s@%d", key, tx.LSN)),
			Version: tx.LSN,
		})
		checkRow(row)
	}
	done.Store(true)
	wg.Wait()
}
