// Newsroom: fragment composition plus the asynchronous trigger monitor.
//
// A front page embeds two fragments — a headlines list and a stock-style
// medals ticker. Stories and scores are committed to the database; the
// trigger monitor picks the changes off the database's feed, runs DUP, and
// the fragments and every page embedding them are regenerated in place.
// The dependency graph is never written by hand: it is learned from what
// each renderer reads.
//
//	go run ./examples/newsroom
package main

import (
	"context"
	"fmt"
	"log"

	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/fragment"
	"dupserve/internal/odg"
	"dupserve/internal/trigger"
)

func main() {
	database := db.New("newsroom")
	database.CreateTable("stories")
	database.CreateTable("scores")

	pages := cache.New("pages")
	graph := odg.New()

	var engine *core.Engine
	var fragments *fragment.Engine
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return fragments.Generate(key, version)
	}
	engine = core.NewEngine(graph, pages, core.WithGenerator(gen))
	fragments = fragment.New(fragment.Config{DB: database, Registrar: engine})

	// Fragments: headlines (scans the stories table) and a ticker (reads
	// one row).
	fragments.Define("frag:headlines", func(ctx *fragment.Context) ([]byte, error) {
		rows, err := ctx.Scan("stories", "")
		if err != nil {
			return nil, err
		}
		ctx.Printf("<ul>")
		for _, r := range rows {
			ctx.Printf("<li>%s</li>", r.Cols["headline"])
		}
		ctx.Printf("</ul>")
		return ctx.Bytes(), nil
	})
	fragments.Define("frag:ticker", func(ctx *fragment.Context) ([]byte, error) {
		row, ok, err := ctx.Get("scores", "medals")
		if err != nil {
			return nil, err
		}
		if !ok {
			return []byte("<em>no medals yet</em>"), nil
		}
		return []byte("<em>medal count: " + row.Cols["total"] + "</em>"), nil
	})

	// Two pages embed the fragments.
	fragments.Define("/front", func(ctx *fragment.Context) ([]byte, error) {
		ctx.Printf("<h1>Front page</h1>")
		if err := ctx.IncludeInto("frag:headlines"); err != nil {
			return nil, err
		}
		if err := ctx.IncludeInto("frag:ticker"); err != nil {
			return nil, err
		}
		return ctx.Bytes(), nil
	})
	fragments.Define("/scores", func(ctx *fragment.Context) ([]byte, error) {
		ctx.Printf("<h1>Scores</h1>")
		if err := ctx.IncludeInto("frag:ticker"); err != nil {
			return nil, err
		}
		return ctx.Bytes(), nil
	})

	// Prime the cache; registration happens as a side effect of rendering.
	for _, p := range []string{"/front", "/scores"} {
		obj, err := fragments.Generate(cache.Key(p), database.LSN())
		if err != nil {
			log.Fatal(err)
		}
		pages.Put(obj)
	}

	// The indexer adds the table-scan membership index for story inserts.
	indexer := func(c db.Change) []odg.NodeID {
		ids := []odg.NodeID{odg.NodeID(c.ChangeID())}
		if c.Table == "stories" && (c.Created || c.Op == db.OpDelete) {
			ids = append(ids, odg.NodeID(fragment.IndexID("stories", "")))
		}
		return ids
	}
	mon := trigger.New(trigger.Config{DB: database, Engine: engine},
		trigger.WithIndexer(indexer))
	if err := mon.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	defer mon.Shutdown(context.Background())

	show := func(label string) {
		fmt.Printf("\n-- %s --\n", label)
		for _, p := range []string{"/front", "/scores"} {
			obj, _ := pages.Peek(cache.Key(p))
			fmt.Printf("%-8s v%-2d %s\n", p, obj.Version, obj.Value)
		}
	}
	show("initial")

	// A story publishes: the headlines fragment and /front change; /scores
	// is untouched.
	if _, err := database.Commit(database.NewTx().
		Put("stories", "s1", map[string]string{"headline": "Lipinski lands the triple loop"})); err != nil {
		log.Fatal(err)
	}
	mon.Flush()
	show("after story s1")

	// A score update: the ticker fragment and BOTH pages change.
	if _, err := database.Commit(database.NewTx().
		Put("scores", "medals", map[string]string{"total": "7"})); err != nil {
		log.Fatal(err)
	}
	mon.Flush()
	show("after medal update")

	st := mon.Stats()
	fmt.Printf("\ntrigger monitor: %d batches, %d pages updated, freshness max %.3fs\n",
		st.Batches, st.PagesUpdated, st.LatencyMax)
	fmt.Printf("cache hit rate so far: %s\n", ratio(pages.Stats()))
}

func ratio(s cache.Stats) string {
	return fmt.Sprintf("%.0f%% (%d hits / %d misses)", 100*s.HitRate(), s.Hits, s.Misses)
}
