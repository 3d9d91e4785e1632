// Missingedge: the consistency auditor catching a real ODG bug.
//
// Three pages render from a "scores" table. /scoreboard plays by the
// rules: it reads through the fragment context, so every row it touches
// becomes an ODG edge. /champion cheats — it reads team:alpha straight
// from the database, bypassing the context — so the graph never learns
// the page depends on that row. /history declares a dependency on a row
// it never reads.
//
// When team:alpha's score changes, DUP refreshes /scoreboard in place
// and leaves /champion alone: the cache keeps serving the old champion
// as a "hit" forever. No amount of propagation testing notices, because
// propagation did exactly what the (wrong) graph said. The audit sweep
// does notice, twice over: the shadow render proves /champion's served
// bytes match no explainable state (incoherent), and the read-tracking
// completeness diff names the exact missing edge — and /history's
// superfluous one.
//
//	go run ./examples/missingedge
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"dupserve/internal/audit"
	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/fragment"
	"dupserve/internal/httpserver"
	"dupserve/internal/odg"
)

const (
	pageScoreboard = "/scoreboard"
	pageChampion   = "/champion"
	pageHistory    = "/history"
)

// buildSite defines the three pages against database, reporting
// dependency registrations to reg. It has the audit.SiteBuilder shape, so
// the same builder constructs both the live site and the auditor's shadow
// site.
func buildSite(database *db.DB, reg fragment.Registrar) (*fragment.Engine, []string, error) {
	fe := fragment.New(fragment.Config{DB: database, Registrar: reg})

	// Correct: every read goes through the context, so the ODG sees it.
	fe.Define(pageScoreboard, func(ctx *fragment.Context) ([]byte, error) {
		rows, err := ctx.Scan("scores", "team:")
		if err != nil {
			return nil, err
		}
		body := "<h1>Scoreboard</h1>"
		for _, r := range rows {
			body += fmt.Sprintf("<p>%s: %s</p>", r.Key, r.Cols["points"])
		}
		return []byte(body), nil
	})

	// THE BUG: the renderer reads team:alpha directly from the database,
	// bypassing the context. The dependence graph never learns this page
	// depends on that row, so updates to it will not propagate here.
	fe.Define(pageChampion, func(ctx *fragment.Context) ([]byte, error) {
		row, _, err := database.Get("scores", "team:alpha")
		if err != nil {
			return nil, err
		}
		return []byte(fmt.Sprintf("<h1>Champion</h1><p>alpha at %s points</p>", row.Cols["points"])), nil
	})

	// The opposite mistake: a declared dependency on a row the renderer
	// never reads. Harmless to correctness, but every write to that row
	// would regenerate this page for nothing.
	fe.Define(pageHistory, func(ctx *fragment.Context) ([]byte, error) {
		ctx.DependOn(odg.NodeID(db.RowID("scores", "team:retired")))
		return []byte("<h1>History</h1><p>No champions retired yet.</p>"), nil
	})

	return fe, []string{pageScoreboard, pageChampion, pageHistory}, nil
}

// runDemo builds the buggy site, propagates one change, serves every page
// through an audited node, and returns the sweep's report.
func runDemo(out io.Writer) (*audit.Report, error) {
	master := db.New("master")
	master.CreateTable("scores")
	if _, err := master.Commit(master.NewTx().
		Put("scores", "team:alpha", map[string]string{"points": "12"}).
		Put("scores", "team:bravo", map[string]string{"points": "9"})); err != nil {
		return nil, err
	}

	// Live plant: one cache, a DUP engine over the live graph, the site's
	// renderers, and a serving node tapped by the auditor.
	graph := odg.New()
	pages := cache.New("pages")
	var fe *fragment.Engine
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return fe.Generate(key, version)
	}
	engine := core.NewEngine(graph, pages, core.WithGenerator(gen))
	fe, pagePaths, err := buildSite(master, engine)
	if err != nil {
		return nil, err
	}
	for _, p := range pagePaths {
		obj, err := fe.Generate(cache.Key(p), master.LSN())
		if err != nil {
			return nil, err
		}
		pages.Put(obj)
	}

	aud := audit.New(audit.Config{Name: "missingedge", Replica: master, Build: buildSite})
	srv := httpserver.New("node0", pages, gen, master.LSN,
		httpserver.WithResponseTap(aud.Observe))

	// The championship turns: team:alpha's score changes, and DUP
	// propagates along the graph it was given. /scoreboard refreshes in
	// place; /champion — its dependency undeclared — keeps the old bytes.
	tx, err := master.Commit(master.NewTx().
		Put("scores", "team:alpha", map[string]string{"points": "15"}))
	if err != nil {
		return nil, err
	}
	changed := make([]odg.NodeID, 0, len(tx.Changes))
	for _, c := range tx.Changes {
		changed = append(changed, odg.NodeID(c.ChangeID()))
	}
	res := engine.OnChange(tx.LSN, changed...)
	fmt.Fprintf(out, "change at LSN %d: %d affected, %d updated in place\n",
		tx.LSN, res.Affected, res.Updated)

	// Every page serves as a cache hit — including the stale champion.
	for _, p := range pagePaths {
		if _, _, err := srv.Serve(p); err != nil {
			return nil, err
		}
	}

	rep, err := aud.Sweep()
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out)
	if err := rep.WriteJSON(out); err != nil {
		return nil, err
	}
	return rep, nil
}

func main() {
	rep, err := runDemo(os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	if rep.Incoherent == 0 || len(rep.MissingEdges) == 0 {
		log.Fatal("missingedge: the audit failed to flag the planted bug")
	}
	fmt.Println("\nthe audit caught the planted bug: /champion reads a row the ODG never declared")
}
