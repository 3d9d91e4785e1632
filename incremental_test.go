// Incremental-propagation integration: memoized fragment assembly must be
// byte-for-byte indistinguishable from full recursive re-rendering across a
// seeded update burst, and the consistency auditor must find zero
// incoherent pages in the assembled output.
package dupserve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dupserve/internal/audit"
	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/fragment"
	"dupserve/internal/httpserver"
	"dupserve/internal/odg"
	"dupserve/internal/site"
	"dupserve/internal/trigger"
)

type incrementalStack struct {
	master *db.DB
	site   *site.Site
	engine *core.Engine
	cache  *cache.Cache
	mon    *trigger.Monitor
}

func newIncrementalStack(t *testing.T, name string, fullReRender bool) *incrementalStack {
	t.Helper()
	master := db.New(name)
	graph := odg.New()
	c := cache.New(name)
	var st *site.Site
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return st.Engine.Generate(key, version)
	}
	engine := core.NewEngine(graph, c, core.WithGenerator(gen))
	var err error
	st, err = site.Build(site.DefaultSpec(), master, engine)
	if err != nil {
		t.Fatal(err)
	}
	if fullReRender {
		st.Engine.SetFullReRender(true)
	} else {
		engine.SetAssembler(st.Engine)
	}
	if err := st.PrerenderAll(master.LSN(), func(o *cache.Object) { c.Put(o) }); err != nil {
		t.Fatal(err)
	}
	mon := trigger.New(trigger.Config{DB: master, Engine: engine},
		trigger.WithIndexer(st.Indexer))
	if err := mon.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mon.Shutdown(context.Background()) })
	return &incrementalStack{master: master, site: st, engine: engine, cache: c, mon: mon}
}

// burst applies a deterministic update burst: partial standings, final
// results, and news stories across rng-chosen events.
func (s *incrementalStack) burst(t *testing.T, rng *rand.Rand, rounds int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		ev := s.site.Events[rng.Intn(len(s.site.Events))]
		switch rng.Intn(3) {
		case 0:
			p := ev.Participants[rng.Intn(len(ev.Participants))]
			if _, err := s.site.RecordPartial(ev, p, fmt.Sprintf("%d.%d", 100+rng.Intn(100), rng.Intn(10))); err != nil {
				t.Fatal(err)
			}
		case 1:
			g, sv, b := ev.Participants[0], ev.Participants[1], ev.Participants[2]
			if _, err := s.site.RecordResult(ev, g, sv, b, fmt.Sprintf("%d.%d", 200+rng.Intn(60), rng.Intn(10))); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := s.site.PublishNews(i, fmt.Sprintf("Story %d from %s", i, ev.Sport), "body"); err != nil {
				t.Fatal(err)
			}
		}
		s.mon.Flush()
	}
}

// TestAssemblyByteIdenticalToFullReRender runs the same seeded burst
// through an assembled stack and a full-re-render stack and requires every
// cached page to match byte for byte — memoization must never change
// output, only skip redundant work.
func TestAssemblyByteIdenticalToFullReRender(t *testing.T) {
	asm := newIncrementalStack(t, "asm", false)
	full := newIncrementalStack(t, "full", true)

	asm.burst(t, rand.New(rand.NewSource(42)), 30)
	full.burst(t, rand.New(rand.NewSource(42)), 30)

	st := asm.engine.Stats()
	if st.FragmentRenders == 0 {
		t.Fatal("assembled stack recorded no fragment renders across the burst")
	}
	if st.FragmentReuses == 0 {
		t.Fatal("assembled stack recorded no fragment reuses across the burst")
	}
	pages := asm.site.Pages()
	if len(pages) == 0 {
		t.Fatal("no pages")
	}
	diffs := 0
	for _, p := range pages {
		a, aok := asm.cache.Peek(cache.Key(p))
		f, fok := full.cache.Peek(cache.Key(p))
		if aok != fok {
			t.Fatalf("page %s cached=%v in assembled, cached=%v in full", p, aok, fok)
		}
		if !aok {
			continue
		}
		if !bytes.Equal(a.Value, f.Value) {
			diffs++
			if diffs <= 3 {
				t.Errorf("page %s diverged:\n  assembled: %.120q\n  full:      %.120q", p, a.Value, f.Value)
			}
		}
	}
	if diffs > 0 {
		t.Fatalf("%d of %d pages diverged between assembly and full re-render", diffs, len(pages))
	}
}

// TestAssembledPagesAuditCoherent feeds every assembled page to the
// consistency auditor as a served sample: the shadow-render sweep must
// classify zero pages as incoherent.
func TestAssembledPagesAuditCoherent(t *testing.T) {
	s := newIncrementalStack(t, "audited", false)
	s.burst(t, rand.New(rand.NewSource(7)), 20)

	spec := site.DefaultSpec()
	aud := audit.New(audit.Config{
		Name:    "audited",
		Replica: s.master,
		Build: func(sdb *db.DB, sreg fragment.Registrar) (*fragment.Engine, []string, error) {
			rs, err := site.BuildReplica(spec, sdb, sreg)
			if err != nil {
				return nil, nil, err
			}
			return rs.Engine, rs.Pages(), nil
		},
		Indexer: func(ch db.Change) []odg.NodeID { return s.site.Indexer(ch) },
	})
	for _, p := range s.site.Pages() {
		obj, ok := s.cache.Peek(cache.Key(p))
		if !ok {
			continue
		}
		aud.Observe(httpserver.ResponseSample{Path: p,
			Outcome: httpserver.OutcomeHit, Object: obj})
	}
	rep, err := aud.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Incoherent != 0 {
		t.Fatalf("auditor found %d incoherent assembled pages: %v", rep.Incoherent, rep.IncoherentPages)
	}
	if rep.Coherent == 0 {
		t.Fatal("auditor classified no pages as coherent")
	}
}
