package audit_test

import (
	"sync"
	"testing"
	"time"

	"dupserve/internal/audit"
	"dupserve/internal/cache"
	"dupserve/internal/db"
	"dupserve/internal/fragment"
	"dupserve/internal/httpserver"
	"dupserve/internal/obs"
	"dupserve/internal/site"
)

// tinySite defines a single page reading one row through the context —
// a minimal correct site for classification tests.
func tinySite(database *db.DB, reg fragment.Registrar) (*fragment.Engine, []string, error) {
	fe := fragment.New(fragment.Config{DB: database, Registrar: reg})
	fe.Define("/p", func(ctx *fragment.Context) ([]byte, error) {
		row, _, err := ctx.Get("t", "k")
		if err != nil {
			return nil, err
		}
		return []byte("v=" + row.Cols["v"]), nil
	})
	return fe, []string{"/p"}, nil
}

func seedTiny(t *testing.T) *db.DB {
	t.Helper()
	master := db.New("tiny")
	master.CreateTable("t")
	if _, err := master.Commit(master.NewTx().
		Put("t", "k", map[string]string{"v": "1"})); err != nil {
		t.Fatal(err)
	}
	return master
}

func page(body string, version int64) *cache.Object {
	return &cache.Object{Key: "/p", Value: []byte(body), Version: version}
}

// TestClassification drives one crafted sample through every verdict the
// classifier can return and checks the report's exact counts.
func TestClassification(t *testing.T) {
	master := seedTiny(t)
	tracer := obs.NewSuite(obs.WithSLO(time.Second)).Tracer
	aud := audit.New(audit.Config{
		Name:        "tiny",
		Replica:     master,
		Build:       tinySite,
		Tracer:      tracer,
		StaleBudget: time.Minute,
	})

	// Second commit: the shadow snapshot will sit at LSN 2 with body v=2.
	if _, err := master.Commit(master.NewTx().
		Put("t", "k", map[string]string{"v": "2"})); err != nil {
		t.Fatal(err)
	}

	// Coherent: served bytes match the shadow render.
	aud.Observe(httpserver.ResponseSample{Path: "/p",
		Outcome: httpserver.OutcomeHit, Object: page("v=2", 2)})
	// Bounded-stale: old bytes, but the v=2 commit is in the retained log
	// and reaches /p through the graph — propagation lag, not a bug.
	aud.Observe(httpserver.ResponseSample{Path: "/p",
		Outcome: httpserver.OutcomeHit, Object: page("v=1", 1)})
	// Bounded-stale by contract: a degraded serve inside its budget.
	aud.Observe(httpserver.ResponseSample{Path: "/p",
		Outcome: httpserver.OutcomeStale, Object: page("v=1", 1),
		StaleAge: time.Second})
	// Incoherent: divergent bytes at the snapshot's own LSN — no later
	// change exists to explain them.
	aud.Observe(httpserver.ResponseSample{Path: "/p",
		Outcome: httpserver.OutcomeHit, Object: page("garbage", 2)})
	// Shed: no body to check.
	aud.Observe(httpserver.ResponseSample{Path: "/p",
		Outcome: httpserver.OutcomeShed})
	// Unchecked: a path outside the shadow page set.
	aud.Observe(httpserver.ResponseSample{Path: "/nope",
		Outcome: httpserver.OutcomeHit, Object: &cache.Object{Key: "/nope", Value: []byte("x")}})
	// SLO-violating: stale bytes captured while a propagation two seconds
	// old (twice the SLO) was still in flight.
	tracer.Arrive(99, time.Now().Add(-2*time.Second))
	aud.Observe(httpserver.ResponseSample{Path: "/p",
		Outcome: httpserver.OutcomeHit, Object: page("v=1", 1)})

	rep, err := aud.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 7 {
		t.Fatalf("samples=%d, want 7", rep.Samples)
	}
	if rep.Coherent != 1 || rep.BoundedStale != 2 || rep.ViolatingStale != 1 ||
		rep.Incoherent != 1 || rep.Shed != 1 || rep.Unchecked != 1 {
		t.Fatalf("verdicts: %+v", rep)
	}
	if len(rep.IncoherentPages) != 1 || rep.IncoherentPages[0] != "/p" {
		t.Fatalf("incoherent pages = %v, want [/p]", rep.IncoherentPages)
	}
	// The tiny site is correct: no completeness findings.
	if len(rep.MissingEdges) != 0 || len(rep.SuperfluousEdges) != 0 {
		t.Fatalf("completeness diff on a correct site: missing=%v superfluous=%v",
			rep.MissingEdges, rep.SuperfluousEdges)
	}
}

// TestSweepDrainsSamples checks that a sweep consumes the buffer: the
// next sweep classifies nothing.
func TestSweepDrainsSamples(t *testing.T) {
	master := seedTiny(t)
	aud := audit.New(audit.Config{Replica: master, Build: tinySite})
	aud.Observe(httpserver.ResponseSample{Path: "/p",
		Outcome: httpserver.OutcomeHit, Object: page("v=1", 1)})
	rep, err := aud.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 1 {
		t.Fatalf("first sweep samples=%d, want 1", rep.Samples)
	}
	rep, err = aud.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 0 {
		t.Fatalf("second sweep samples=%d, want 0", rep.Samples)
	}
}

// TestBufferBound checks the bounded sample buffer drops and counts
// overflow instead of growing.
func TestBufferBound(t *testing.T) {
	master := seedTiny(t)
	aud := audit.New(audit.Config{Replica: master, Build: tinySite, MaxSamples: 2})
	for i := 0; i < 5; i++ {
		aud.Observe(httpserver.ResponseSample{Path: "/p",
			Outcome: httpserver.OutcomeHit, Object: page("v=1", 1)})
	}
	rep, err := aud.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 2 {
		t.Fatalf("samples=%d, want 2 (MaxSamples)", rep.Samples)
	}
	if rep.Dropped != 3 {
		t.Fatalf("dropped=%d, want 3", rep.Dropped)
	}
}

// TestCompletenessCleanOnRealSite sweeps the full Olympic site and
// requires a clean completeness diff: every read the renderers perform is
// declared, and nothing declared goes unread. This is the standing proof
// that the production ODG is complete and minimal.
func TestCompletenessCleanOnRealSite(t *testing.T) {
	spec := site.Spec{
		Sports: 2, EventsPerSport: 2, Athletes: 12, Countries: 4,
		NewsStories: 2, Days: 2, EventsPerAthlete: 1, Languages: []string{"en"},
	}
	master := db.New("master")
	st, err := site.Build(spec, master, nil)
	if err != nil {
		t.Fatal(err)
	}
	aud := audit.New(audit.Config{
		Name:    "real",
		Replica: master,
		Build: func(sdb *db.DB, reg fragment.Registrar) (*fragment.Engine, []string, error) {
			s, err := site.BuildReplica(spec, sdb, reg)
			if err != nil {
				return nil, nil, err
			}
			return s.Engine, s.Pages(), nil
		},
		Indexer: st.Indexer,
	})
	rep, err := aud.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pages != len(st.Pages()) || rep.Pages == 0 {
		t.Fatalf("pages=%d, want %d", rep.Pages, len(st.Pages()))
	}
	if len(rep.MissingEdges) != 0 {
		t.Fatalf("missing edges on the real site: %v", rep.MissingEdges)
	}
	if len(rep.SuperfluousEdges) != 0 {
		t.Fatalf("superfluous edges on the real site: %v", rep.SuperfluousEdges)
	}
	if rep.Incoherent != 0 {
		t.Fatalf("incoherent samples on the real site: %+v", rep)
	}
}

// TestObserveConcurrentWithSweep exercises the Observe/Sweep locking under
// the race detector.
func TestObserveConcurrentWithSweep(t *testing.T) {
	master := seedTiny(t)
	aud := audit.New(audit.Config{Replica: master, Build: tinySite})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				aud.Observe(httpserver.ResponseSample{Path: "/p",
					Outcome: httpserver.OutcomeHit, Object: page("v=1", 1)})
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if _, err := aud.Sweep(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if _, err := aud.Sweep(); err != nil {
		t.Fatal(err)
	}
}
