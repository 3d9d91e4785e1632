// Package dupserve's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (see DESIGN.md's experiment index), plus
// ablations for the design choices DUP rests on. The full series outputs
// are produced by cmd/simulate; these benches measure the per-operation
// costs that generate them, so `go test -bench . -benchmem` doubles as the
// performance regression suite.
package dupserve

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/dispatch"
	"dupserve/internal/httpserver"
	"dupserve/internal/netsim"
	"dupserve/internal/odg"
	"dupserve/internal/routing"
	"dupserve/internal/sim"
	"dupserve/internal/site"
	"dupserve/internal/trigger"
	"dupserve/internal/workload"
)

// buildStack wires db + site + engine + one serving cache, primed.
func buildStack(b *testing.B, policy core.Policy) (*site.Site, *core.Engine, *cache.Cache) {
	b.Helper()
	master := db.New("bench")
	graph := odg.New()
	c := cache.New("bench")
	var st *site.Site
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return st.Engine.Generate(key, version)
	}
	var opts []core.Option
	switch policy {
	case core.PolicyInvalidate:
		opts = []core.Option{core.WithPolicy(policy)}
	case core.PolicyConservative:
		opts = []core.Option{core.WithPolicy(policy),
			core.WithConservativeMapper(func(id odg.NodeID) []string { return st.ConservativeMapper(id) })}
	default:
		opts = []core.Option{core.WithGenerator(gen)}
	}
	engine := core.NewEngine(graph, c, opts...)
	var err error
	st, err = site.Build(site.DefaultSpec(), master, engine)
	if err != nil {
		b.Fatal(err)
	}
	engine.SetAssembler(st.Engine)
	if err := st.PrerenderAll(master.LSN(), func(o *cache.Object) { c.Put(o) }); err != nil {
		b.Fatal(err)
	}
	return st, engine, c
}

// propagateLast pushes the transaction through the engine as the trigger
// monitor would.
func propagateLast(st *site.Site, e *core.Engine, tx db.Transaction) core.Result {
	var changed []odg.NodeID
	for _, ch := range tx.Changes {
		changed = append(changed, st.Indexer(ch)...)
	}
	return e.OnChange(tx.LSN, changed...)
}

// --- E1: hit-rate policies (full series: cmd/simulate -experiment hitrate)

func BenchmarkE1_HitRates(b *testing.B) {
	for _, pc := range []struct {
		name   string
		policy core.Policy
	}{
		{"UpdateInPlace", core.PolicyUpdateInPlace},
		{"Invalidate", core.PolicyInvalidate},
		{"Conservative", core.PolicyConservative},
	} {
		b.Run(pc.name, func(b *testing.B) {
			st, engine, c := buildStack(b, pc.policy)
			ev := st.Events[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, err := st.RecordPartial(ev, ev.Participants[i%len(ev.Participants)], fmt.Sprint(i))
				if err != nil {
					b.Fatal(err)
				}
				propagateLast(st, engine, tx)
				// One request for the affected event page, as a client
				// arriving right after the update.
				c.Get(cache.Key("/en/sports/" + ev.Sport + "/" + ev.Key))
			}
		})
	}
}

// --- E2: server throughput (paper: cached dynamic pages at static-page
// rates; CGI orders of magnitude slower)

func BenchmarkE2_ServerThroughput(b *testing.B) {
	page := make([]byte, 10*1024)
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		v := make([]byte, len(page))
		copy(v, page)
		return &cache.Object{Key: key, Value: v}, nil
	}
	b.Run("Static", func(b *testing.B) {
		s := httpserver.New("n", cache.New("c"), nil, nil)
		s.SetStatic("/s", page, "text/html")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Serve("/s")
		}
	})
	b.Run("CachedDynamic", func(b *testing.B) {
		c := cache.New("c")
		c.Put(&cache.Object{Key: "/d", Value: page})
		s := httpserver.New("n", c, gen, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Serve("/d")
		}
	})
	b.Run("UncachedDynamic", func(b *testing.B) {
		s := httpserver.New("n", nil, gen, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Serve("/d")
		}
	})
	b.Run("UncachedCGI", func(b *testing.B) {
		s := httpserver.New("n", nil, gen, nil,
			httpserver.WithOverhead(httpserver.SpinOverhead(200000)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Serve("/d")
		}
	})
}

// --- E3/E4/E5/E7: workload generation feeding figures 18, 20, 21, 23

func BenchmarkE3_WorkloadSampling(b *testing.B) {
	st, _, _ := buildStack(b, core.PolicyUpdateInPlace)
	m := workload.New(workload.Config{Seed: 1, TotalHits: 1 << 20, Spikes: workload.PaperSpikes()}, st)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		day := 1 + i%st.Spec.Days
		region := m.SampleRegion(rng)
		_ = m.HitsForHour(day, i%24, region)
		_ = m.SamplePage(rng, day, region)
	}
}

func BenchmarkE4_SimulatedDay(b *testing.B) {
	// One full simulated day at toy scale per iteration: the unit of
	// figures 20/21.
	spec := site.Spec{
		Sports: 2, EventsPerSport: 2, Athletes: 40, Countries: 4,
		NewsStories: 5, Days: 1, EventsPerAthlete: 1, Languages: []string{"en"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			Seed: int64(i), SiteSpec: spec, TotalHits: 2000,
			Policy: core.PolicyUpdateInPlace, Frames: 1, NodesPerFrame: 2,
			PartialsPerEvent: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6/E8/E9: response-time model behind figure 22 and tables 1-2

func BenchmarkE6_ResponseModel(b *testing.B) {
	link := netsim.Modem288()
	page := netsim.HomePage1998()
	for i := 0; i < b.N; i++ {
		netsim.FetchTime(link, page, 2*time.Millisecond, 1.3)
	}
}

func BenchmarkE8_ResponseNonUSA(b *testing.B) {
	link := netsim.Modem288()
	profile := netsim.SiteProfile{Name: "olympics", Page: netsim.HomePage1998(), ServerTime: 2 * time.Millisecond, PathCongestion: 1}
	for i := 0; i < b.N; i++ {
		netsim.Measure(link, profile)
	}
}

func BenchmarkE9_ResponseUSA(b *testing.B) {
	link := netsim.Modem288()
	profile := netsim.SiteProfile{Name: "aol", Page: netsim.PageSpec{Bytes: 55 * 1024, Objects: 16}, ServerTime: 90 * time.Millisecond, PathCongestion: 1.2}
	for i := 0; i < b.N; i++ {
		netsim.Measure(link, profile)
	}
}

// --- E10: peak routing (request path under spike traffic)

func BenchmarkE10_PeakRouting(b *testing.B) {
	r := routing.NewRouter(routing.NumAddresses)
	node := nodeFunc(func(path string) (*cache.Object, httpserver.Outcome, error) {
		return &cache.Object{Key: cache.Key(path), Value: []byte("x")}, httpserver.OutcomeHit, nil
	})
	names := []string{"tokyo", "schaumburg", "columbus", "bethesda"}
	for _, n := range names {
		r.AddComplex(n, named{n, node}, map[routing.Region]int{routing.RegionJapan: 10, routing.RegionUS: 20})
	}
	if err := r.AdvertiseSpread(names, 10, 20); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := r.Request(routing.RegionJapan, "/home"); err != nil {
			b.Fatal(err)
		}
	}
}

type nodeFunc func(path string) (*cache.Object, httpserver.Outcome, error)

type named struct {
	name string
	fn   nodeFunc
}

func (n named) Name() string { return n.name }
func (n named) Serve(path string) (*cache.Object, httpserver.Outcome, error) {
	return n.fn(path)
}

// --- E12: failover path cost

func BenchmarkE12_Failover(b *testing.B) {
	healthy := named{"ok", func(path string) (*cache.Object, httpserver.Outcome, error) {
		return &cache.Object{Key: cache.Key(path), Value: []byte("x")}, httpserver.OutcomeHit, nil
	}}
	b.Run("HealthyPool", func(b *testing.B) {
		d := dispatch.New(dispatch.Config{Name: "nd", Nodes: []dispatch.Node{named{"a", healthy.fn}, named{"b", healthy.fn}}})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Serve("/p")
		}
	})
	b.Run("OneNodeDown", func(b *testing.B) {
		d := dispatch.New(dispatch.Config{Name: "nd", Nodes: []dispatch.Node{named{"a", healthy.fn}, named{"b", healthy.fn}, named{"c", healthy.fn}}})
		d.MarkDown("a")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Serve("/p")
		}
	})
}

// --- E14: one result update fanning out to ~100+ pages

func BenchmarkE14_UpdateFanout(b *testing.B) {
	st, engine, _ := buildStack(b, core.PolicyUpdateInPlace)
	ev := st.Events[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := st.RecordResult(ev,
			ev.Participants[i%len(ev.Participants)],
			ev.Participants[(i+1)%len(ev.Participants)],
			ev.Participants[(i+2)%len(ev.Participants)],
			fmt.Sprint(i))
		if err != nil {
			b.Fatal(err)
		}
		res := propagateLast(st, engine, tx)
		if res.Updated == 0 {
			b.Fatal("no fan-out")
		}
	}
}

// --- E15: MSIRP route computation and traffic shifting

func BenchmarkE15_MSIRP(b *testing.B) {
	r := routing.NewRouter(routing.NumAddresses)
	names := []string{"tokyo", "schaumburg", "columbus", "bethesda"}
	node := named{"n", func(path string) (*cache.Object, httpserver.Outcome, error) {
		return &cache.Object{Key: cache.Key(path)}, httpserver.OutcomeHit, nil
	}}
	for _, n := range names {
		r.AddComplex(n, named{n, node.fn}, map[routing.Region]int{routing.RegionUS: 10})
	}
	if err := r.AdvertiseSpread(names, 10, 20); err != nil {
		b.Fatal(err)
	}
	b.Run("Route", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Route(routing.RegionUS, routing.Address(i%12))
		}
	})
	b.Run("PrimaryShare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.PrimaryShare(routing.RegionUS, "tokyo")
		}
	})
}

// --- E16: full trigger pipeline latency (commit -> propagated)

func BenchmarkE16_TriggerPipeline(b *testing.B) {
	master := db.New("bench")
	graph := odg.New()
	c := cache.New("bench")
	var st *site.Site
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return st.Engine.Generate(key, version)
	}
	engine := core.NewEngine(graph, c, core.WithGenerator(gen))
	var err error
	st, err = site.Build(site.DefaultSpec(), master, engine)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.PrerenderAll(master.LSN(), func(o *cache.Object) { c.Put(o) }); err != nil {
		b.Fatal(err)
	}
	mon := trigger.New(trigger.Config{DB: master, Engine: engine},
		trigger.WithIndexer(st.Indexer))
	if err := mon.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	defer mon.Shutdown(context.Background())
	ev := st.Events[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.RecordPartial(ev, ev.Participants[i%len(ev.Participants)], fmt.Sprint(i)); err != nil {
			b.Fatal(err)
		}
		mon.Flush()
	}
}

// --- E15: incremental propagation — memoized assembly vs full re-render

// BenchmarkE15_IncrementalPropagation drives Olympic update bursts through
// the full trigger -> engine -> cache path twice: once with the memoized
// assembler (each changed fragment renders once per batch, containing pages
// splice cached bytes) and once in the full-re-render baseline where every
// Include recursively regenerates its fragment. renders/op and reuses/op
// expose the render-vs-reuse accounting alongside the wall-clock delta.
func BenchmarkE15_IncrementalPropagation(b *testing.B) {
	run := func(b *testing.B, fullReRender bool) {
		master := db.New("bench")
		graph := odg.New()
		c := cache.New("bench")
		var st *site.Site
		gen := func(key cache.Key, version int64) (*cache.Object, error) {
			return st.Engine.Generate(key, version)
		}
		engine := core.NewEngine(graph, c, core.WithGenerator(gen))
		var err error
		st, err = site.Build(site.DefaultSpec(), master, engine)
		if err != nil {
			b.Fatal(err)
		}
		if fullReRender {
			st.Engine.SetFullReRender(true)
		} else {
			engine.SetAssembler(st.Engine)
		}
		if err := st.PrerenderAll(master.LSN(), func(o *cache.Object) { c.Put(o) }); err != nil {
			b.Fatal(err)
		}
		mon := trigger.New(trigger.Config{DB: master, Engine: engine},
			trigger.WithIndexer(st.Indexer))
		if err := mon.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		defer mon.Shutdown(context.Background())
		r0, u0 := st.Engine.Accounting()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A final result changes the medal-standings fragment, which is
			// embedded across home/medals pages — the paper's canonical
			// one-update-many-pages burst.
			ev := st.Events[i%len(st.Events)]
			if _, err := st.RecordResult(ev, ev.Participants[0], ev.Participants[1],
				ev.Participants[2], fmt.Sprint(i)); err != nil {
				b.Fatal(err)
			}
			mon.Flush()
		}
		b.StopTimer()
		r1, u1 := st.Engine.Accounting()
		b.ReportMetric(float64(r1-r0)/float64(b.N), "renders/op")
		b.ReportMetric(float64(u1-u0)/float64(b.N), "reuses/op")
	}
	b.Run("assembled", func(b *testing.B) { run(b, false) })
	b.Run("full-rerender", func(b *testing.B) { run(b, true) })
}

// --- Ablations -----------------------------------------------------------

// Simple-ODG fast path vs general weighted traversal for the same fan-out.
func BenchmarkAblation_SimpleVsGeneralODG(b *testing.B) {
	build := func(weighted bool) *odg.Graph {
		g := odg.New()
		for s := 0; s < 100; s++ {
			src := odg.NodeID(fmt.Sprintf("db%d", s))
			for i := 0; i < 64; i++ {
				to := odg.NodeID(fmt.Sprintf("p%d-%d", s, i))
				if weighted {
					if err := g.AddWeightedEdge(src, to, 2); err != nil {
						b.Fatal(err)
					}
				} else if err := g.AddEdge(src, to); err != nil {
					b.Fatal(err)
				}
			}
		}
		return g
	}
	b.Run("Simple", func(b *testing.B) {
		g := build(false)
		if !g.IsSimple() {
			b.Fatal("expected simple graph")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Affected(odg.NodeID(fmt.Sprintf("db%d", i%100)))
		}
	})
	b.Run("General", func(b *testing.B) {
		g := build(true)
		if g.IsSimple() {
			b.Fatal("expected general graph")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Affected(odg.NodeID(fmt.Sprintf("db%d", i%100)))
		}
	})
}

// Update-in-place vs invalidate-then-regenerate-on-miss for one hot page.
func BenchmarkAblation_UpdateVsInvalidate(b *testing.B) {
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return &cache.Object{Key: key, Value: make([]byte, 4096), Version: version}, nil
	}
	b.Run("UpdateInPlace", func(b *testing.B) {
		c := cache.New("c")
		g := odg.New()
		e := core.NewEngine(g, c, core.WithGenerator(gen))
		e.RegisterObject("/hot", []odg.NodeID{"db:row"})
		srv := httpserver.New("n", c, gen, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.OnChange(int64(i), "db:row")
			if _, out, _ := srv.Serve("/hot"); out != httpserver.OutcomeHit {
				b.Fatal("expected hit")
			}
		}
	})
	b.Run("InvalidateThenMiss", func(b *testing.B) {
		c := cache.New("c")
		g := odg.New()
		e := core.NewEngine(g, c, core.WithPolicy(core.PolicyInvalidate))
		e.RegisterObject("/hot", []odg.NodeID{"db:row"})
		srv := httpserver.New("n", c, gen, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.OnChange(int64(i), "db:row")
			if _, out, _ := srv.Serve("/hot"); out != httpserver.OutcomeMiss {
				b.Fatal("expected miss")
			}
		}
	})
}

// Per-transaction propagation vs batching 16 transactions per sweep.
func BenchmarkAblation_BatchedTriggers(b *testing.B) {
	setup := func() (*site.Site, *core.Engine) {
		st, e, _ := buildStack(b, core.PolicyUpdateInPlace)
		return st, e
	}
	b.Run("PerTransaction", func(b *testing.B) {
		st, e := setup()
		ev := st.Events[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 16; j++ {
				tx, err := st.RecordPartial(ev, ev.Participants[j%len(ev.Participants)], fmt.Sprint(i, j))
				if err != nil {
					b.Fatal(err)
				}
				propagateLast(st, e, tx)
			}
		}
	})
	b.Run("Batched16", func(b *testing.B) {
		st, e := setup()
		ev := st.Events[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var txs []db.Transaction
			for j := 0; j < 16; j++ {
				tx, err := st.RecordPartial(ev, ev.Participants[j%len(ev.Participants)], fmt.Sprint(i, j))
				if err != nil {
					b.Fatal(err)
				}
				txs = append(txs, tx)
			}
			// One propagation for the whole batch, deduped — what the
			// trigger monitor's window does.
			seen := map[odg.NodeID]struct{}{}
			var changed []odg.NodeID
			var lsn int64
			for _, tx := range txs {
				if tx.LSN > lsn {
					lsn = tx.LSN
				}
				for _, ch := range tx.Changes {
					for _, id := range st.Indexer(ch) {
						if _, ok := seen[id]; !ok {
							seen[id] = struct{}{}
							changed = append(changed, id)
						}
					}
				}
			}
			e.OnChange(lsn, changed...)
		}
	})
}

// Weighted staleness threshold: remediate every minor change vs defer until
// accumulated staleness crosses the threshold. The generator carries a
// realistic render cost (~20µs of CPU, a fragment-assembly page); with
// near-free renders the weighted Staleness pass itself would dominate and
// the threshold would show no saving.
func BenchmarkAblation_WeightThreshold(b *testing.B) {
	burn := httpserver.SpinOverhead(12000)
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		burn()
		return &cache.Object{Key: key, Value: make([]byte, 4096), Version: version}, nil
	}
	build := func(threshold float64) *core.Engine {
		c := cache.New("c")
		g := odg.New()
		opts := []core.Option{core.WithGenerator(gen)}
		if threshold > 0 {
			opts = append(opts, core.WithStalenessThreshold(threshold))
		}
		e := core.NewEngine(g, c, opts...)
		for i := 0; i < 50; i++ {
			key := cache.Key(fmt.Sprintf("/p%d", i))
			g.AddNode(odg.NodeID(key), odg.KindObject)
			if err := g.AddWeightedEdge("db:ticker", odg.NodeID(key), 1); err != nil {
				b.Fatal(err)
			}
			c.Put(&cache.Object{Key: key, Value: make([]byte, 4096)})
		}
		return e
	}
	b.Run("NoThreshold", func(b *testing.B) {
		e := build(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.OnChange(int64(i), "db:ticker")
		}
	})
	b.Run("Threshold4", func(b *testing.B) {
		e := build(4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.OnChange(int64(i), "db:ticker")
		}
	})
}

// Hybrid hot/cold policy vs regenerating everything: the paper regenerated
// hot pages eagerly; a hybrid engine skips eager regeneration of cold
// pages, trading a later on-demand miss for saved render CPU now.
func BenchmarkAblation_HybridHotCold(b *testing.B) {
	build := func(opts ...core.Option) (*core.Engine, *cache.Cache) {
		c := cache.New("c")
		g := odg.New()
		gen := func(key cache.Key, version int64) (*cache.Object, error) {
			return &cache.Object{Key: key, Value: make([]byte, 4096), Version: version}, nil
		}
		e := core.NewEngine(g, c, append([]core.Option{core.WithGenerator(gen)}, opts...)...)
		for i := 0; i < 100; i++ {
			key := cache.Key(fmt.Sprintf("/p%d", i))
			e.RegisterObject(key, []odg.NodeID{"db:row"})
			c.Put(&cache.Object{Key: key, Value: make([]byte, 4096)})
		}
		// 10 hot pages absorb the traffic.
		for i := 0; i < 10; i++ {
			for j := 0; j < 10; j++ {
				c.Get(cache.Key(fmt.Sprintf("/p%d", i)))
			}
		}
		return e, c
	}
	b.Run("UpdateAll", func(b *testing.B) {
		e, _ := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.OnChange(int64(i), "db:row")
		}
	})
	b.Run("HybridHot10", func(b *testing.B) {
		var c *cache.Cache
		oracle := func(key cache.Key) bool { return c.HitCount(key) >= 5 }
		e, cc := build(core.WithPolicy(core.PolicyHybrid), core.WithHotOracle(oracle))
		c = cc
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.OnChange(int64(i), "db:row")
		}
	})
}
