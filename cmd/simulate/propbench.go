package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/core"
	"dupserve/internal/db"
	"dupserve/internal/odg"
	"dupserve/internal/site"
	"dupserve/internal/trigger"
)

// propagationBenchReport is the JSON body of BENCH_propagation.json: one
// seeded Olympic update-burst run through the full trigger -> engine ->
// cache path under memoized assembly, with the identical burst replayed
// against the full-re-render baseline for the wall-clock comparison.
type propagationBenchReport struct {
	Seed   int64 `json:"seed"`
	Bursts int   `json:"bursts"`
	Pages  int   `json:"pages"`
	// ChangedFragments counts, independently of the engines, the fragment
	// vertices the ODG planner partitions out of each burst's affected set
	// — what incremental propagation must re-render.
	ChangedFragments int64 `json:"changed_fragments"`
	// RendersTotal / ReusesTotal are the assembled run's accounting:
	// renders must equal ChangedFragments (each changed fragment rendered
	// exactly once per batch) and reuses are cached-byte splices during
	// page assembly.
	RendersTotal int64 `json:"renders_total"`
	ReusesTotal  int64 `json:"reuses_total"`
	// FullRendersTotal is the baseline's fragment render count: every
	// containing page recursively re-rendered its fragments.
	FullRendersTotal int64   `json:"full_rerender_renders_total"`
	AssembledMs      float64 `json:"assembled_wall_ms"`
	FullReRenderMs   float64 `json:"full_rerender_wall_ms"`
	Speedup          float64 `json:"speedup"`
}

func (r propagationBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

type propStack struct {
	master *db.DB
	site   *site.Site
	engine *core.Engine
	mon    *trigger.Monitor
}

func buildPropStack(name string, fullReRender bool) (*propStack, error) {
	master := db.New(name)
	graph := odg.New()
	c := cache.New(name)
	var st *site.Site
	gen := func(key cache.Key, version int64) (*cache.Object, error) {
		return st.Engine.Generate(key, version)
	}
	engine := core.NewEngine(graph, c, core.WithGenerator(gen), core.WithParallelism(4))
	var err error
	st, err = site.Build(site.DefaultSpec(), master, engine)
	if err != nil {
		return nil, err
	}
	if fullReRender {
		st.Engine.SetFullReRender(true)
	} else {
		engine.SetAssembler(st.Engine)
	}
	if err := st.PrerenderAll(master.LSN(), func(o *cache.Object) { c.Put(o) }); err != nil {
		return nil, err
	}
	mon := trigger.New(trigger.Config{DB: master, Engine: engine},
		trigger.WithIndexer(st.Indexer))
	if err := mon.Start(nil); err != nil {
		return nil, err
	}
	return &propStack{master: master, site: st, engine: engine, mon: mon}, nil
}

// runBursts replays the seeded burst sequence: final results and news
// stories, each flushed through the trigger as its own propagation batch.
// It returns the elapsed wall-clock time and, when countFragments is set,
// the planner's independent count of changed fragment vertices.
func (s *propStack) runBursts(seed int64, bursts int, countFragments bool) (time.Duration, int64, error) {
	rng := rand.New(rand.NewSource(seed))
	var changedFrags int64
	start := time.Now()
	for i := 0; i < bursts; i++ {
		ev := s.site.Events[rng.Intn(len(s.site.Events))]
		var tx db.Transaction
		var err error
		if rng.Intn(4) == 0 {
			tx, err = s.site.PublishNews(i, fmt.Sprintf("Story %d from %s", i, ev.Sport), "body")
		} else {
			tx, err = s.site.RecordResult(ev, ev.Participants[0], ev.Participants[1],
				ev.Participants[2], fmt.Sprintf("%d.%d", 200+rng.Intn(60), rng.Intn(10)))
		}
		if err != nil {
			return 0, 0, err
		}
		if countFragments {
			var ids []odg.NodeID
			for _, ch := range tx.Changes {
				ids = append(ids, s.site.Indexer(ch)...)
			}
			affected := s.engine.Graph().Affected(ids...)
			frags, _ := s.engine.Graph().Partition(affected)
			changedFrags += int64(len(frags))
		}
		s.mon.Flush()
	}
	return time.Since(start), changedFrags, nil
}

// runPropagationBench runs the assembled and full-re-render stacks over the
// identical seeded burst sequence and assembles the comparison report.
func runPropagationBench(seed int64, bursts int) (propagationBenchReport, error) {
	var rep propagationBenchReport
	rep.Seed = seed
	rep.Bursts = bursts

	asm, err := buildPropStack("prop-asm", false)
	if err != nil {
		return rep, err
	}
	defer asm.mon.Shutdown(nil)
	full, err := buildPropStack("prop-full", true)
	if err != nil {
		return rep, err
	}
	defer full.mon.Shutdown(nil)
	rep.Pages = len(asm.site.Pages())

	r0, u0 := asm.site.Engine.Accounting()
	asmDur, changed, err := asm.runBursts(seed, bursts, true)
	if err != nil {
		return rep, err
	}
	r1, u1 := asm.site.Engine.Accounting()

	f0, _ := full.site.Engine.Accounting()
	fullDur, _, err := full.runBursts(seed, bursts, false)
	if err != nil {
		return rep, err
	}
	f1, _ := full.site.Engine.Accounting()

	rep.ChangedFragments = changed
	rep.RendersTotal = r1 - r0
	rep.ReusesTotal = u1 - u0
	rep.FullRendersTotal = f1 - f0
	rep.AssembledMs = float64(asmDur.Microseconds()) / 1000
	rep.FullReRenderMs = float64(fullDur.Microseconds()) / 1000
	if rep.AssembledMs > 0 {
		rep.Speedup = rep.FullReRenderMs / rep.AssembledMs
	}
	return rep, nil
}
