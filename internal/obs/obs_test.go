package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"dupserve/internal/stats"
)

// TestRecordHotPathDoesNotAllocate proves both record paths allocate
// nothing once warm: a propagation trace's Record, and the serve span's
// StartSpan from a background context, stage stamps, metadata, Finish. The
// serve path is the cache-hit path every request pays.
func TestRecordHotPathDoesNotAllocate(t *testing.T) {
	s := NewSuite()
	base := time.Unix(1000, 0)
	var i int64
	for _, tc := range []struct {
		kind   string
		record func()
	}{
		{"propagation", func() {
			i++
			s.Tracer.Record(mk(i, i, base, [NumStages]time.Duration{0, 1, 2, 3, 4, 5}))
		}},
		{"serve", func() {
			_, sp := s.Collector.StartSpan(context.Background())
			sp.SetPath("/en/sports/judo/results")
			sp.Stamp(SpanRoute)
			sp.SetNode("tokyo-sp2-0-up1")
			sp.Stamp(SpanLookup)
			sp.SetOutcome(OutcomeHit)
			sp.SetLSN(42)
			sp.Finish()
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			tc.record() // warms the span pool
			if allocs := testing.AllocsPerRun(1000, tc.record); allocs != 0 {
				t.Fatalf("%s record allocates %.1f times per call, want 0", tc.kind, allocs)
			}
		})
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var sp *Span
	sp.Stamp(SpanRoute)
	sp.SetPath("/x")
	sp.SetNode("n")
	sp.SetOutcome(OutcomeMiss)
	sp.SetLSN(1)
	sp.AddDBReads(3)
	sp.Finish()
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext on bare context = %v, want nil", got)
	}
	if got := FromContext(nil); got != nil { //nolint:staticcheck // nil ctx is the point
		t.Fatalf("FromContext(nil) = %v, want nil", got)
	}
}

func TestSpanThreadsThroughContext(t *testing.T) {
	c := NewSuite().Collector
	ctx, sp := c.StartSpan(context.Background())
	if FromContext(ctx) != sp {
		t.Fatal("FromContext did not return the started span")
	}
	// Starting from a non-background context derives a new one.
	parent := context.WithValue(context.Background(), struct{ k string }{"k"}, 1)
	ctx2, sp2 := c.StartSpan(parent)
	if FromContext(ctx2) != sp2 {
		t.Fatal("FromContext on derived context did not return the span")
	}
	sp.Finish()
	sp2.Finish()
}

func TestStageDurSkipsUnvisitedStages(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { now = now.Add(time.Millisecond); return now }
	c := NewSuite(WithClock(clock)).Collector
	_, sp := c.StartSpan(context.Background())
	sp.Stamp(SpanRoute)
	sp.Stamp(SpanLookup)
	// A miss: admit, then render — no stale stage.
	sp.Stamp(SpanAdmit)
	sp.Stamp(SpanRender)
	sp.SetOutcome(OutcomeMiss)
	tr := sp.tr
	sp.Finish()

	if d := stageDur(tr.Times[:], int(SpanRender)); d != time.Millisecond {
		t.Fatalf("render stage = %v, want 1ms", d)
	}
	if d := stageDur(tr.Times[:], int(SpanStale)); d != 0 {
		t.Fatalf("unvisited stale stage = %v, want 0", d)
	}

	// A hit skips admit and render: done's predecessor is lookup.
	_, sp = c.StartSpan(context.Background())
	sp.Stamp(SpanRoute)
	sp.Stamp(SpanLookup)
	sp.SetOutcome(OutcomeHit)
	sp.Finish()
	got := c.Recent(1)
	if len(got) != 1 {
		t.Fatalf("Recent(1) returned %d spans", len(got))
	}
	if d := stageDur(got[0].Times[:], int(SpanDone)); d != time.Millisecond {
		t.Fatalf("done stage (from lookup) = %v, want 1ms", d)
	}
}

// TestRecentNewestFirstAndBounded records more than a ring holds: the ring
// keeps exactly its capacity (memory stays bounded), newest first, while
// the record count keeps counting.
func TestRecentNewestFirstAndBounded(t *testing.T) {
	base := time.Unix(1000, 0)
	for _, tc := range []struct {
		kind   string
		size   int
		n      int
		record func(s *Suite, i int64)
		recent func(s *Suite) []int64 // identities in Recent(0), newest first
	}{
		{"propagation", traceRingSize, 10_000,
			func(s *Suite, i int64) {
				s.Tracer.Record(mk(i, i, base.Add(time.Duration(i)*time.Millisecond),
					[NumStages]time.Duration{0, 1, 2, 3, 4, 5}))
			},
			func(s *Suite) (ids []int64) {
				for _, tr := range s.Tracer.Recent(0) {
					ids = append(ids, tr.ID)
				}
				return ids
			}},
		{"serve", spanRingSize, spanRingSize + 2,
			func(s *Suite, i int64) {
				_, sp := s.Collector.StartSpan(context.Background())
				sp.SetLSN(i)
				sp.SetOutcome(OutcomeHit)
				sp.Finish()
			},
			func(s *Suite) (lsns []int64) {
				for _, tr := range s.Collector.Recent(0) {
					lsns = append(lsns, tr.LSN)
				}
				return lsns
			}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			s := NewSuite()
			for i := 0; i < tc.n; i++ {
				tc.record(s, int64(i))
			}
			got := tc.recent(s)
			if len(got) != tc.size {
				t.Fatalf("ring retained %d records, want %d (ring must not grow)", len(got), tc.size)
			}
			for i, id := range got {
				if want := int64(tc.n - 1 - i); id != want {
					t.Fatalf("Recent[%d] = %d, want %d (newest first)", i, id, want)
				}
			}
			recorded := s.Tracer.Snapshot().Recorded + s.Collector.Snapshot().Recorded
			if recorded != int64(tc.n) {
				t.Fatalf("recorded = %d, want %d", recorded, tc.n)
			}
		})
	}
}

// TestSnapshotJSONAndMetrics records one record of each kind and reads it
// back through every surface: the snapshot, the record's JSON with its
// named stage durations, and the metric families.
func TestSnapshotJSONAndMetrics(t *testing.T) {
	base := time.Unix(1000, 0)
	for _, tc := range []struct {
		kind     string
		record   func(s *Suite)
		snapshot func(s *Suite) logSnapshot
		latest   func(s *Suite) any
		stages   []string           // keys of the record's stages_ms
		fields   map[string]float64 // numeric fields of the record's JSON
		families []string
		check    func(t *testing.T, s *Suite)
	}{
		{kind: "propagation",
			record: func(s *Suite) {
				s.Tracer.Record(Trace{
					ID: 7, LSN: 9,
					Times: [NumStages]time.Time{
						base, base.Add(time.Millisecond), base.Add(2 * time.Millisecond),
						base.Add(3 * time.Millisecond), base.Add(4 * time.Millisecond),
						base.Add(5 * time.Millisecond),
					},
					Vertices: 2, FanOut: 11, Updated: 10, Invalidated: 1,
				})
			},
			snapshot: func(s *Suite) logSnapshot { return s.Tracer.Snapshot().logSnapshot },
			latest:   func(s *Suite) any { return s.Tracer.Recent(1)[0] },
			stages:   []string{"cdc", "batch", "dup", "render", "push"},
			fields:   map[string]float64{"id": 7, "lsn": 9, "fan_out": 11, "total_ms": 5},
			families: []string{"dup_propagation_stage_seconds", "dup_propagation_seconds",
				"dup_traces_recorded_total", "dup_freshness_slo_violations_total"},
		},
		{kind: "serve",
			record: func(s *Suite) {
				_, sp := s.Collector.StartSpan(context.Background())
				sp.Stamp(SpanRoute)
				sp.Stamp(SpanLookup)
				sp.Stamp(SpanAdmit)
				sp.Stamp(SpanRender)
				sp.AddDBReads(7)
				sp.SetOutcome(OutcomeMiss)
				sp.Finish()
			},
			snapshot: func(s *Suite) logSnapshot { return s.Collector.Snapshot().logSnapshot },
			latest:   func(s *Suite) any { return s.Collector.Recent(1)[0] },
			stages:   []string{"route", "lookup", "admit", "render", "done"},
			fields:   map[string]float64{"id": 1, "db_reads": 7},
			families: []string{"serve_stage_seconds", "serve_db_reads", "serve_outcome_seconds",
				"serve_seconds", "serve_spans_recorded_total"},
			check: func(t *testing.T, s *Suite) {
				snap := s.Collector.Snapshot()
				if len(snap.Outcomes) != 1 || snap.Outcomes[0].Outcome != OutcomeMiss {
					t.Fatalf("snapshot outcomes = %+v, want one miss", snap.Outcomes)
				}
				if snap.DBReadMean != 7 {
					t.Fatalf("db read mean = %g, want 7", snap.DBReadMean)
				}
			},
		},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			s := NewSuite()
			tc.record(s)
			snap := tc.snapshot(s)
			if snap.Recorded != 1 || snap.Count != 1 || len(snap.Stages) != len(tc.stages) {
				t.Fatalf("snapshot recorded=%d count=%d stages=%d, want 1, 1, %d",
					snap.Recorded, snap.Count, len(snap.Stages), len(tc.stages))
			}
			if tc.check != nil {
				tc.check(t, s)
			}

			b, err := json.Marshal(tc.latest(s))
			if err != nil {
				t.Fatal(err)
			}
			var decoded map[string]any
			if err := json.Unmarshal(b, &decoded); err != nil {
				t.Fatal(err)
			}
			for k, want := range tc.fields {
				if got, _ := decoded[k].(float64); got != want {
					t.Fatalf("JSON %s = %v, want %v: %s", k, decoded[k], want, b)
				}
			}
			stages, _ := decoded["stages_ms"].(map[string]any)
			for _, k := range tc.stages {
				if _, ok := stages[k]; !ok {
					t.Fatalf("JSON missing stage %q: %s", k, b)
				}
			}

			reg := stats.NewRegistry()
			s.RegisterMetrics(reg, stats.Labels{"complex": "tokyo"})
			var buf bytes.Buffer
			if err := reg.WriteText(&buf); err != nil {
				t.Fatalf("WriteText: %v", err)
			}
			for _, want := range tc.families {
				if !bytes.Contains(buf.Bytes(), []byte("# TYPE "+want+" ")) {
					t.Fatalf("exposition missing family %q:\n%s", want, buf.String())
				}
			}
		})
	}
}

func TestJournalRingSubscribeAndArming(t *testing.T) {
	j := NewSuite().Journal
	var seen []Event
	j.Subscribe(func(e Event) { seen = append(seen, e) })

	j.Event(LevelWarn, "overload", "shed_start", "queue delay above target", "node", "up1")
	j.Event(LevelInfo, "overload", "shed_stop", "drained")
	if len(seen) != 2 {
		t.Fatalf("subscriber saw %d events, want 2", len(seen))
	}
	if seen[0].Attrs["node"] != "up1" {
		t.Fatalf("attrs = %v, want node=up1", seen[0].Attrs)
	}

	j.SetArmed(false)
	j.Event(LevelError, "trigger", "crash", "suppressed while disarmed")
	if len(seen) != 2 || j.Appended() != 2 {
		t.Fatal("disarmed journal should drop events")
	}
	j.SetArmed(true)

	for i := 0; i < journalRingSize; i++ {
		j.Event(LevelInfo, "s", "k", "m")
	}
	recent := j.Recent(0)
	if len(recent) != journalRingSize {
		t.Fatalf("ring retained %d events, want %d", len(recent), journalRingSize)
	}
	newest := j.Appended()
	for i, e := range recent {
		if want := newest - int64(i); e.Seq != want {
			t.Fatalf("Recent[%d].Seq = %d, want %d (newest first)", i, e.Seq, want)
		}
	}
}

func TestRecorderAutoCapture(t *testing.T) {
	now := time.Unix(2000, 0)
	s := NewSuite(
		WithName("tokyo"),
		WithClock(func() time.Time { now = now.Add(time.Second); return now }),
	)
	_, sp := s.Collector.StartSpan(context.Background())
	sp.SetPath("/p")
	sp.SetOutcome(OutcomeHit)
	sp.SetLSN(9)
	sp.Finish()

	s.Journal.Event(LevelInfo, "routing", "withdraw", "not a trigger")
	if s.Recorder.Captured() != 0 {
		t.Fatal("non-trigger event must not capture")
	}
	s.Journal.Event(LevelError, "trigger", "crash", "monitor crashed", "lsn", "5")
	if s.Recorder.Captured() != 1 {
		t.Fatalf("captured = %d, want 1", s.Recorder.Captured())
	}
	d, ok := s.Recorder.Latest()
	if !ok {
		t.Fatal("Latest returned no dump")
	}
	if d.Kind != TriggerCrash || d.Complex != "tokyo" {
		t.Fatalf("dump kind=%q complex=%q", d.Kind, d.Complex)
	}
	if len(d.Spans) != 1 || d.Spans[0].LSN != 9 {
		t.Fatalf("dump spans = %+v, want the recorded hit", d.Spans)
	}
	if len(d.Events) != 2 {
		t.Fatalf("dump carries %d events, want 2", len(d.Events))
	}
	if d.Metrics != nil {
		t.Fatal("dump taken before RegisterMetrics must omit metrics")
	}
	s.RegisterMetrics(stats.NewRegistry(), nil)
	if d := s.Recorder.Capture("after registration"); len(d.Metrics) == 0 {
		t.Fatal("dump taken after RegisterMetrics carries no metrics")
	}
}

// TestRegisterMetricsWhileCapturing: the registry reaches the recorder
// while violating traces trip captures on other goroutines (run under
// -race).
func TestRegisterMetricsWhileCapturing(t *testing.T) {
	s := NewSuite(WithSLO(time.Nanosecond))
	base := time.Unix(1000, 0)
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 50; i++ {
				s.Tracer.Record(mk(g*100+i, g*100+i, base, [NumStages]time.Duration{0, 1, 2, 3, 4, 5}))
			}
		}()
	}
	s.RegisterMetrics(stats.NewRegistry(), nil)
	wg.Wait()
	s.Tracer.Record(mk(1000, 1000, base, [NumStages]time.Duration{0, 1, 2, 3, 4, 5}))
	if got := s.Recorder.Captured(); got != 201 {
		t.Fatalf("captured %d dumps, want one per violating trace (201)", got)
	}
	if d, _ := s.Recorder.Latest(); len(d.Metrics) == 0 {
		t.Fatal("a dump taken after RegisterMetrics carries no metrics")
	}
}

func TestDumpCanonicalIsTimeFreeAndReproducible(t *testing.T) {
	build := func(epoch int64) Dump {
		now := time.Unix(epoch, 0)
		s := NewSuite(
			WithName("tokyo"),
			WithClock(func() time.Time { now = now.Add(time.Millisecond); return now }),
		)
		_, sp := s.Collector.StartSpan(context.Background())
		sp.SetPath("/en/sports/judo/results")
		sp.Stamp(SpanRoute)
		sp.SetNode("up1")
		sp.Stamp(SpanLookup)
		sp.SetOutcome(OutcomeHit)
		sp.SetLSN(12)
		sp.Finish()
		s.Journal.Event(LevelError, "audit", "incoherent", "page diverges", "page", "/x", "node", "up1")
		d, ok := s.Recorder.Latest()
		if !ok {
			t.Fatal("no dump captured")
		}
		return d
	}
	// Different wall-clock epochs, identical logical sequence: canonical
	// bytes must match exactly.
	a := build(1).Canonical()
	b := build(999999).Canonical()
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical dumps differ:\n%s\n%s", a, b)
	}
	for _, want := range []string{`"outcome":"hit"`, `"lsn":12`, `"kind":"audit/incoherent"`} {
		if !bytes.Contains(a, []byte(want)) {
			t.Fatalf("canonical dump missing %s:\n%s", want, a)
		}
	}
	if bytes.Contains(a, []byte(`"time"`)) {
		t.Fatalf("canonical dump leaks timestamps:\n%s", a)
	}
}

func TestRecorderDumpsOldestFirstAndBounded(t *testing.T) {
	s := NewSuite()
	const total = dumpRingSize + 1
	for i := 0; i < total; i++ {
		s.Recorder.Capture("n")
	}
	dumps := s.Recorder.Dumps()
	if len(dumps) != dumpRingSize {
		t.Fatalf("retained %d dumps, want %d", len(dumps), dumpRingSize)
	}
	for i, d := range dumps {
		if want := int64(total - dumpRingSize + 1 + i); d.Seq != want {
			t.Fatalf("Dumps[%d].Seq = %d, want %d (oldest first)", i, d.Seq, want)
		}
	}
	if d, ok := s.Recorder.Latest(); !ok || d.Seq != total {
		t.Fatalf("Latest = %d, %v; want %d", d.Seq, ok, total)
	}
	if kinds := s.Recorder.Kinds(); len(kinds) != 1 || kinds[0] != "manual" {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestReadProbe(t *testing.T) {
	p := NewReadProbe()
	p.Hook("a")
	p.Hook("b")
	if p.Count() != 2 {
		t.Fatalf("probe count = %d, want 2", p.Count())
	}
}
