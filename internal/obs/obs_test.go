package obs

import (
	"bytes"
	"context"
	"testing"
	"time"

	"dupserve/internal/stats"
)

// TestRecordHotPathDoesNotAllocate proves the serve-span hot path —
// StartSpan from a background context, stage stamps, metadata, Finish —
// allocates zero bytes per request once the span pool is warm. This is the
// cache-hit path every request pays, so it must stay free, like
// trace.Tracer's Record.
func TestRecordHotPathDoesNotAllocate(t *testing.T) {
	c := NewSuite().Collector
	// Warm the pool.
	_, sp := c.StartSpan(context.Background())
	sp.Finish()

	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := c.StartSpan(context.Background())
		sp.SetPath("/en/sports/judo/results")
		sp.Stamp(SpanRoute)
		sp.SetNode("tokyo-sp2-0-up1")
		sp.Stamp(SpanLookup)
		sp.SetOutcome(OutcomeHit)
		sp.SetLSN(42)
		sp.Finish()
	})
	if allocs != 0 {
		t.Fatalf("serve-span hot path allocates %.1f bytes/op, want 0", allocs)
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
	tr := sp.Trace()
	sp.Finish()

	if d := tr.StageDur(SpanRender); d != time.Millisecond {
		t.Fatalf("render stage = %v, want 1ms", d)
	}
	if d := tr.StageDur(SpanStale); d != 0 {
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
	if d := got[0].StageDur(SpanDone); d != time.Millisecond {
		t.Fatalf("done stage (from lookup) = %v, want 1ms", d)
	}
}

func TestCollectorRecentNewestFirstAndBounded(t *testing.T) {
	c := NewSuite().Collector
	const total = spanRingSize + 2
	for i := 0; i < total; i++ {
		_, sp := c.StartSpan(context.Background())
		sp.SetLSN(int64(i))
		sp.SetOutcome(OutcomeHit)
		sp.Finish()
	}
	got := c.Recent(0)
	if len(got) != spanRingSize {
		t.Fatalf("ring retained %d spans, want %d", len(got), spanRingSize)
	}
	for i, tr := range got {
		if want := int64(total - 1 - i); tr.LSN != want {
			t.Fatalf("Recent[%d].LSN = %d, want %d", i, tr.LSN, want)
		}
	}
	if c.Recorded() != total {
		t.Fatalf("Recorded = %d, want %d", c.Recorded(), total)
	}
}

func TestCollectorSnapshotAndMetrics(t *testing.T) {
	c := NewSuite().Collector
	_, sp := c.StartSpan(context.Background())
	sp.Stamp(SpanRoute)
	sp.Stamp(SpanLookup)
	sp.Stamp(SpanAdmit)
	sp.Stamp(SpanRender)
	sp.AddDBReads(7)
	sp.SetOutcome(OutcomeMiss)
	sp.Finish()

	snap := c.Snapshot()
	if snap.Recorded != 1 {
		t.Fatalf("snapshot recorded = %d, want 1", snap.Recorded)
	}
	if len(snap.Outcomes) != 1 || snap.Outcomes[0].Outcome != OutcomeMiss {
		t.Fatalf("snapshot outcomes = %+v, want one miss", snap.Outcomes)
	}
	if snap.DBReadMean != 7 {
		t.Fatalf("db read mean = %g, want 7", snap.DBReadMean)
	}

	reg := stats.NewRegistry()
	c.RegisterMetrics(reg, stats.Labels{"complex": "tokyo"})
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"serve_stage_seconds", "serve_db_reads", "serve_outcome_seconds"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("exposition missing family %q:\n%s", want, out)
		}
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
		t.Fatal("dump without WithMetrics must omit metrics")
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
