package obs

import (
	"testing"
	"time"
)

// mk builds a trace whose stage boundaries are base plus the given offsets
// (one per stage, in order).
func mk(id, lsn int64, base time.Time, offsets [NumStages]time.Duration) Trace {
	tr := Trace{ID: id, LSN: lsn}
	for s := Stage(0); s < NumStages; s++ {
		tr.Times[s] = base.Add(offsets[s])
	}
	return tr
}

func TestStageString(t *testing.T) {
	want := []string{"commit", "cdc", "batch", "dup", "render", "push"}
	for s := Stage(0); s < NumStages; s++ {
		if s.String() != want[s] {
			t.Fatalf("stage %d = %q, want %q", s, s.String(), want[s])
		}
	}
}

func TestTraceStageDurations(t *testing.T) {
	base := time.Unix(1000, 0)
	tr := mk(1, 1, base, [NumStages]time.Duration{
		0, 10 * time.Millisecond, 30 * time.Millisecond,
		35 * time.Millisecond, 95 * time.Millisecond, 100 * time.Millisecond,
	})
	if tr.Total() != 100*time.Millisecond {
		t.Fatalf("Total = %v, want 100ms", tr.Total())
	}
	wantDur := map[Stage]time.Duration{
		StageCDC:    10 * time.Millisecond,
		StageBatch:  20 * time.Millisecond,
		StageDUP:    5 * time.Millisecond,
		StageRender: 60 * time.Millisecond,
		StagePush:   5 * time.Millisecond,
	}
	for s, want := range wantDur {
		if got := stageDur(tr.Times[:], int(s)); got != want {
			t.Fatalf("StageDur(%v) = %v, want %v", s, got, want)
		}
	}
	if stageDur(tr.Times[:], int(StageCommit)) != 0 {
		t.Fatalf("StageDur(commit) = %v, want 0", stageDur(tr.Times[:], int(StageCommit)))
	}
}

func TestRecordNormalizesInvertedTimestamps(t *testing.T) {
	tr := NewSuite().Tracer
	base := time.Unix(1000, 0)
	// render stamped before dup (cross-goroutine clock skew).
	in := mk(1, 1, base, [NumStages]time.Duration{
		0, 10 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 30 * time.Millisecond, 50 * time.Millisecond,
	})
	tr.Record(in)
	got := tr.Recent(1)[0]
	for s := StageCDC; s < NumStages; s++ {
		if got.Times[s].Before(got.Times[s-1]) {
			t.Fatalf("stage %v timestamp precedes %v after normalize", s, s-1)
		}
	}
	if stageDur(got.Times[:], int(StageRender)) != 0 {
		t.Fatalf("inverted stage duration = %v, want clamped to 0", stageDur(got.Times[:], int(StageRender)))
	}
}

// TestSLOViolations: a trace over the SLO counts once and journals
// trace/slo_violation, which trips the flight recorder. The event names the
// LSN, never the trace ID, so dumps stay reproducible.
func TestSLOViolations(t *testing.T) {
	s := NewSuite(WithSLO(60 * time.Second))
	tr := s.Tracer
	base := time.Unix(1000, 0)
	tr.Record(mk(1, 1, base, [NumStages]time.Duration{0, 0, 0, 0, 0, 30 * time.Second}))
	if tr.Violations() != 0 {
		t.Fatalf("violations after 30s trace = %d, want 0", tr.Violations())
	}
	tr.Record(mk(20, 2, base, [NumStages]time.Duration{0, 0, 0, 0, 0, 61 * time.Second}))
	if tr.Violations() != 1 {
		t.Fatalf("violations after 61s trace = %d, want 1", tr.Violations())
	}
	events := s.Journal.Recent(0)
	if len(events) != 1 || events[0].Scope+"/"+events[0].Kind != TriggerSLOViolation {
		t.Fatalf("journal = %+v, want one %s event", events, TriggerSLOViolation)
	}
	if attrs := events[0].Attrs; len(attrs) != 1 || attrs["lsn"] != "2" {
		t.Fatalf("violation attrs = %v, want only lsn=2", attrs)
	}
	if kinds := s.Recorder.Kinds(); len(kinds) != 1 || kinds[0] != TriggerSLOViolation {
		t.Fatalf("recorder kinds = %v, want the violation", kinds)
	}
	// SLO 0 disables counting.
	tr2 := NewSuite(WithSLO(0)).Tracer
	tr2.Record(mk(3, 3, base, [NumStages]time.Duration{0, 0, 0, 0, 0, time.Hour}))
	if tr2.Violations() != 0 {
		t.Fatalf("violations with SLO disabled = %d, want 0", tr2.Violations())
	}
}

func TestWorstInFlightStaleness(t *testing.T) {
	now := time.Unix(2000, 0)
	tr := NewSuite(WithClock(func() time.Time { return now })).Tracer
	if tr.WorstInFlight() != 0 {
		t.Fatalf("WorstInFlight empty = %v, want 0", tr.WorstInFlight())
	}
	tr.Arrive(1, now.Add(-10*time.Second))
	tr.Arrive(2, now.Add(-45*time.Second))
	tr.Arrive(3, now.Add(-2*time.Second))
	if got := tr.WorstInFlight(); got != 45*time.Second {
		t.Fatalf("WorstInFlight = %v, want 45s", got)
	}
	if tr.InFlight() != 3 {
		t.Fatalf("InFlight = %d, want 3", tr.InFlight())
	}
	// Retiring the oldest via Record shrinks the worst case.
	done := Trace{ID: 2}
	done.Times[StageCommit] = now.Add(-45 * time.Second)
	done.Times[StagePush] = now
	tr.Record(done)
	if got := tr.WorstInFlight(); got != 10*time.Second {
		t.Fatalf("WorstInFlight after retire = %v, want 10s", got)
	}
}

func TestStageHistogramsObserve(t *testing.T) {
	tr := NewSuite().Tracer
	base := time.Unix(1000, 0)
	for i := 0; i < 50; i++ {
		tr.Record(mk(int64(i), int64(i), base, [NumStages]time.Duration{
			0, 10 * time.Millisecond, 20 * time.Millisecond,
			30 * time.Millisecond, 40 * time.Millisecond, 50 * time.Millisecond,
		}))
	}
	for s := StageCDC; s < NumStages; s++ {
		h := tr.stage[s]
		if h.Count() != 50 {
			t.Fatalf("stage %v histogram count = %d, want 50", s, h.Count())
		}
	}
	if tr.stage[StageCommit] != nil {
		t.Fatal("commit stage has a histogram; it has no duration")
	}
	total := tr.total
	if total.Count() != 50 {
		t.Fatalf("total histogram count = %d, want 50", total.Count())
	}
	if p50 := total.Quantile(0.5); p50 < 0.025 || p50 > 0.1 {
		t.Fatalf("total p50 = %v, want near 50ms", p50)
	}
}
