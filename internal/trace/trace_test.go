package trace

import (
	"encoding/json"
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
		if got := tr.StageDur(s); got != want {
			t.Fatalf("StageDur(%v) = %v, want %v", s, got, want)
		}
	}
	if tr.StageDur(StageCommit) != 0 {
		t.Fatalf("StageDur(commit) = %v, want 0", tr.StageDur(StageCommit))
	}
}

func TestRecordNormalizesInvertedTimestamps(t *testing.T) {
	tr := New()
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
	if got.StageDur(StageRender) != 0 {
		t.Fatalf("inverted stage duration = %v, want clamped to 0", got.StageDur(StageRender))
	}
}

func TestRingBoundsMemoryUnder10kTransactions(t *testing.T) {
	const ringSize, txCount = 256, 10_000
	tr := New()
	base := time.Unix(1000, 0)
	for i := 0; i < txCount; i++ {
		tr.Record(mk(int64(i), int64(i), base.Add(time.Duration(i)*time.Millisecond),
			[NumStages]time.Duration{0, 1, 2, 3, 4, 5}))
	}
	if got := len(tr.Recent(0)); got != ringSize {
		t.Fatalf("ring holds %d traces, want %d (ring must not grow)", got, ringSize)
	}
	if got := tr.Recorded(); got != txCount {
		t.Fatalf("Recorded = %d, want %d", got, txCount)
	}
	all := tr.Recent(0)
	if len(all) != ringSize {
		t.Fatalf("Recent(0) = %d traces, want %d", len(all), ringSize)
	}
	// Newest first: the last recorded ID leads.
	if all[0].ID != txCount-1 {
		t.Fatalf("Recent[0].ID = %d, want %d", all[0].ID, txCount-1)
	}
	if all[ringSize-1].ID != txCount-ringSize {
		t.Fatalf("oldest retained ID = %d, want %d", all[ringSize-1].ID, txCount-ringSize)
	}
}

func TestRecordHotPathDoesNotAllocate(t *testing.T) {
	tr := New()
	base := time.Unix(1000, 0)
	var i int64
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		tr.Record(mk(i, i, base, [NumStages]time.Duration{0, 1, 2, 3, 4, 5}))
	})
	if allocs > 0 {
		t.Fatalf("Record allocates %.1f times per call, want 0", allocs)
	}
}

func TestSLOViolations(t *testing.T) {
	tr := New(WithSLO(60 * time.Second))
	base := time.Unix(1000, 0)
	tr.Record(mk(1, 1, base, [NumStages]time.Duration{0, 0, 0, 0, 0, 30 * time.Second}))
	if tr.Violations() != 0 {
		t.Fatalf("violations after 30s trace = %d, want 0", tr.Violations())
	}
	tr.Record(mk(2, 2, base, [NumStages]time.Duration{0, 0, 0, 0, 0, 61 * time.Second}))
	if tr.Violations() != 1 {
		t.Fatalf("violations after 61s trace = %d, want 1", tr.Violations())
	}
	// SLO 0 disables counting.
	tr2 := New(WithSLO(0))
	tr2.Record(mk(3, 3, base, [NumStages]time.Duration{0, 0, 0, 0, 0, time.Hour}))
	if tr2.Violations() != 0 {
		t.Fatalf("violations with SLO disabled = %d, want 0", tr2.Violations())
	}
}

func TestWorstInFlightStaleness(t *testing.T) {
	now := time.Unix(2000, 0)
	tr := New(WithClock(func() time.Time { return now }))
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
	tr := New()
	base := time.Unix(1000, 0)
	for i := 0; i < 50; i++ {
		tr.Record(mk(int64(i), int64(i), base, [NumStages]time.Duration{
			0, 10 * time.Millisecond, 20 * time.Millisecond,
			30 * time.Millisecond, 40 * time.Millisecond, 50 * time.Millisecond,
		}))
	}
	for s := StageCDC; s < NumStages; s++ {
		h := tr.stageHist[s]
		if h.Count() != 50 {
			t.Fatalf("stage %v histogram count = %d, want 50", s, h.Count())
		}
	}
	if tr.stageHist[StageCommit] != nil {
		t.Fatal("commit stage has a histogram; it has no duration")
	}
	total := tr.totalHist
	if total.Count() != 50 {
		t.Fatalf("total histogram count = %d, want 50", total.Count())
	}
	if p50 := total.Quantile(0.5); p50 < 0.025 || p50 > 0.1 {
		t.Fatalf("total p50 = %v, want near 50ms", p50)
	}
}

func TestSnapshotAndJSON(t *testing.T) {
	tr := New()
	base := time.Unix(1000, 0)
	tr.Record(Trace{
		ID: 7, LSN: 9,
		Times: [NumStages]time.Time{
			base, base.Add(time.Millisecond), base.Add(2 * time.Millisecond),
			base.Add(3 * time.Millisecond), base.Add(4 * time.Millisecond),
			base.Add(5 * time.Millisecond),
		},
		Vertices: 2, FanOut: 11, Updated: 10, Invalidated: 1,
	})
	snap := tr.Snapshot()
	if snap.Recorded != 1 || len(snap.Stages) != int(NumStages)-1 {
		t.Fatalf("snapshot recorded=%d stages=%d", snap.Recorded, len(snap.Stages))
	}
	b, err := json.Marshal(tr.Recent(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["id"].(float64) != 7 || decoded["fan_out"].(float64) != 11 {
		t.Fatalf("trace JSON = %s", b)
	}
	stages := decoded["stages"].(map[string]any)
	for _, k := range []string{"cdc_ms", "batch_ms", "dup_ms", "render_ms", "push_ms"} {
		if _, ok := stages[k]; !ok {
			t.Fatalf("trace JSON missing stage %q: %s", k, b)
		}
	}
}
