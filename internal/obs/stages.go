package obs

import (
	"sync"
	"time"

	"dupserve/internal/stats"
)

// stageLog is the machinery the two stage models share: a latency
// histogram per stage (the first stage is the record's birth and has none),
// an end-to-end histogram, a record counter, and a preallocated ring of
// recent records under a mutex. Recording allocates nothing.
type stageLog[R any] struct {
	names    []string
	stage    []*stats.Histogram // index 0 unused
	total    *stats.Histogram
	recorded stats.Counter

	mu   sync.Mutex
	ring stats.Ring[R]
}

// init sizes the log for the named stages, histogram bounds and ring.
func (l *stageLog[R]) init(names []string, bounds []float64, ringSize int) {
	l.names, l.ring = names, stats.NewRing[R](ringSize)
	l.stage = make([]*stats.Histogram, len(names))
	for s := 1; s < len(names); s++ {
		l.stage[s] = stats.NewHistogram(bounds...)
	}
	l.total = stats.NewHistogram(bounds...)
}

// stageDur is the time spent reaching stage s: the gap from the most recent
// earlier stage that was stamped. An unstamped (zero) stage, or a gap that
// runs backwards, reports 0.
func stageDur(times []time.Time, s int) time.Duration {
	if s <= 0 || s >= len(times) || times[s].IsZero() {
		return 0
	}
	for p := s - 1; p >= 0; p-- {
		if !times[p].IsZero() {
			return max(times[s].Sub(times[p]), 0)
		}
	}
	return 0
}

// totalDur is first stage to last, or 0 if either is unstamped.
func totalDur(times []time.Time) time.Duration {
	first, last := times[0], times[len(times)-1]
	if first.IsZero() || last.IsZero() {
		return 0
	}
	return max(last.Sub(first), 0)
}

// record observes the stamped stages of times (r's own) and the end-to-end
// latency, counts the record, and keeps a copy of r in the ring.
func (l *stageLog[R]) record(times []time.Time, r *R) {
	for s := 1; s < len(times); s++ {
		if !times[s].IsZero() {
			l.stage[s].Observe(stageDur(times, s).Seconds())
		}
	}
	l.total.Observe(totalDur(times).Seconds())
	l.recorded.Inc()
	l.mu.Lock()
	l.ring.Push(*r)
	l.mu.Unlock()
}

// Recent returns up to n recorded records, newest first; n <= 0 means the
// whole ring.
func (l *stageLog[R]) Recent(n int) []R {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Recent(n)
}

// family is a metric family's name and help text.
type family struct{ name, help string }

// register publishes the per-stage histograms as stage (each series labelled
// with its stage beside labels), the end-to-end histogram as total, and the
// record counter as recorded.
func (l *stageLog[R]) register(reg *stats.Registry, labels stats.Labels, stage, total, recorded family) {
	for s := 1; s < len(l.names); s++ {
		reg.RegisterHistogram(stage.name, stage.help, withLabel(labels, "stage", l.names[s]), l.stage[s])
	}
	reg.RegisterHistogram(total.name, total.help, labels, l.total)
	reg.RegisterCounter(recorded.name, recorded.help, labels, &l.recorded)
}

// withLabel returns a copy of labels plus k=v.
func withLabel(labels stats.Labels, k, v string) stats.Labels {
	out := stats.Labels{k: v}
	for lk, lv := range labels {
		out[lk] = lv
	}
	return out
}

// stagesMS names the duration of every stamped stage after the first, in
// milliseconds: the per-record stage breakdown of the JSON endpoints.
func stagesMS(times []time.Time, names []string) map[string]float64 {
	out := make(map[string]float64, len(times)-1)
	for s := 1; s < len(times); s++ {
		if !times[s].IsZero() {
			out[names[s]] = ms(stageDur(times, s))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Summary is one latency histogram in milliseconds.
type Summary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

func summarize(h *stats.Histogram) Summary {
	const msPerSec = 1000
	return Summary{
		Count:  h.Count(),
		MeanMS: h.Mean() * msPerSec,
		P50MS:  h.Quantile(0.50) * msPerSec,
		P95MS:  h.Quantile(0.95) * msPerSec,
		P99MS:  h.Quantile(0.99) * msPerSec,
	}
}

// StageSummary is the latency of reaching one stage.
type StageSummary struct {
	Stage string `json:"stage"`
	Summary
}

// logSnapshot is what both stage models report: records kept, end-to-end
// latency (flattened beside it), and the latency of every stage reached at
// least once.
type logSnapshot struct {
	Recorded int64 `json:"recorded"`
	Summary
	Stages []StageSummary `json:"stages"`
}

func (l *stageLog[R]) snapshot() logSnapshot {
	snap := logSnapshot{Recorded: l.recorded.Value(), Summary: summarize(l.total)}
	for s := 1; s < len(l.names); s++ {
		if l.stage[s].Count() > 0 {
			snap.Stages = append(snap.Stages, StageSummary{Stage: l.names[s], Summary: summarize(l.stage[s])})
		}
	}
	return snap
}
