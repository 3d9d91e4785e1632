package stats

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Registry is the central catalogue of named metrics. Subsystems register
// their existing Counter/Gauge/Histogram instances (or a compute-on-read
// function) under a metric name plus an optional label set, and the
// registry renders everything three ways:
//
//   - Snapshot() — a single structured snapshot for JSON endpoints;
//   - WriteText(w) — Prometheus text exposition for /debug/metrics;
//   - Families() — the raw family list for programmatic consumers.
//
// A metric name identifies a family; each distinct label set within a
// family is one series. All series in a family must have the same type.
// Registration is expected at wiring time (registering a duplicate
// name+label set, or mixing types within a family, panics — it is a
// programming error), while reads are safe for concurrent use with
// ongoing metric updates because the underlying primitives are atomic.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*Family
}

// Labels is a label set attached to one series, e.g.
// {"node": "up3", "class": "result"}.
type Labels map[string]string

// MetricType classifies a registered series.
type MetricType string

// The metric types the registry understands. TypeFunc series are rendered
// as gauges in Prometheus exposition.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
	TypeFunc      MetricType = "func"
)

// Family is one named metric with all of its labeled series.
type Family struct {
	Name string
	Help string
	Type MetricType

	mu     sync.Mutex
	series []*Series
	byKey  map[string]*Series
}

// Series is one (label set, metric) pair within a family.
type Series struct {
	Labels Labels

	key       string // canonical sorted rendering of Labels
	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
	fn        func() float64
	cfn       func() int64 // counter-typed compute-on-read (RegisterCounterFunc)
}

// counterValue reads a counter series whether it is backed by a Counter or a
// compute-on-read function.
func (s *Series) counterValue() int64 {
	if s.cfn != nil {
		return s.cfn()
	}
	return s.counter.Value()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*Family)}
}

// labelEscaper escapes a label value for the Prometheus text exposition
// format, which defines exactly three escapes: backslash, double quote,
// and newline. Go's %q would additionally escape tabs and non-ASCII runes,
// which scrapers do not unescape.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelKey renders labels canonically (sorted by key) for identity and
// exposition: `{a="1",b="2"}`, or "" for an empty set.
func labelKey(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// family returns (creating if needed) the named family, enforcing type
// consistency.
func (r *Registry) family(name, help string, typ MetricType) *Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &Family{Name: name, Help: help, Type: typ, byKey: make(map[string]*Series)}
		r.families[name] = f
		return f
	}
	if f.Type != typ {
		panic(fmt.Sprintf("stats: metric %q registered as %s, re-registered as %s", name, f.Type, typ))
	}
	if f.Help == "" {
		f.Help = help
	}
	return f
}

// add installs a series in the family, panicking on duplicates.
func (f *Family) add(s *Series) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.byKey[s.key]; dup {
		panic(fmt.Sprintf("stats: duplicate series %s%s", f.Name, s.key))
	}
	f.byKey[s.key] = s
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].key < f.series[j].key })
}

func cloneLabels(l Labels) Labels {
	if len(l) == 0 {
		return nil
	}
	cp := make(Labels, len(l))
	for k, v := range l {
		cp[k] = v
	}
	return cp
}

// RegisterCounter publishes an existing counter under name+labels.
func (r *Registry) RegisterCounter(name, help string, labels Labels, c *Counter) {
	f := r.family(name, help, TypeCounter)
	f.add(&Series{Labels: cloneLabels(labels), key: labelKey(labels), counter: c})
}

// RegisterCounterFunc publishes a compute-on-read value as a counter —
// for subsystems whose monotonic totals are folded from internal shards at
// read time (the striped cache) rather than held in one Counter. The
// function must be monotonically non-decreasing to honour counter
// semantics.
func (r *Registry) RegisterCounterFunc(name, help string, labels Labels, fn func() int64) {
	f := r.family(name, help, TypeCounter)
	f.add(&Series{Labels: cloneLabels(labels), key: labelKey(labels), cfn: fn})
}

// RegisterGauge publishes an existing gauge under name+labels.
func (r *Registry) RegisterGauge(name, help string, labels Labels, g *Gauge) {
	f := r.family(name, help, TypeGauge)
	f.add(&Series{Labels: cloneLabels(labels), key: labelKey(labels), gauge: g})
}

// RegisterHistogram publishes an existing histogram under name+labels.
func (r *Registry) RegisterHistogram(name, help string, labels Labels, h *Histogram) {
	f := r.family(name, help, TypeHistogram)
	f.add(&Series{Labels: cloneLabels(labels), key: labelKey(labels), histogram: h})
}

// RegisterFunc publishes a compute-on-read value (rendered as a gauge) —
// the thin-adapter hook for subsystems whose snapshots are derived, like a
// cache group's aggregate hit rate or the database's current LSN.
func (r *Registry) RegisterFunc(name, help string, labels Labels, fn func() float64) {
	f := r.family(name, help, TypeFunc)
	f.add(&Series{Labels: cloneLabels(labels), key: labelKey(labels), fn: fn})
}

// Families returns the registered families sorted by name.
func (r *Registry) Families() []*Family {
	r.mu.RLock()
	out := make([]*Family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SeriesSnapshot is the point-in-time state of one series.
type SeriesSnapshot struct {
	Labels Labels  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
	// Histogram-only fields.
	Count  int64     `json:"count,omitempty"`
	Mean   float64   `json:"mean,omitempty"`
	P50    float64   `json:"p50,omitempty"`
	P95    float64   `json:"p95,omitempty"`
	P99    float64   `json:"p99,omitempty"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
}

// FamilySnapshot is the point-in-time state of one family.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Type   MetricType       `json:"type"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot captures every registered metric at once — the single surface
// that replaces the per-subsystem ad-hoc snapshot structs.
func (r *Registry) Snapshot() []FamilySnapshot {
	fams := r.Families()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.Name, Help: f.Help, Type: f.Type}
		f.mu.Lock()
		series := append([]*Series(nil), f.series...)
		f.mu.Unlock()
		for _, s := range series {
			ss := SeriesSnapshot{Labels: s.Labels}
			switch f.Type {
			case TypeCounter:
				ss.Value = float64(s.counterValue())
			case TypeGauge:
				ss.Value = float64(s.gauge.Value())
			case TypeFunc:
				ss.Value = s.fn()
			case TypeHistogram:
				h := s.histogram
				ss.Count = h.Count()
				ss.Mean = h.Mean()
				ss.P50 = h.Quantile(0.50)
				ss.P95 = h.Quantile(0.95)
				ss.P99 = h.Quantile(0.99)
				ss.Bounds, ss.Counts = h.Buckets()
				ss.Value = ss.Mean
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}

// WriteText renders the registry in Prometheus text exposition format
// (histograms with cumulative le buckets, _sum and _count), so a scrape of
// /debug/metrics works with standard tooling.
func (r *Registry) WriteText(w io.Writer) error {
	for _, f := range r.Families() {
		typ := string(f.Type)
		if f.Type == TypeFunc {
			typ = string(TypeGauge)
		}
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, typ); err != nil {
			return err
		}
		f.mu.Lock()
		series := append([]*Series(nil), f.series...)
		f.mu.Unlock()
		for _, s := range series {
			var err error
			switch f.Type {
			case TypeCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.Name, s.key, s.counterValue())
			case TypeGauge:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.Name, s.key, s.gauge.Value())
			case TypeFunc:
				_, err = fmt.Fprintf(w, "%s%s %g\n", f.Name, s.key, s.fn())
			case TypeHistogram:
				err = writeHistogramText(w, f.Name, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogramText renders one histogram series with cumulative buckets.
func writeHistogramText(w io.Writer, name string, s *Series) error {
	bounds, counts := s.histogram.Buckets()
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(s.key, fmt.Sprintf("%g", b)), cum); err != nil {
			return err
		}
	}
	cum += counts[len(counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(s.key, "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, s.key, s.histogram.Mean()*float64(s.histogram.Count())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.key, cum)
	return err
}

// withLE splices an le label into a rendered label key.
func withLE(key, le string) string {
	if key == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	return key[:len(key)-1] + fmt.Sprintf(",le=%q}", le)
}
