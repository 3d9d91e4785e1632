package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"time"

	"dupserve/internal/stats"
	"dupserve/internal/trace"
)

// Dump is one self-contained black-box capture: the journal event (or
// manual request) that triggered it, plus the recent serve spans,
// propagation traces, journal events, and (optionally) a full metrics
// snapshot at capture time.
type Dump struct {
	Seq     int64                  `json:"seq"`
	Time    time.Time              `json:"time"`
	Complex string                 `json:"complex,omitempty"`
	Kind    string                 `json:"kind"`   // trigger "scope/kind", or "manual"
	Reason  string                 `json:"reason"` // triggering event's message
	Spans   []ServeTrace           `json:"spans"`
	Traces  []trace.Trace          `json:"traces"`
	Events  []Event                `json:"events"`
	Metrics []stats.FamilySnapshot `json:"metrics,omitempty"`
}

// canonicalDump is Dump minus everything timing-dependent: no timestamps,
// no durations, no metrics. What remains — identity and ordering — is fully
// determined by a seeded, sequenced scenario, which makes Canonical() a
// byte-reproducibility oracle for the flight recorder (chaos.RunFlight).
type canonicalDump struct {
	Complex string       `json:"complex,omitempty"`
	Kind    string       `json:"kind"`
	Reason  string       `json:"reason"`
	Spans   []canonSpan  `json:"spans"`
	Traces  []canonTrace `json:"traces"`
	Events  []canonEvent `json:"events"`
}

type canonSpan struct {
	Path    string `json:"path"`
	Node    string `json:"node,omitempty"`
	Outcome string `json:"outcome"`
	LSN     int64  `json:"lsn"`
	DBReads int64  `json:"db_reads"`
}

// canonTrace keeps only the trace's LSN: trace IDs come from a process-wide
// counter, so they differ between two runs in the same process even when the
// scenario is identical. The LSN is the cross-layer correlation key anyway —
// serve spans record the LSN they observed.
type canonTrace struct {
	LSN int64 `json:"lsn"`
}

type canonEvent struct {
	Level string            `json:"level"`
	Scope string            `json:"scope"`
	Kind  string            `json:"kind"`
	Msg   string            `json:"msg"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Canonical renders the dump's deterministic projection as JSON. Two dumps
// of the same seeded scenario produce byte-identical output (encoding/json
// sorts map keys, and all slices preserve capture order).
func (d Dump) Canonical() []byte {
	c := canonicalDump{
		Complex: d.Complex,
		Kind:    d.Kind,
		Reason:  d.Reason,
		Spans:   make([]canonSpan, 0, len(d.Spans)),
		Traces:  make([]canonTrace, 0, len(d.Traces)),
		Events:  make([]canonEvent, 0, len(d.Events)),
	}
	for _, s := range d.Spans {
		c.Spans = append(c.Spans, canonSpan{
			Path: s.Path, Node: s.Node, Outcome: s.Outcome,
			LSN: s.LSN, DBReads: s.DBReads,
		})
	}
	for _, t := range d.Traces {
		c.Traces = append(c.Traces, canonTrace{LSN: t.LSN})
	}
	for _, e := range d.Events {
		c.Events = append(c.Events, canonEvent{
			Level: e.Level.String(), Scope: e.Scope, Kind: e.Kind,
			Msg: e.Msg, Attrs: e.Attrs,
		})
	}
	b, err := json.Marshal(c)
	if err != nil {
		// All field types are marshal-safe; an error here is a programming bug.
		panic("obs: canonical dump marshal: " + err.Error())
	}
	return b
}

// Trigger conditions: a journal event whose "scope/kind" is in this set
// causes an automatic capture.
const (
	TriggerCrash        = "trigger/crash"
	TriggerSLOViolation = "trace/slo_violation"
	TriggerShedStart    = "overload/shed_start"
	TriggerIncoherent   = "audit/incoherent"
	TriggerFlapDamping  = "node/flap_quarantine"
)

// dumpDepth bounds how much recent context one dump carries from each
// source (spans, traces, events).
const dumpDepth = 64

// Recorder is the anomaly flight recorder. It subscribes to the journal and
// captures a Dump whenever a trigger condition fires; Capture() takes one on
// demand. The dumpRingSize most recent dumps are retained.
type Recorder struct {
	name     string
	col      *Collector
	tracer   *trace.Tracer
	journal  *Journal
	reg      *stats.Registry
	now      func() time.Time
	triggers map[string]bool

	mu    sync.Mutex
	dumps stats.Ring[Dump]
	seq   int64

	captures stats.Counter
}

func newRecorder(cfg config, col *Collector, j *Journal) *Recorder {
	r := &Recorder{
		name:    cfg.name,
		col:     col,
		tracer:  cfg.tracer,
		journal: j,
		reg:     cfg.reg,
		now:     cfg.clock,
		triggers: map[string]bool{
			TriggerCrash:        true,
			TriggerSLOViolation: true,
			TriggerShedStart:    true,
			TriggerIncoherent:   true,
			TriggerFlapDamping:  true,
		},
		dumps: stats.NewRing[Dump](dumpRingSize),
	}
	if j != nil {
		j.Subscribe(r.observe)
	}
	return r
}

// observe is the journal subscription: capture when the event matches a
// trigger condition. Every shed transition is an anomaly worth a dump.
func (r *Recorder) observe(e Event) {
	key := e.Scope + "/" + e.Kind
	if !r.triggers[key] {
		return
	}
	r.capture(key, e.Msg)
}

// Capture takes an on-demand dump (reason is free-form) and returns it.
func (r *Recorder) Capture(reason string) Dump {
	return r.capture("manual", reason)
}

func (r *Recorder) capture(kind, reason string) Dump {
	d := Dump{
		Time:    r.now(),
		Complex: r.name,
		Kind:    kind,
		Reason:  reason,
	}
	if r.col != nil {
		d.Spans = r.col.Recent(dumpDepth)
	}
	if r.tracer != nil {
		d.Traces = r.tracer.Recent(dumpDepth)
	}
	if r.journal != nil {
		d.Events = r.journal.Recent(dumpDepth)
	}
	if r.reg != nil {
		d.Metrics = r.reg.Snapshot()
	}
	r.mu.Lock()
	r.seq++
	d.Seq = r.seq
	r.dumps.Push(d)
	r.mu.Unlock()
	r.captures.Inc()
	return d
}

// Latest returns the most recent dump, if any.
func (r *Recorder) Latest() (Dump, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dumps.Len() == 0 {
		return Dump{}, false
	}
	return r.dumps.Recent(1)[0], true
}

// Dumps returns all retained dumps, oldest first.
func (r *Recorder) Dumps() []Dump {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dumps.Oldest()
}

// Captured returns the total number of dumps ever captured.
func (r *Recorder) Captured() int64 { return r.captures.Value() }

// Kinds returns the sorted, de-duplicated trigger kinds among retained dumps.
func (r *Recorder) Kinds() []string {
	set := map[string]bool{}
	for _, d := range r.Dumps() {
		set[d.Kind] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
