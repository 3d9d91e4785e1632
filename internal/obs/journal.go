package obs

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"dupserve/internal/stats"
)

// Level classifies a journal event's severity.
type Level int8

// The journal levels, ordered by severity.
const (
	LevelInfo Level = iota
	LevelWarn
	LevelError
)

var levelNames = [...]string{"info", "warn", "error"}

// String returns the lowercase level name.
func (l Level) String() string {
	if l < 0 || int(l) >= len(levelNames) {
		return "unknown"
	}
	return levelNames[l]
}

// MarshalJSON renders the level as its name.
func (l Level) MarshalJSON() ([]byte, error) { return json.Marshal(l.String()) }

// Event is one structured journal entry. Scope identifies the subsystem
// ("trigger", "cache", "overload", "routing", "audit", "trace"), Kind the
// event type within it ("crash", "push_downgrade", "shed_start", ...).
// Attrs carry identity only (node, page, lsn) — never durations or other
// timing-dependent values — so events survive canonical (time-free)
// projection in flight-recorder dumps.
type Event struct {
	Seq   int64             `json:"seq"`
	Time  time.Time         `json:"time"`
	Level Level             `json:"level"`
	Scope string            `json:"scope"`
	Kind  string            `json:"kind"`
	Msg   string            `json:"msg"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Journal is a small leveled, bounded event log. Appends are mutex-ring
// inserts; subscribers are notified after the journal's lock is released so
// a subscriber (the flight recorder) may read the journal back. The journal
// is off the serve hot path — events mark state *transitions* (crash, shed
// flip, downgrade), which are rare by construction.
type Journal struct {
	now   func() time.Time
	armed atomic.Bool

	mu   sync.Mutex
	ring stats.Ring[Event] // journalRingSize most recent events
	seq  int64
	subs []func(Event)

	appended stats.Counter
}

func newJournal(cfg config) *Journal {
	j := &Journal{now: cfg.clock, ring: stats.NewRing[Event](journalRingSize)}
	j.armed.Store(true)
	return j
}

// SetArmed enables (true) or suppresses (false) appends. Disarmed appends
// are dropped entirely — no ring insert, no subscriber delivery.
func (j *Journal) SetArmed(armed bool) { j.armed.Store(armed) }

// Armed reports whether the journal is accepting events.
func (j *Journal) Armed() bool { return j.armed.Load() }

// Event appends one event. kv lists attribute key/value pairs
// ("node", "tokyo-sp2-0-up1", "lsn", "42"); a trailing odd key is ignored.
func (j *Journal) Event(level Level, scope, kind, msg string, kv ...string) {
	if !j.armed.Load() {
		return
	}
	var attrs map[string]string
	if len(kv) >= 2 {
		attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			attrs[kv[i]] = kv[i+1]
		}
	}
	j.append(Event{Level: level, Scope: scope, Kind: kind, Msg: msg, Attrs: attrs})
}

// append stamps sequence and time, inserts into the ring, and delivers the
// event to subscribers after unlocking.
func (j *Journal) append(e Event) {
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	e.Time = j.now()
	j.ring.Push(e)
	subs := j.subs
	j.mu.Unlock()
	j.appended.Inc()
	for _, fn := range subs {
		fn(e)
	}
}

// Subscribe registers fn to receive every appended event. Subscriptions are
// expected at wiring time and cannot be removed.
func (j *Journal) Subscribe(fn func(Event)) {
	j.mu.Lock()
	// Copy-on-write so append can hand the slice out without holding the lock.
	subs := make([]func(Event), len(j.subs), len(j.subs)+1)
	copy(subs, j.subs)
	j.subs = append(subs, fn)
	j.mu.Unlock()
}

// Recent returns up to n events, newest first.
func (j *Journal) Recent(n int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.Recent(n)
}

// Appended returns how many events have been appended since creation.
func (j *Journal) Appended() int64 { return j.appended.Value() }
