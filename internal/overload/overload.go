// Package overload implements admission control for the serving nodes: the
// piece of the paper's availability story that PR 2 left out. The 1998 site
// rode out 5:1 peak-to-average surges (the Kiyosato and women's-freestyle
// peaks) without falling over because the Network Dispatcher shed work to
// nodes that still had headroom and DUP's prefetching kept caches so hot
// that render capacity was never the bottleneck. This package makes the
// "still had headroom" part explicit and measurable.
//
// A Limiter guards the expensive path of a node — regenerating a page on a
// cache miss — with three mechanisms layered in the classic order:
//
//  1. A concurrency limit: at most MaxConcurrent renders run at once, the
//     node-level analogue of the fixed pool of persistent server programs.
//  2. A bounded wait queue: up to MaxQueue requests may wait for a render
//     slot. A bounded queue is the difference between a node that is slow
//     and a node that is melting; past the bound, arrivals are shed
//     immediately instead of stacking up latency for everyone.
//  3. CoDel-style queue-delay shedding: the limiter tracks when queue
//     delay first rose above Target. Once it has stood above Target for a
//     full Interval the queue is carrying standing load rather than a
//     transient burst, and new arrivals are shed; any admission that waited
//     less than Target clears the state. (Sojourn-time control as in CoDel
//     [Nichols & Jacobson 2012], applied to an admission queue instead of
//     a packet queue.)
//
// The limiter also distills its state into a single load signal — an EWMA
// of queue delay normalized by Target, plus instantaneous slot utilization —
// which the dispatch advisors and the MSIRP routing layer consume so that
// an overloaded node loses traffic *before* it dies. 0 means idle, ~1 means
// fully busy, >1 means queueing; see Load.
package overload

import (
	"errors"
	"sync"
	"time"

	"dupserve/internal/stats"
)

// ErrShed is returned by Acquire when the limiter refuses admission — the
// queue is full or CoDel is in its shedding state. Callers degrade (serve a
// bounded-staleness copy, fail over to a sibling node) rather than wait.
var ErrShed = errors.New("overload: admission shed")

// Config describes a Limiter. The zero value gets working defaults.
type Config struct {
	// MaxConcurrent is the number of render slots (default 8 — the paper's
	// uniprocessor nodes ran a fixed pool of persistent server programs).
	MaxConcurrent int
	// MaxQueue bounds how many requests may wait for a slot (default
	// 2*MaxConcurrent). 0 means the default; negative means no waiting at
	// all (shed the moment every slot is busy).
	MaxQueue int
	// Target is the CoDel queue-delay target: queue delay standing above it
	// flips the limiter into shedding (default 5ms).
	Target time.Duration
	// Interval is how long queue delay must stand above Target before the
	// limiter starts shedding (default 100ms).
	Interval time.Duration
	// Clock substitutes the time source (tests).
	Clock func() time.Time
	// OnShedChange, if set, is called once per CoDel shedding transition
	// (true when the limiter starts refusing admissions, false when it
	// reconverges). It runs outside the limiter's lock, on the goroutine
	// that caused the transition, and must not block.
	OnShedChange func(shedding bool)
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.Target <= 0 {
		c.Target = 5 * time.Millisecond
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// ewmaAlpha weights each new queue-delay observation; ~0.2 remembers the
// last dozen or so observations, fast enough to track a surge onset and
// slow enough not to flap on a single unlucky wait.
const ewmaAlpha = 0.2

// Limiter is one node's admission controller. Safe for concurrent use.
type Limiter struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	inflight int
	waiting  int

	// CoDel state, guarded by mu: aboveSince is the earliest instant from
	// which queue delay is known to have stood above Target (zero when it
	// last dipped below).
	aboveSince time.Time
	shedding   bool

	ewmaDelay float64 // seconds, guarded by mu

	admitted  stats.Counter // admissions straight into a free slot
	queued    stats.Counter // admissions that waited in the queue
	shed      stats.Counter // refusals (queue full or CoDel shedding)
	shedCodel stats.Counter // refusals specifically from CoDel state
}

// NewLimiter returns a limiter over cfg.
func NewLimiter(cfg Config) *Limiter {
	l := &Limiter{cfg: cfg.withDefaults()}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Acquire requests admission to the limited section. On success it returns
// a release function that MUST be called exactly once when the work
// completes. On refusal it returns ErrShed and a nil release.
func (l *Limiter) Acquire() (release func(), err error) {
	l.mu.Lock()
	if l.inflight < l.cfg.MaxConcurrent && l.waiting == 0 {
		l.inflight++
		prev := l.shedding
		l.observeDelayLocked(0)
		changed := l.shedding != prev
		cur := l.shedding
		l.mu.Unlock()
		l.admitted.Inc()
		l.notifyShed(changed, cur)
		return l.release, nil
	}
	if l.shedding || l.waiting >= l.cfg.MaxQueue {
		codel := l.shedding
		l.mu.Unlock()
		l.shed.Inc()
		if codel {
			l.shedCodel.Inc()
		}
		return nil, ErrShed
	}
	l.waiting++
	start := l.cfg.Clock()
	for l.inflight >= l.cfg.MaxConcurrent {
		l.cond.Wait()
	}
	l.waiting--
	l.inflight++
	prev := l.shedding
	l.observeDelayLocked(l.cfg.Clock().Sub(start))
	changed := l.shedding != prev
	cur := l.shedding
	l.mu.Unlock()
	l.queued.Inc()
	l.notifyShed(changed, cur)
	return l.release, nil
}

// notifyShed fires the shed-transition callback when changed is true.
func (l *Limiter) notifyShed(changed, shedding bool) {
	if changed && l.cfg.OnShedChange != nil {
		l.cfg.OnShedChange(shedding)
	}
}

// TryAcquire is Acquire without the willingness to wait: it admits only
// into a free slot. Probes and background work use it so they never add
// queueing delay to foreground traffic.
func (l *Limiter) TryAcquire() (release func(), err error) {
	l.mu.Lock()
	if l.inflight < l.cfg.MaxConcurrent && l.waiting == 0 && !l.shedding {
		l.inflight++
		l.observeDelayLocked(0)
		l.mu.Unlock()
		l.admitted.Inc()
		return l.release, nil
	}
	l.mu.Unlock()
	l.shed.Inc()
	return nil, ErrShed
}

func (l *Limiter) release() {
	l.mu.Lock()
	l.inflight--
	prev := l.shedding
	if l.inflight == 0 && l.waiting == 0 {
		// Fully drained: whatever standing queue CoDel saw is gone, so the
		// shedding state must not outlive it. This is what makes a node
		// reconverge promptly once a surge clears.
		l.shedding = false
		l.aboveSince = time.Time{}
	}
	changed := l.shedding != prev
	cur := l.shedding
	l.mu.Unlock()
	l.cond.Signal()
	l.notifyShed(changed, cur)
}

// observeDelayLocked feeds one admission's queue delay into the CoDel state
// machine and the EWMA. Caller holds mu.
func (l *Limiter) observeDelayLocked(d time.Duration) {
	if d <= l.cfg.Target {
		// Someone got through quickly: the queue is not standing. An
		// admission straight into a free slot (d == 0) lands here too.
		l.aboveSince = time.Time{}
		l.shedding = false
	} else {
		now := l.cfg.Clock()
		// This request's whole wait was spent above target, so the queue
		// has been standing at least since it entered.
		since := now.Add(-d)
		if l.aboveSince.IsZero() || since.Before(l.aboveSince) {
			l.aboveSince = since
		}
		if now.Sub(l.aboveSince) >= l.cfg.Interval {
			l.shedding = true
		}
	}
	l.ewmaDelay = (1-ewmaAlpha)*l.ewmaDelay + ewmaAlpha*d.Seconds()
}

// Load is the node's scalar load signal: instantaneous slot utilization
// (inflight + waiting, over MaxConcurrent) plus the EWMA queue delay
// normalized by the CoDel target. An idle node reads 0; a node with every
// slot busy reads ~1; queueing pushes it above 1. Dispatch advisors and the
// routing layer treat it as "how close to melting".
func (l *Limiter) Load() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	util := float64(l.inflight+l.waiting) / float64(l.cfg.MaxConcurrent)
	delay := l.ewmaDelay / l.cfg.Target.Seconds()
	return util + delay
}

// Shedding reports whether the CoDel controller is currently refusing
// admissions.
func (l *Limiter) Shedding() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shedding
}

// Inflight returns the number of admissions currently held.
func (l *Limiter) Inflight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

// Waiting returns the number of requests queued for a slot.
func (l *Limiter) Waiting() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waiting
}

// RegisterMetrics publishes the limiter's counters and load signal into a
// registry. labels (may be nil) are attached to every series.
func (l *Limiter) RegisterMetrics(reg *stats.Registry, labels stats.Labels) {
	reg.RegisterCounter("overload_admitted_total",
		"render admissions into a free slot", labels, &l.admitted)
	reg.RegisterCounter("overload_queued_total",
		"render admissions after waiting in the bounded queue", labels, &l.queued)
	reg.RegisterCounter("overload_shed_total",
		"render admissions refused (queue full or CoDel shedding)", labels, &l.shed)
	reg.RegisterCounter("overload_shed_codel_total",
		"admissions refused by the CoDel standing-delay controller", labels, &l.shedCodel)
	reg.RegisterFunc("overload_load",
		"node load signal: slot utilization + EWMA queue delay over target", labels,
		l.Load)
	reg.RegisterFunc("overload_inflight",
		"render slots currently held", labels,
		func() float64 { return float64(l.Inflight()) })
	reg.RegisterFunc("overload_shedding",
		"1 while the CoDel controller is refusing admissions", labels,
		func() float64 {
			if l.Shedding() {
				return 1
			}
			return 0
		})
}
