// Package dispatch implements the connection-routing layer of section 4.2
// of the paper: IBM's Interactive Network Dispatcher (ND) with its
// Interactive Session Support (ISS) advisors.
//
// A Dispatcher fronts a pool of serving nodes, forwarding each request to
// the node with the fewest outstanding requests (load-based distribution).
// Advisors probe node health; a node that fails a probe — or fails while
// serving — is immediately pulled from the distribution list, and requests
// in flight fail over to the surviving nodes. That instant-eviction plus
// retry behaviour is the bottom layer of the paper's "elegant degradation".
//
// # Pick-path concurrency
//
// Request routing is lock-free: the distribution list is an immutable
// snapshot swapped atomically (RCU-style) whenever membership or probation
// state changes. A pick reads the current snapshot, scans it with atomic
// per-member counters (outstanding work, slow-start credit, cached load
// signal), and never takes the dispatcher lock — so routing does not
// serialize concurrent requests, and two requests never observe a torn
// member list. The lock still guards the slow path: membership changes,
// the probation state machine, and advisor sweeps. Each member's overload
// signal is cached in the snapshot's atomics and refreshed when a request
// completes on that member and on every advisor observation, so the pick
// path never calls into a node's limiter.
//
// Dispatcher itself satisfies the Node interface, so dispatchers compose:
// the routing layer treats a whole complex (one dispatcher over many
// serving nodes) as a single node, mirroring Figure 19.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dupserve/internal/cache"
	"dupserve/internal/httpserver"
	"dupserve/internal/obs"
	"dupserve/internal/stats"
)

// Node is anything that can satisfy a request: an httpserver.Server, a
// simulated cluster node, or another Dispatcher.
type Node interface {
	Name() string
	Serve(path string) (*cache.Object, httpserver.Outcome, error)
}

// ctxServer is the optional interface through which a node accepts the
// request context carrying the serve span. httpserver.Server, cluster.Node
// and Dispatcher itself implement it; nodes without it are served through
// plain Serve and simply record no node-side stages.
type ctxServer interface {
	ServeCtx(ctx context.Context, path string) (*cache.Object, httpserver.Outcome, error)
}

// loadSignaler is the optional interface through which a node reports its
// overload signal (see overload.Limiter.Load): 0 idle, ~1 fully busy, >1
// queueing. The dispatcher's ISS advisors fold it into node selection so an
// overloaded node loses traffic before it starts shedding — the paper's
// load-based distribution reacting to render pressure, not just connection
// counts. httpserver.Server and nested Dispatchers both implement it.
type loadSignaler interface{ LoadSignal() float64 }

// ReadyReporter is the optional interface through which a node exposes a
// synthetic health check. Probing through it keeps advisor sweeps out of
// the serve path entirely: no served/hit counters move and no serve spans
// are minted on behalf of a probe. httpserver.Server, cluster.Node and
// Dispatcher itself implement it.
type ReadyReporter interface{ Ready() bool }

// DefaultProbe is the advisor health probe: it asks the node's synthetic
// health check when it implements ReadyReporter; only nodes without one
// fall back to serving "/" (where any outcome except an error counts as
// healthy).
func DefaultProbe(n Node) bool {
	if rr, ok := n.(ReadyReporter); ok {
		return rr.Ready()
	}
	_, outcome, _ := n.Serve("/")
	return outcome != httpserver.OutcomeError
}

// ErrNoBackends is returned when every node in the pool is down.
var ErrNoBackends = errors.New("dispatch: no healthy backends")

// MemberState is a pool member's position in the probation state machine.
type MemberState uint8

const (
	// StateUp: full member of the distribution list at its configured weight.
	StateUp MemberState = iota
	// StateProbation: readmitted but ramping — the member takes only a
	// fraction of the traffic an equally loaded up member would, and the
	// fraction grows with each good probe observation until it reaches full
	// weight.
	StateProbation
	// StateDown: out of the distribution list.
	StateDown
)

func (s MemberState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateProbation:
		return "probation"
	default:
		return "down"
	}
}

// HealthPolicy tunes the probation state machine. The zero value (after
// normalization) reproduces the dispatcher's historical behaviour exactly:
// one bad observation evicts, one good observation readmits at full weight,
// and no flap damping — the paper's instant-eviction advisors.
type HealthPolicy struct {
	// FailThreshold is how many consecutive bad probe observations evict an
	// up or probationary member (default 1). Serving failures and explicit
	// MarkDown calls evict immediately regardless — a request that died on
	// the node is certainty, not probe noise.
	FailThreshold int
	// ReadmitThreshold is how many consecutive good observations a down
	// member needs before readmission begins (default 1).
	ReadmitThreshold int
	// RampStart is the traffic share a freshly readmitted member starts at,
	// in (0,1]. 1 (the default) disables the ramp: readmission goes straight
	// to full weight.
	RampStart float64
	// RampFactor multiplies the share on each further good observation until
	// it reaches 1 (default 2: exponential slow-start).
	RampFactor float64
	// FlapWindow arms flap damping when positive: a member evicted again
	// within this many good observations of its last readmission counts as a
	// flapping node and earns a quarantine.
	FlapWindow int
	// QuarantineBase is the number of good observations ignored before the
	// first flap's readmission may begin; each further flap doubles it.
	QuarantineBase int
	// QuarantineMax caps the quarantine growth (default: QuarantineBase<<4).
	QuarantineMax int
}

func (p HealthPolicy) normalized() HealthPolicy {
	if p.FailThreshold < 1 {
		p.FailThreshold = 1
	}
	if p.ReadmitThreshold < 1 {
		p.ReadmitThreshold = 1
	}
	if p.RampStart <= 0 || p.RampStart > 1 {
		p.RampStart = 1
	}
	if p.RampFactor <= 1 {
		p.RampFactor = 2
	}
	if p.FlapWindow < 0 {
		p.FlapWindow = 0
	}
	if p.QuarantineBase < 0 {
		p.QuarantineBase = 0
	}
	if p.QuarantineMax < p.QuarantineBase {
		p.QuarantineMax = p.QuarantineBase << 4
	}
	return p
}

// StateChange describes one probation-machine transition, delivered to the
// WithStateChange hook after the dispatcher's lock is released.
type StateChange struct {
	Node     string
	From, To MemberState
	// Cause: "probe" (advisor observation), "advisor" (explicit
	// MarkDown/MarkUp), or "serve_failure" (a request died on the node).
	Cause string
	// Flapped is true when this eviction counted as a flap and earned (or
	// grew) a quarantine.
	Flapped bool
	// Flaps and Quarantine are the member's flap count and pending
	// quarantine after the change.
	Flaps      int
	Quarantine int
}

// creditUnit is the fixed-point scale for slow-start credits and ramps
// (1.0 == one full credit).
const creditUnit = 1000

// member is one pool entry. Routing-visible fields (outstanding, credit,
// ramp, cached load, serve accounting) are atomics so the lock-free pick
// path can read and update them; the probation state machine fields are
// guarded by the dispatcher's mutex.
type member struct {
	node Node
	cs   ctxServer    // pre-resolved ServeCtx, nil if unsupported
	ls   loadSignaler // pre-resolved LoadSignal, nil if unsupported

	weight    int          // capacity multiplier (the ND weighted SMPs above UPs)
	invWeight float64      // 1/weight, precomputed for the pick path
	state     MemberState  // guarded by d.mu
	out       atomic.Int64 // outstanding requests
	served    atomic.Int64
	failures  atomic.Int64
	sheds     atomic.Int64  // requests this node refused under overload
	credit    atomic.Int64  // slow-start token bucket, creditUnit fixed-point
	rampM     atomic.Int64  // probation traffic share, creditUnit fixed-point
	loadBits  atomic.Uint64 // cached LoadSignal (float64 bits)

	// Probation state machine (guarded by d.mu; see HealthPolicy).
	failStreak int // consecutive bad observations while up/probation
	okStreak   int // consecutive good observations while down
	goodRun    int // good observations since the last readmission
	readmits   int // times this member has been readmitted
	flaps      int // flap count (cleared by a clean run past FlapWindow)
	quarantine int // good observations still ignored before readmission
}

func newMember(n Node, weight int) *member {
	m := &member{node: n, weight: weight, invWeight: 1 / float64(weight), state: StateUp}
	m.cs, _ = n.(ctxServer)
	m.ls, _ = n.(loadSignaler)
	m.refreshLoad()
	return m
}

func (m *member) inList() bool { return m.state != StateDown }

// refreshLoad re-queries the node's overload signal into the pick path's
// cache. Called when a request completes on the member and on every
// advisor observation — never from the pick path itself.
func (m *member) refreshLoad() {
	if m.ls == nil {
		return
	}
	m.loadBits.Store(math.Float64bits(m.ls.LoadSignal()))
}

// cachedLoad returns the last refreshed overload signal.
func (m *member) cachedLoad() float64 {
	return math.Float64frombits(m.loadBits.Load())
}

// load is the member's normalized queue depth: outstanding work divided by
// capacity. A weight-4 node with 4 requests in flight is as "busy" as a
// weight-1 node with one.
func (m *member) load() float64 {
	return float64(m.out.Load()) * m.invWeight
}

// score is the pick-path selection key: queue depth here at the dispatcher
// plus the member's cached overload signal. Two nodes with equal
// outstanding counts are no longer equal if one of them is queueing renders.
func (m *member) score() float64 {
	return m.load() + m.cachedLoad()
}

// liveScore is score with a live (uncached) load query, used for Stats and
// the dispatcher's own LoadSignal.
func (m *member) liveScore() float64 {
	s := m.load()
	if m.ls != nil {
		s += m.ls.LoadSignal()
	}
	return s
}

// snapEntry is one member's routing-relevant state frozen into a snapshot.
// The member pointer carries the atomics that stay live across snapshots.
type snapEntry struct {
	m         *member
	probation bool
}

// snapshot is the immutable distribution list the pick path reads. A new
// one is built under the dispatcher lock and swapped in atomically on every
// membership or probation-state change; in-flight requests keep using the
// snapshot they started with (their failover bitmask indexes it).
type snapshot struct {
	entries []snapEntry
}

// Dispatcher forwards requests across a pool of nodes. Safe for concurrent
// use. Serve works as soon as New returns; Start is only needed when
// background advisors are wanted (Config.ProbeInterval > 0).
type Dispatcher struct {
	name          string
	probeInterval time.Duration
	observer      *obs.Collector // mints serve spans; nil without WithObserver
	policy        HealthPolicy
	onChange      func(StateChange) // fired outside the lock; nil without WithStateChange

	mu      sync.Mutex
	members []*member
	started bool

	snap atomic.Pointer[snapshot]
	rrc  atomic.Uint64 // round-robin tiebreak cursor

	forwarded     stats.Counter
	failovers     stats.Counter
	shedFailovers stats.Counter
	rejected      stats.Counter
	evictions     stats.Counter
	readmissions  stats.Counter
	flapsTotal    stats.Counter

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// Option configures a Dispatcher.
type Option func(*Dispatcher)

// WithObserver mints a serve span (into col) for every request entering
// this dispatcher whose context does not already carry one. Nested
// dispatchers leave the outer span intact, so a request through the routing
// layer records exactly one span.
func WithObserver(col *obs.Collector) Option {
	return func(d *Dispatcher) { d.observer = col }
}

// WithHealthPolicy replaces the default (legacy instant-eviction,
// instant-readmission) probation policy.
func WithHealthPolicy(p HealthPolicy) Option {
	return func(d *Dispatcher) { d.policy = p.normalized() }
}

// WithStateChange registers a hook observing every probation-machine
// transition. The hook runs after the dispatcher releases its lock, so it
// may call back into the dispatcher (and may journal, capture dumps, etc.).
func WithStateChange(fn func(StateChange)) Option {
	return func(d *Dispatcher) { d.onChange = fn }
}

// Config describes a Dispatcher.
type Config struct {
	// Name appears in diagnostics and error messages.
	Name string
	// Nodes seeds the pool, all initially up with weight 1. Add/AddWeighted
	// extend it later.
	Nodes []Node
	// ProbeInterval, when positive, makes Start launch a background advisor
	// loop probing the pool at this interval. Zero leaves health management
	// to explicit CheckNow / MarkDown calls (the simulator's mode).
	ProbeInterval time.Duration
}

// New returns a dispatcher over cfg. The pool serves immediately; call
// Start to launch background advisors when Config.ProbeInterval is set.
func New(cfg Config, opts ...Option) *Dispatcher {
	d := &Dispatcher{
		name:          cfg.Name,
		probeInterval: cfg.ProbeInterval,
		policy:        HealthPolicy{}.normalized(),
		stopCh:        make(chan struct{}),
	}
	for _, o := range opts {
		o(d)
	}
	for _, n := range cfg.Nodes {
		d.members = append(d.members, newMember(n, 1))
	}
	d.rebuildLocked()
	return d
}

// rebuildLocked swaps in a fresh immutable snapshot of the distribution
// list. Caller holds d.mu (or owns the dispatcher exclusively, as in New).
func (d *Dispatcher) rebuildLocked() {
	entries := make([]snapEntry, 0, len(d.members))
	for _, m := range d.members {
		if m.state == StateDown {
			continue
		}
		entries = append(entries, snapEntry{m: m, probation: m.state == StateProbation})
	}
	d.snap.Store(&snapshot{entries: entries})
}

// Start launches the advisor loop if the dispatcher was configured with a
// probe interval (otherwise it only arms shutdown). Cancelling ctx initiates the same teardown as
// Shutdown. Start may be called once.
func (d *Dispatcher) Start(ctx context.Context) error {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return fmt.Errorf("dispatch: %q already started", d.name)
	}
	d.started = true
	d.mu.Unlock()
	if d.probeInterval > 0 {
		d.startAdvisors(d.probeInterval)
	}
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				d.stop()
			case <-d.stopCh:
			}
		}()
	}
	return nil
}

// Shutdown terminates advisor loops and waits for them to exit. The drain
// is immediate (advisors hold no work), so ctx is accepted only to match
// the trigger monitor's and the deployment's Shutdown. Safe to call more
// than once and before Start.
func (d *Dispatcher) Shutdown(ctx context.Context) error {
	d.stop()
	return nil
}

// Name implements Node.
func (d *Dispatcher) Name() string { return d.name }

// Add inserts a node into the pool (initially up, weight 1).
func (d *Dispatcher) Add(n Node) { d.AddWeighted(n, 1) }

// AddWeighted inserts a node with a capacity weight: the Network Dispatcher
// supported heterogeneous pools (the 8-way SMP could absorb several times a
// uniprocessor's load), and the picker balances outstanding work divided by
// weight. Weights below 1 are clamped to 1.
func (d *Dispatcher) AddWeighted(n Node, weight int) {
	if weight < 1 {
		weight = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.members = append(d.members, newMember(n, weight))
	d.rebuildLocked()
}

// Remove deletes a node from the pool by name, reporting whether it was
// present.
func (d *Dispatcher) Remove(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, m := range d.members {
		if m.node.Name() == name {
			d.members = append(d.members[:i], d.members[i+1:]...)
			d.rebuildLocked()
			return true
		}
	}
	return false
}

// MarkDown pulls a node from the distribution list without removing it.
// An explicit mark-down is external certainty (the cluster's advisor saw
// the node die), so it evicts immediately regardless of FailThreshold.
func (d *Dispatcher) MarkDown(name string) bool {
	d.mu.Lock()
	var changes []StateChange
	found := false
	for _, m := range d.members {
		if m.node.Name() == name {
			found = true
			changes = d.evictLocked(m, "advisor", changes)
		}
	}
	d.mu.Unlock()
	d.fire(changes)
	return found
}

// MarkUp counts one good advisor observation for the node. Under the
// default policy that readmits it to full weight immediately; under a
// stricter HealthPolicy it works through quarantine, the readmit threshold,
// and the slow-start ramp like any good probe observation.
func (d *Dispatcher) MarkUp(name string) bool {
	d.mu.Lock()
	var changes []StateChange
	found := false
	for _, m := range d.members {
		if m.node.Name() == name {
			found = true
			changes = d.observeGoodLocked(m, "advisor", changes)
		}
	}
	d.mu.Unlock()
	d.fire(changes)
	return found
}

// evictLocked transitions m to StateDown, applying flap damping. Caller
// holds d.mu; returned changes must be fired after unlock.
func (d *Dispatcher) evictLocked(m *member, cause string, changes []StateChange) []StateChange {
	if m.state == StateDown {
		return changes
	}
	from := m.state
	m.state = StateDown
	m.failStreak = 0
	m.okStreak = 0
	m.credit.Store(0)
	d.evictions.Inc()
	flapped := false
	p := d.policy
	if p.FlapWindow > 0 && m.readmits > 0 && (from == StateProbation || m.goodRun <= p.FlapWindow) {
		// The node died again before proving itself: exponentially longer
		// quarantine per flap.
		flapped = true
		m.flaps++
		d.flapsTotal.Inc()
		q := p.QuarantineBase
		for i := 1; i < m.flaps && q < p.QuarantineMax; i++ {
			q <<= 1
		}
		if q > p.QuarantineMax {
			q = p.QuarantineMax
		}
		m.quarantine = q
	}
	m.goodRun = 0
	d.rebuildLocked()
	return append(changes, StateChange{
		Node: m.node.Name(), From: from, To: StateDown, Cause: cause,
		Flapped: flapped, Flaps: m.flaps, Quarantine: m.quarantine,
	})
}

// observeGoodLocked counts one good observation for m: quarantine drains
// first, then the readmit threshold, then the slow-start ramp. Caller holds
// d.mu; returned changes must be fired after unlock.
func (d *Dispatcher) observeGoodLocked(m *member, cause string, changes []StateChange) []StateChange {
	p := d.policy
	m.failStreak = 0
	switch m.state {
	case StateDown:
		if m.quarantine > 0 {
			m.quarantine--
			return changes
		}
		m.okStreak++
		if m.okStreak < p.ReadmitThreshold {
			return changes
		}
		m.okStreak = 0
		m.readmits++
		m.goodRun = 0
		m.rampM.Store(int64(p.RampStart * creditUnit))
		m.credit.Store(0)
		to := StateProbation
		if m.rampM.Load() >= creditUnit {
			to = StateUp
		}
		m.state = to
		d.readmissions.Inc()
		d.rebuildLocked()
		return append(changes, StateChange{
			Node: m.node.Name(), From: StateDown, To: to, Cause: cause,
			Flaps: m.flaps, Quarantine: m.quarantine,
		})
	case StateProbation:
		m.goodRun++
		ramp := int64(float64(m.rampM.Load()) * p.RampFactor)
		if ramp >= creditUnit {
			m.rampM.Store(creditUnit)
			m.state = StateUp
			d.rebuildLocked()
			return append(changes, StateChange{
				Node: m.node.Name(), From: StateProbation, To: StateUp, Cause: cause,
				Flaps: m.flaps, Quarantine: m.quarantine,
			})
		}
		m.rampM.Store(ramp)
		return changes
	default: // StateUp
		m.goodRun++
		if p.FlapWindow > 0 && m.goodRun > p.FlapWindow {
			// A clean run past the flap window forgives the history.
			m.flaps = 0
		}
		return changes
	}
}

// observeBadLocked counts one bad probe observation, evicting once the
// failure streak crosses the threshold.
func (d *Dispatcher) observeBadLocked(m *member, cause string, changes []StateChange) []StateChange {
	if m.state == StateDown {
		m.okStreak = 0
		return changes
	}
	m.failStreak++
	if m.failStreak < d.policy.FailThreshold {
		return changes
	}
	return d.evictLocked(m, cause, changes)
}

// fire delivers state changes to the hook outside the lock.
func (d *Dispatcher) fire(changes []StateChange) {
	if d.onChange == nil {
		return
	}
	for _, ch := range changes {
		d.onChange(ch)
	}
}

// Healthy returns the names of nodes currently in the distribution list
// (up or in probation), sorted.
func (d *Dispatcher) Healthy() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for _, m := range d.members {
		if m.inList() {
			out = append(out, m.node.Name())
		}
	}
	sort.Strings(out)
	return out
}

// HealthyCount returns how many nodes are in the distribution list.
func (d *Dispatcher) HealthyCount() int {
	return len(d.snap.Load().entries)
}

// Ready implements ReadyReporter for nested dispatchers: a pool with at
// least one member in the distribution list can serve.
func (d *Dispatcher) Ready() bool { return d.HealthyCount() > 0 }

// MemberState returns the probation state of the named member.
func (d *Dispatcher) MemberState(name string) (MemberState, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, m := range d.members {
		if m.node.Name() == name {
			return m.state, true
		}
	}
	return StateDown, false
}

// pick selects the snapshot member with the fewest outstanding requests,
// breaking ties round-robin, and accounts an outstanding request against
// it. tried is a bitmask (by snapshot index) of members already attempted
// for this request. Returns the snapshot index, or -1 when no member is
// available. Lock-free: only atomics are touched.
//
// Probationary members are slow-started through a token bucket: each pick
// accrues `ramp` credit, and the member is only eligible once a full credit
// has accumulated (spent on selection). A member ramping at 1/4 therefore
// takes roughly a quarter of the traffic an idle up member would, growing
// exponentially as good probe observations multiply the ramp.
func (d *Dispatcher) pick(sn *snapshot, tried uint64) int {
	n := len(sn.entries)
	if n == 0 {
		return -1
	}
	start := int(d.rrc.Add(1)-1) % n
	best := -1
	var bestScore float64
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		if tried&(1<<uint(idx)) != 0 {
			continue
		}
		e := &sn.entries[idx]
		if e.probation {
			c := e.m.credit.Add(e.m.rampM.Load())
			if c > 2*creditUnit {
				e.m.credit.Store(2 * creditUnit)
			}
			if c < creditUnit {
				continue
			}
		}
		if s := e.m.score(); best < 0 || s < bestScore {
			best, bestScore = idx, s
		}
	}
	if best < 0 {
		// No member passed the credit gate. A pool of only probationary
		// members must still serve: retry ignoring the gate rather than
		// black-holing the request.
		for i := 0; i < n; i++ {
			idx := (start + i) % n
			if tried&(1<<uint(idx)) != 0 {
				continue
			}
			if s := sn.entries[idx].m.score(); best < 0 || s < bestScore {
				best, bestScore = idx, s
			}
		}
	}
	if best < 0 {
		return -1
	}
	bm := sn.entries[best].m
	if sn.entries[best].probation {
		if c := bm.credit.Load(); c > creditUnit {
			bm.credit.Add(-creditUnit)
		} else {
			bm.credit.Store(0)
		}
	}
	bm.out.Add(1)
	return best
}

// release accounts a finished request. On success the member's cached load
// signal is refreshed — the one LoadSignal query per request, off the pick
// path. On failure the member is evicted: a dead request is certainty, not
// probe noise.
func (d *Dispatcher) release(m *member, failed bool) {
	m.out.Add(-1)
	if !failed {
		m.served.Add(1)
		m.refreshLoad()
		return
	}
	m.failures.Add(1)
	d.mu.Lock()
	changes := d.evictLocked(m, "serve_failure", nil)
	d.mu.Unlock()
	d.fire(changes)
}

// releaseShed accounts a refusal under overload. Crucially the node stays
// up: an overloaded node is healthy and will take traffic again the moment
// its queue drains, so pulling it from the distribution list (as release
// does for failures) would turn a transient surge into a capacity loss.
func (d *Dispatcher) releaseShed(m *member) {
	m.out.Add(-1)
	m.sheds.Add(1)
	m.refreshLoad()
}

// Serve implements Node: forward the request to a healthy backend, failing
// over (and pulling failed nodes) until a node answers or the pool is
// exhausted.
func (d *Dispatcher) Serve(path string) (*cache.Object, httpserver.Outcome, error) {
	return d.ServeCtx(context.Background(), path)
}

// ServeCtx is Serve with a request context. When an observer is installed
// and ctx carries no span yet, the dispatcher mints one here — the serve
// path's entry point — sets its path, outcome and observed LSN, and records
// it when the request completes. An inherited span (nested dispatchers, the
// routing layer) is stamped but not finished: it belongs to the outermost
// dispatcher.
func (d *Dispatcher) ServeCtx(ctx context.Context, path string) (*cache.Object, httpserver.Outcome, error) {
	sp := obs.FromContext(ctx)
	minted := false
	if sp == nil && d.observer != nil {
		ctx, sp = d.observer.StartSpan(ctx)
		sp.SetPath(path)
		minted = true
	}
	obj, outcome, err := d.serve(ctx, sp, path)
	if minted {
		sp.SetOutcome(outcome.String())
		if obj != nil {
			sp.SetLSN(obj.Version)
		}
		sp.Finish()
	}
	return obj, outcome, err
}

// serveOn forwards one attempt to a member, threading the span context when
// the node supports it.
func serveOn(ctx context.Context, m *member, path string) (*cache.Object, httpserver.Outcome, error) {
	if m.cs != nil {
		return m.cs.ServeCtx(ctx, path)
	}
	return m.node.Serve(path)
}

// serve is the lock-free failover loop behind Serve/ServeCtx. The request
// routes over one immutable snapshot: members evicted mid-request simply
// fail their attempt and are masked out; members added mid-request are
// picked up by the next request. Every member is tried at most once. The
// tried set is a bitmask over snapshot indices, so the hit path performs no
// allocation. Snapshots wider than 64 members mask only the first 64 (a
// pool that wide is itself a misconfiguration — the ND topped out at tens
// of nodes per site), so a request over one stops after as many attempts
// as the snapshot has members instead of picking an unmasked member
// forever.
func (d *Dispatcher) serve(ctx context.Context, sp *obs.Span, path string) (*cache.Object, httpserver.Outcome, error) {
	sn := d.snap.Load()
	wide := len(sn.entries) > 64
	var tried uint64
	retries := 0
	var lastShed error
	for {
		idx := -1
		if !wide || retries < len(sn.entries) {
			idx = d.pick(sn, tried)
		}
		if idx < 0 {
			d.rejected.Inc()
			if lastShed != nil {
				// Every reachable node refused under overload; the pool is
				// saturated, not dead. Propagate the shed so the routing
				// layer can try another complex instead of declaring this
				// one failed.
				return nil, httpserver.OutcomeShed, lastShed
			}
			return nil, httpserver.OutcomeError, fmt.Errorf("%w (%s)", ErrNoBackends, d.name)
		}
		if idx < 64 {
			tried |= 1 << uint(idx)
		}
		m := sn.entries[idx].m
		// Route selection done (possibly again after a failover — the stamp
		// reflects the last node actually tried).
		sp.Stamp(obs.SpanRoute)
		sp.SetNode(m.node.Name())
		obj, outcome, err := serveOn(ctx, m, path)
		if outcome == httpserver.OutcomeShed {
			// Overloaded, not broken: fail over to a sibling but leave the
			// node in the distribution list.
			d.releaseShed(m)
			d.shedFailovers.Inc()
			lastShed = err
			retries++
			continue
		}
		if outcome == httpserver.OutcomeError && err != nil && !errors.Is(err, httpserver.ErrNoRoute) {
			// Node-level failure: pull it and fail over.
			d.release(m, true)
			d.failovers.Inc()
			retries++
			continue
		}
		d.release(m, false)
		d.forwarded.Inc()
		return obj, outcome, err
	}
}

// LoadSignal implements loadSignaler for nested dispatchers and the routing
// layer: the mean live score of the distribution list. A whole complex
// therefore reports how loaded its nodes are, and MSIRP can withdraw
// addresses from a complex whose aggregate crosses the shedding threshold.
func (d *Dispatcher) LoadSignal() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var sum float64
	n := 0
	for _, m := range d.members {
		if !m.inList() {
			continue
		}
		sum += m.liveScore()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// CheckNow runs one advisor sweep synchronously: every node is probed and
// the observation fed through the probation state machine (hysteresis,
// quarantine, slow-start ramp), and its cached load signal refreshed.
// Returns the number of nodes left in the distribution list. The simulation
// calls this on its own clock; live servers set Config.ProbeInterval and
// call Start.
func (d *Dispatcher) CheckNow() int {
	d.mu.Lock()
	nodes := make([]*member, len(d.members))
	copy(nodes, d.members)
	d.mu.Unlock()

	var changes []StateChange
	healthy := 0
	for _, m := range nodes {
		ok := DefaultProbe(m.node)
		m.refreshLoad()
		d.mu.Lock()
		if ok {
			changes = d.observeGoodLocked(m, "probe", changes)
		} else {
			changes = d.observeBadLocked(m, "probe", changes)
		}
		if m.inList() {
			healthy++
		}
		d.mu.Unlock()
	}
	d.fire(changes)
	return healthy
}

// startAdvisors launches the background advisor loop probing every
// interval; Start calls it when Config.ProbeInterval is set, and stop
// terminates it.
func (d *Dispatcher) startAdvisors(interval time.Duration) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				d.CheckNow()
			case <-d.stopCh:
				return
			}
		}
	}()
}

// stop terminates advisor loops. Safe to call multiple times, and a no-op
// if the advisor loop was never started.
func (d *Dispatcher) stop() {
	d.stopOnce.Do(func() { close(d.stopCh) })
	d.wg.Wait()
}

// NodeStats describes one pool member.
type NodeStats struct {
	Name string
	// Up reports distribution-list membership (up or probation).
	Up bool
	// State is the probation-machine state ("up", "probation", "down").
	State       string
	Weight      int
	Outstanding int
	Served      int64
	Failures    int64
	// Sheds counts requests this node refused under overload (the node
	// stayed in the distribution list; the requests failed over).
	Sheds int64
	// Load is the member's current selection score: dispatcher queue depth
	// plus the node's own overload signal (queried live for the snapshot).
	Load float64
	// Ramp is the slow-start traffic share while in probation (1 otherwise).
	Ramp float64
	// Flaps and Quarantine describe flap-damping state.
	Flaps      int
	Quarantine int
}

// DispatcherStats snapshots the dispatcher.
type DispatcherStats struct {
	Forwarded int64
	Failovers int64
	// ShedFailovers counts failovers caused by overload sheds (the node was
	// not pulled from the pool).
	ShedFailovers int64
	Rejected      int64
	// Evictions/Readmissions/Flaps count probation-machine transitions.
	Evictions    int64
	Readmissions int64
	Flaps        int64
	Nodes        []NodeStats
}

// RegisterMetrics publishes the dispatcher's counters and pool health into
// a registry. labels (may be nil) are attached to every series.
func (d *Dispatcher) RegisterMetrics(reg *stats.Registry, labels stats.Labels) {
	reg.RegisterCounter("dispatch_forwarded_total",
		"requests forwarded to a pool member", labels, &d.forwarded)
	reg.RegisterCounter("dispatch_failovers_total",
		"requests retried on another member after a failure", labels, &d.failovers)
	reg.RegisterCounter("dispatch_shed_failovers_total",
		"requests retried on another member after an overload shed", labels, &d.shedFailovers)
	reg.RegisterFunc("dispatch_load_signal",
		"mean selection score across the distribution list", labels, d.LoadSignal)
	reg.RegisterCounter("dispatch_rejected_total",
		"requests rejected with no healthy member", labels, &d.rejected)
	reg.RegisterFunc("dispatch_healthy_nodes",
		"pool members currently in the distribution list", labels,
		func() float64 { return float64(d.HealthyCount()) })
	reg.RegisterCounter("dispatch_evictions_total",
		"pool members evicted from the distribution list", labels, &d.evictions)
	reg.RegisterCounter("dispatch_readmissions_total",
		"pool members readmitted after eviction", labels, &d.readmissions)
	reg.RegisterCounter("dispatch_flaps_total",
		"evictions that counted as flaps and earned a quarantine", labels, &d.flapsTotal)
	reg.RegisterFunc("dispatch_probation_nodes",
		"pool members currently in the slow-start probation state", labels,
		func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			n := 0
			for _, m := range d.members {
				if m.state == StateProbation {
					n++
				}
			}
			return float64(n)
		})
}

// Stats returns a snapshot of pool state and counters.
func (d *Dispatcher) Stats() DispatcherStats {
	d.mu.Lock()
	nodes := make([]NodeStats, 0, len(d.members))
	for _, m := range d.members {
		ramp := 1.0
		if m.state == StateProbation {
			ramp = float64(m.rampM.Load()) / creditUnit
		}
		nodes = append(nodes, NodeStats{
			Name:        m.node.Name(),
			Up:          m.inList(),
			State:       m.state.String(),
			Weight:      m.weight,
			Outstanding: int(m.out.Load()),
			Served:      m.served.Load(),
			Failures:    m.failures.Load(),
			Sheds:       m.sheds.Load(),
			Load:        m.liveScore(),
			Ramp:        ramp,
			Flaps:       m.flaps,
			Quarantine:  m.quarantine,
		})
	}
	d.mu.Unlock()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	return DispatcherStats{
		Forwarded:     d.forwarded.Value(),
		Failovers:     d.failovers.Value(),
		ShedFailovers: d.shedFailovers.Value(),
		Rejected:      d.rejected.Value(),
		Evictions:     d.evictions.Value(),
		Readmissions:  d.readmissions.Value(),
		Flaps:         d.flapsTotal.Value(),
		Nodes:         nodes,
	}
}
