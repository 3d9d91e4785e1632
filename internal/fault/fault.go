// Package fault makes failure a first-class, injectable input to the
// propagation pipeline. The paper's availability story — the Nagano site
// stayed up through node deaths and WAN hiccups because every layer had a
// remedy (Network Dispatcher eviction, MSIRP failover, trigger-monitor
// restart) — is only believable if failures can be produced on demand and
// the remedies observed to hold. An Injector is that producer.
//
// Determinism is the design constraint: a chaos run must be byte-for-byte
// reproducible across invocations with the same seed, yet fault decisions
// are consulted from many goroutines (per-node cache pushes iterate a map,
// monitors race replicators). A sequential seeded RNG would make decisions
// depend on goroutine interleaving, so the Injector instead hashes
// (seed, kind, identity-key) into a uniform [0,1) value and compares it to
// the armed rate. The same identity always gets the same verdict no matter
// when — or on which goroutine — it is evaluated.
//
// Injection points cover every stage of the committed-transaction path:
//
//   - KindReplication: log-shipping link partitions (db.Replicator holds
//     delivery while the link is partitioned, then catches up);
//   - KindMonitorCrash: trigger-monitor crashes mid-batch (the monitor
//     checkpoints LastLSN and the supervisor restarts it, replaying the
//     CDC log from the checkpoint);
//   - KindPush: per-node cache push failures (cache.Group retries with
//     backoff and downgrades to an invalidation on exhaustion — a miss,
//     never a stale hit);
//   - KindRender: page regeneration errors (core invalidates instead of
//     leaving a known-stale page cached);
//   - KindNode: serving-node deaths (the dispatcher's advisors evict the
//     node; scenarios report these via CountInjected).
package fault

import (
	"fmt"
	"sync"

	"dupserve/internal/stats"
)

// Kind identifies an injection point in the pipeline.
type Kind uint8

const (
	// KindReplication partitions a master->replica log-shipping link.
	KindReplication Kind = iota
	// KindMonitorCrash crashes a trigger monitor before it propagates a
	// batch.
	KindMonitorCrash
	// KindPush fails a single node's cache push within a broadcast.
	KindPush
	// KindRender fails a page regeneration.
	KindRender
	// KindNode kills a serving node.
	KindNode
	// NumKinds is the number of fault kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	"replication", "monitor-crash", "push", "render", "node",
}

// String names the kind.
func (k Kind) String() string {
	if k >= NumKinds {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// Kinds returns every fault kind in pipeline order.
func Kinds() []Kind {
	out := make([]Kind, NumKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Config seeds an Injector.
type Config struct {
	// Seed drives every fault decision. Two injectors with the same seed
	// and the same identity keys make identical decisions.
	Seed int64
}

// Option configures an Injector.
type Option func(*Injector)

// WithRate arms kind k at probability p at construction time. It is a
// test seam: production arms faults through SetRate, and only the seeded
// fault tests arm them at construction.
func WithRate(k Kind, p float64) Option {
	return func(i *Injector) { i.SetRate(k, p) }
}

// Injector is a deterministic, seeded source of fault decisions. Safe for
// concurrent use. All kinds start disarmed (rate 0): an idle injector wired
// through the whole pipeline injects nothing.
type Injector struct {
	seed int64

	mu         sync.RWMutex
	rates      [NumKinds]float64
	budgets    [NumKinds]int64
	hasBudget  [NumKinds]bool
	partitions map[string]bool

	injected [NumKinds]stats.Counter
}

// New returns an Injector with every kind disarmed.
func New(cfg Config, opts ...Option) *Injector {
	i := &Injector{seed: cfg.Seed, partitions: make(map[string]bool)}
	for _, o := range opts {
		o(i)
	}
	return i
}

// SetRate arms (p > 0) or disarms (p <= 0) fault kind k. p is a probability
// in [0, 1]; p >= 1 faults every evaluated identity.
func (i *Injector) SetRate(k Kind, p float64) {
	if k >= NumKinds {
		return
	}
	if p < 0 {
		p = 0
	}
	i.mu.Lock()
	i.rates[k] = p
	i.mu.Unlock()
}

// Rate returns the armed probability for kind k.
func (i *Injector) Rate(k Kind) float64 {
	if k >= NumKinds {
		return 0
	}
	i.mu.RLock()
	defer i.mu.RUnlock()
	return i.rates[k]
}

// ClearRates disarms every kind and removes any budgets (partitions are
// separate; see SetPartition).
func (i *Injector) ClearRates() {
	i.mu.Lock()
	for k := range i.rates {
		i.rates[k] = 0
		i.budgets[k] = 0
		i.hasBudget[k] = false
	}
	i.mu.Unlock()
}

// SetBudget caps how many times kind k may fire through Should: after n
// true verdicts the kind stops firing even while its rate stays armed.
// Deterministic scenarios use rate 1 plus a budget of 1 to fault *exactly
// one* identity regardless of evaluation order. A negative n removes the
// budget. The budget gates Should only — Decide and Burst stay pure, so
// retry loops that re-evaluate an identity (cache push bursts) are
// unaffected.
func (i *Injector) SetBudget(k Kind, n int64) {
	if k >= NumKinds {
		return
	}
	i.mu.Lock()
	if n < 0 {
		i.budgets[k] = 0
		i.hasBudget[k] = false
	} else {
		i.budgets[k] = n
		i.hasBudget[k] = true
	}
	i.mu.Unlock()
}

// consumeBudget reports whether kind k may fire, decrementing its budget if
// one is set.
func (i *Injector) consumeBudget(k Kind) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.hasBudget[k] {
		return true
	}
	if i.budgets[k] <= 0 {
		return false
	}
	i.budgets[k]--
	return true
}

// Decide reports whether the fault of kind k fires for the given identity
// key. It is pure — no counters move — so retry loops can re-evaluate the
// same identity; use Should when one evaluation should also count as one
// injection. The decision depends only on (seed, kind, key, rate), never on
// evaluation order.
func (i *Injector) Decide(k Kind, key string) bool {
	rate := i.Rate(k)
	if rate <= 0 {
		return false
	}
	return unit(i.seed, k, key) < rate
}

// Should is Decide plus accounting and budgeting: a true verdict consumes
// one unit of the kind's budget (if set) and increments the kind's
// injection counter.
func (i *Injector) Should(k Kind, key string) bool {
	if !i.Decide(k, key) {
		return false
	}
	if !i.consumeBudget(k) {
		return false
	}
	i.injected[k].Inc()
	return true
}

// Burst returns how many consecutive attempts should fail for a faulted
// identity: 0 when the fault does not fire, otherwise a deterministic value
// in [1, max]. Retry remedies consult it so that some faults clear within
// the retry budget and some exhaust it — both paths stay exercised.
func (i *Injector) Burst(k Kind, key string, max int) int {
	if max < 1 {
		max = 1
	}
	if !i.Decide(k, key) {
		return 0
	}
	return 1 + int(mix(i.seed^0x7f4a7c15, k, key)%uint64(max))
}

// CountInjected records n injections of kind k that were performed by the
// scenario itself rather than decided by the injector (e.g. a scheduled
// node death).
func (i *Injector) CountInjected(k Kind, n int64) {
	if k < NumKinds {
		i.injected[k].Add(n)
	}
}

// Injected returns how many faults of kind k have fired.
func (i *Injector) Injected(k Kind) int64 {
	if k >= NumKinds {
		return 0
	}
	return i.injected[k].Value()
}

// SetPartition opens (on=true) or heals (on=false) a named replication
// link. Opening a healthy link counts one KindReplication injection.
func (i *Injector) SetPartition(link string, on bool) {
	i.mu.Lock()
	was := i.partitions[link]
	if on {
		i.partitions[link] = true
	} else {
		delete(i.partitions, link)
	}
	i.mu.Unlock()
	if on && !was {
		i.injected[KindReplication].Inc()
	}
}

// Partitioned reports whether the named link is currently partitioned.
func (i *Injector) Partitioned(link string) bool {
	i.mu.RLock()
	defer i.mu.RUnlock()
	return i.partitions[link]
}

// PartitionCheck returns a closure suitable for db.WithPartitionCheck: it
// reports whether the named link is partitioned right now.
func (i *Injector) PartitionCheck(link string) func() bool {
	return func() bool { return i.Partitioned(link) }
}

// unit hashes (seed, kind, key) to a uniform float64 in [0, 1).
func unit(seed int64, k Kind, key string) float64 {
	return float64(mix(seed, k, key)>>11) / float64(1<<53)
}

// mix is an FNV-1a pass over the identity folded through splitmix64, giving
// well-distributed 64-bit values even for near-identical keys.
func mix(seed int64, k Kind, key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h ^= uint64(seed)
	h *= prime64
	h ^= uint64(k) + 1
	h *= prime64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	// splitmix64 finalizer.
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}
