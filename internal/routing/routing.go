// Package routing implements MSIRP — Multiple Single IP Routing — the
// wide-area traffic-distribution scheme of section 4.1 of the paper.
//
// The production site advertised twelve "SIPR" addresses, all resolving to
// www.nagano.olympic.org. Round-robin DNS cycled browsers through the
// twelve addresses; every complex advertised routes for all twelve into the
// OSPF backbone with costs reflecting primary/secondary ownership, and
// standard least-cost IP routing then delivered each request to the nearest
// complex advertising its address. Because ownership was spread across the
// addresses, operators could shift traffic between complexes in 1/12 =
// 8 1/3 % increments just by changing advertised costs — and a complex that
// stopped advertising (or failed) simply disappeared from the route table,
// with its traffic flowing to the next-cheapest advertiser. That is the top
// layer of "elegant degradation".
//
// The Router models exactly that: a route table of (address -> cost
// advertisements per complex), a geographic distance matrix standing in for
// backbone hop costs, round-robin DNS, and failover to the next-cheapest
// advertiser when a complex cannot answer.
package routing

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"dupserve/internal/cache"
	"dupserve/internal/dispatch"
	"dupserve/internal/httpserver"
)

// Address is one of the virtual SIPR addresses (0..NumAddresses-1).
type Address int

// NumAddresses is the paper's address count: twelve, giving 8 1/3 %
// shifting granularity.
const NumAddresses = 12

// Region identifies where a client enters the network (Figure 23 uses
// continent-scale regions).
type Region string

// Common regions used by the workload model.
const (
	RegionUS     Region = "us"
	RegionJapan  Region = "japan"
	RegionEurope Region = "europe"
	RegionAsia   Region = "asia" // non-Japan Asia/Pacific
	RegionOther  Region = "other"
)

// ErrNoRoute is returned when no complex advertises the address (or all
// advertisers failed).
var ErrNoRoute = errors.New("routing: no advertised route")

// ErrUnknownComplex is returned when advertising for an unregistered
// complex.
var ErrUnknownComplex = errors.New("routing: unknown complex")

// Load-based withdrawal thresholds: a complex whose aggregate load signal
// reaches loadShedStart withdraws one address (one twelfth of RR-DNS
// traffic); every further loadShedStep withdraws one more. With the paper's
// twelve addresses, a complex sheds traffic in 8 1/3 % increments as its
// load climbs — the operators' manual cost-shifting, driven by the overload
// signal instead of a pager.
const (
	loadShedStart = 1.0
	loadShedStep  = 0.25
)

type complexEntry struct {
	name     string
	node     dispatch.Node
	distance map[Region]int // backbone cost from each region
	up       bool
	load     float64          // last advised aggregate load signal
	shed     map[Address]bool // addresses withdrawn because of load
}

type advert struct {
	complexName string
	cost        int
}

// Router is the MSIRP model. Safe for concurrent use.
type Router struct {
	numAddrs int

	mu        sync.Mutex
	complexes map[string]*complexEntry
	// routes[addr] lists advertisements for the address.
	routes []([]advert)
	dnsRR  int

	onShed func(complexName string, withdrawn, prev int) // fired outside mu
}

// NewRouter returns a router with the given number of SIPR addresses
// (use NumAddresses for the paper's configuration).
func NewRouter(numAddrs int) *Router {
	if numAddrs <= 0 {
		numAddrs = NumAddresses
	}
	return &Router{
		numAddrs:  numAddrs,
		complexes: make(map[string]*complexEntry),
		routes:    make([][]advert, numAddrs),
	}
}

// NumAddrs returns the number of SIPR addresses.
func (r *Router) NumAddrs() int { return r.numAddrs }

// OnShedChange installs a callback fired whenever SetComplexLoad changes
// how many addresses a complex has withdrawn (withdrawn is the new count,
// prev the old). It runs on the advising goroutine after the router's lock
// is released; it must not block. Intended for wiring time (the
// observability journal).
func (r *Router) OnShedChange(fn func(complexName string, withdrawn, prev int)) {
	r.mu.Lock()
	r.onShed = fn
	r.mu.Unlock()
}

// AddComplex registers a serving complex (typically a dispatch.Dispatcher)
// with its backbone distance from each client region. Regions absent from
// the map are treated as very distant.
func (r *Router) AddComplex(name string, node dispatch.Node, distance map[Region]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := make(map[Region]int, len(distance))
	for k, v := range distance {
		d[k] = v
	}
	r.complexes[name] = &complexEntry{
		name: name, node: node, distance: d, up: true,
		shed: make(map[Address]bool),
	}
}

// Advertise installs (or updates) complex's route for addr at the given
// OSPF cost. Lower cost wins.
func (r *Router) Advertise(complexName string, addr Address, cost int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.complexes[complexName]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownComplex, complexName)
	}
	if int(addr) < 0 || int(addr) >= r.numAddrs {
		return fmt.Errorf("routing: address %d out of range [0,%d)", addr, r.numAddrs)
	}
	list := r.routes[addr]
	for i := range list {
		if list[i].complexName == complexName {
			list[i].cost = cost
			return nil
		}
	}
	r.routes[addr] = append(list, advert{complexName: complexName, cost: cost})
	return nil
}

// SetComplexUp marks a complex reachable or failed. A failed complex keeps
// its advertisements (routers haven't converged yet) but Route skips it,
// modeling the OSPF withdrawal that follows an outage.
func (r *Router) SetComplexUp(complexName string, up bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.complexes[complexName]; ok {
		c.up = up
	}
}

// SetComplexLoad feeds a complex's aggregate load signal (typically its
// dispatcher's LoadSignal) into the route table. Load at or above
// loadShedStart withdraws addresses in 8 1/3 % steps — one more address per
// loadShedStep of excess — always cheapest-advertised (primary) addresses
// first, so each step actually moves a twelfth of RR-DNS traffic to the
// next-cheapest advertiser. Load falling back re-advertises in the same
// deterministic order. Unlike SetComplexUp(false), a load-shed complex still
// answers for its remaining addresses and still backstops any address whose
// other advertisers are gone (see Route's no-black-hole rule).
func (r *Router) SetComplexLoad(complexName string, load float64) error {
	r.mu.Lock()
	c, ok := r.complexes[complexName]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownComplex, complexName)
	}
	prev := len(c.shed)
	c.load = load
	steps := 0
	if load >= loadShedStart {
		steps = 1 + int((load-loadShedStart)/loadShedStep)
	}
	order := r.withdrawalOrderLocked(complexName)
	if steps > len(order) {
		steps = len(order)
	}
	c.shed = make(map[Address]bool, steps)
	for _, a := range order[:steps] {
		c.shed[a] = true
	}
	fn := r.onShed
	r.mu.Unlock()
	if fn != nil && steps != prev {
		fn(complexName, steps, prev)
	}
	return nil
}

// withdrawalOrderLocked returns the addresses complexName advertises,
// cheapest (primary) first with address number as tie-break — the
// deterministic order in which load shedding withdraws them. Caller holds mu.
func (r *Router) withdrawalOrderLocked(complexName string) []Address {
	type cand struct {
		addr Address
		cost int
	}
	var cs []cand
	for a := range r.routes {
		for _, ad := range r.routes[a] {
			if ad.complexName == complexName {
				cs = append(cs, cand{addr: Address(a), cost: ad.cost})
			}
		}
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].cost != cs[j].cost {
			return cs[i].cost < cs[j].cost
		}
		return cs[i].addr < cs[j].addr
	})
	out := make([]Address, len(cs))
	for i, c := range cs {
		out[i] = c.addr
	}
	return out
}

// LoadShedAddrs returns the addresses currently withdrawn from the complex
// because of load, sorted.
func (r *Router) LoadShedAddrs(complexName string) []Address {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.complexes[complexName]
	if !ok {
		return nil
	}
	out := make([]Address, 0, len(c.shed))
	for a := range c.shed {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AdvertiseSpread installs the paper's standard configuration: every
// complex advertises every address; each address has exactly one primary
// complex (cost primaryCost) assigned round-robin across the complexes in
// the given order, with all other complexes advertising it at
// secondaryCost. With 4 complexes and 12 addresses each complex is primary
// for 3 addresses — the paper's layout.
func (r *Router) AdvertiseSpread(order []string, primaryCost, secondaryCost int) error {
	for a := 0; a < r.numAddrs; a++ {
		for i, name := range order {
			cost := secondaryCost
			if a%len(order) == i {
				cost = primaryCost
			}
			if err := r.Advertise(name, Address(a), cost); err != nil {
				return err
			}
		}
	}
	return nil
}

// Resolve performs one round-robin DNS resolution, returning the next SIPR
// address.
func (r *Router) Resolve() Address {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := Address(r.dnsRR % r.numAddrs)
	r.dnsRR++
	return a
}

// Route returns the complexes advertising addr ordered by effective cost
// (advertised OSPF cost + backbone distance from region), skipping failed
// complexes. The first entry is where standard IP routing would deliver
// the packet.
func (r *Router) Route(region Region, addr Address) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(addr) < 0 || int(addr) >= r.numAddrs {
		return nil
	}
	type scored struct {
		name string
		cost int
	}
	var list []scored
	collect := func(ignoreLoadShed bool) {
		list = list[:0]
		for _, ad := range r.routes[addr] {
			c := r.complexes[ad.complexName]
			if c == nil || !c.up {
				continue
			}
			if !ignoreLoadShed && c.shed[addr] {
				continue
			}
			dist, ok := c.distance[region]
			if !ok {
				dist = 1 << 20
			}
			list = append(list, scored{name: ad.complexName, cost: ad.cost + dist})
		}
	}
	collect(false)
	if len(list) == 0 {
		// No-black-hole rule: if load shedding removed every advertiser of
		// this address, the withdrawals are void for it — an overloaded
		// answer beats no answer. (A down complex stays excluded; only
		// load-shed ones come back.)
		collect(true)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].cost != list[j].cost {
			return list[i].cost < list[j].cost
		}
		return list[i].name < list[j].name
	})
	out := make([]string, len(list))
	for i, s := range list {
		out[i] = s.name
	}
	return out
}

// Request performs a full client interaction: RR-DNS resolution, least-cost
// routing from the client's region, and serving with failover to the
// next-cheapest complex if the chosen one cannot answer. It returns the
// object, the outcome, and the complex that finally served.
func (r *Router) Request(region Region, path string) (*cache.Object, httpserver.Outcome, string, error) {
	addr := r.Resolve()
	return r.RequestVia(region, addr, path)
}

// RequestVia is Request with an explicit resolved address (the simulator
// controls DNS itself to keep runs deterministic).
func (r *Router) RequestVia(region Region, addr Address, path string) (*cache.Object, httpserver.Outcome, string, error) {
	order := r.Route(region, addr)
	if len(order) == 0 {
		return nil, httpserver.OutcomeError, "", fmt.Errorf("%w: addr %d from %s", ErrNoRoute, addr, region)
	}
	for i, name := range order {
		r.mu.Lock()
		c := r.complexes[name]
		r.mu.Unlock()
		if c == nil {
			continue
		}
		obj, outcome, err := c.node.Serve(path)
		if outcome == httpserver.OutcomeShed {
			// The whole complex is saturated, not failed: reroute to the
			// next-cheapest advertiser but leave the complex up — its
			// remaining addresses keep serving and it recovers on its own.
			if i < len(order)-1 {
				continue
			}
			return nil, outcome, name, err
		}
		if outcome == httpserver.OutcomeError && err != nil {
			// Complex-level failure: mark it down and reroute.
			r.SetComplexUp(name, false)
			if i < len(order)-1 {
				continue
			}
			return nil, outcome, name, err
		}
		return obj, outcome, name, err
	}
	return nil, httpserver.OutcomeError, "", fmt.Errorf("%w: all advertisers failed", ErrNoRoute)
}

// PrimaryShare returns the fraction of addresses for which the complex is
// currently the cheapest advertiser from the given region — the share of
// that region's traffic it will receive under pure RR-DNS.
func (r *Router) PrimaryShare(region Region, complexName string) float64 {
	n := 0
	for a := 0; a < r.numAddrs; a++ {
		order := r.Route(region, Address(a))
		if len(order) > 0 && order[0] == complexName {
			n++
		}
	}
	return float64(n) / float64(r.numAddrs)
}
