package main

import (
	"fmt"
	"math/rand"
	"time"

	"dupserve/internal/db"
	"dupserve/internal/site"
	"dupserve/internal/workload"
)

// workloadSpec is one traffic mix. Every workload has a reading and a
// committing side, because every end-to-end metric is reported on every
// workload. At most two generators produce all load (this box has two CPUs),
// and at least one of them is a closed loop: a box that idles between
// requests pays a wake-up from a halted CPU on every hop, and on a virtual
// machine that cost drifts by a factor of two within minutes.
type workloadSpec struct {
	name string
	why  string
	wire bool

	// readers is the number of closed-loop connections; 0 means one
	// open-loop connection at readRate requests per second.
	readers  int
	readRate float64

	// burst commits are issued back to back: every commitEvery by the first
	// closed-loop reader between two of its requests, or, when commitEvery
	// is 0, by a closed-loop committer that calls Monitor.Flush after each
	// burst.
	burst       int
	commitEvery time.Duration
}

// The live rates: the paper's event-completion bursts, and a steady stream
// of page views beside a saturated committer.
const (
	liveReadRate    = 1000.0
	liveBurst       = 4
	liveCommitEvery = 250 * time.Millisecond
)

var workloads = []workloadSpec{
	{
		name:    "serve_hot",
		why:     "2 closed-loop keep-alive connections, Zipf page mix, commits only at the live rate: net/http, dispatch, httpserver and cache do the work and fill both CPUs, propagation next to none",
		readers: 2, burst: liveBurst, commitEvery: liveCommitEvery,
	},
	{
		name:     "update_burst",
		why:      "1 closed-loop committer, waves of 64 transactions then Flush, reads only at 1000 req/s open loop: trigger, odg, core, fragment and cache fan-out do the work, sockets next to none",
		readRate: liveReadRate, burst: 64,
	},
	{
		name:    "mixed_live",
		why:     "1 closed-loop connection beside 4 commits every 250 ms on the same caches, one CPU left to the plant: where a gain for writers that costs readers, or the reverse, shows",
		readers: 1, burst: liveBurst, commitEvery: liveCommitEvery,
	},
	{
		name: "wire_live",
		why:  "mixed_live's schedule with the plant split by internal/wire over loopback TCP: wire carries every serve and push, so wire changes are claimed here, mixed_live is the control",
		wire: true, readers: 1, burst: liveBurst, commitEvery: liveCommitEvery,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// requestMix draws the page sequence the readers cycle through. It is drawn
// before the clock starts, because workload.Model is not safe for concurrent
// use and the draw is input generation, not load.
func requestMix(seed int64, st *site.Site, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	m := workload.New(workload.Config{Seed: seed, Days: st.Spec.Days}, st)
	paths := make([]string, n)
	for i := range paths {
		// Day 1 is the site's current day for the whole run, so the hottest
		// page is also the one every result rewrites.
		paths[i] = m.SamplePage(rng, 1, m.SampleRegion(rng))
	}
	return paths
}

// committer turns a seed into an endless transaction sequence that never
// hits a no-op: the first third of the events stay in progress and take
// partial scores, the rest take final results (a repeated result is a
// correction), and news cycles through the story numbers.
type committer struct {
	st       *site.Site
	rng      *rand.Rand
	partials []*site.Event
	finals   []*site.Event
	story    int
}

func newCommitter(seed int64, st *site.Site) *committer {
	c := &committer{st: st, rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	for i, ev := range st.Events {
		if len(ev.Participants) == 0 {
			continue
		}
		if i%3 == 0 {
			c.partials = append(c.partials, ev)
		} else {
			c.finals = append(c.finals, ev)
		}
	}
	return c
}

// next commits the next transaction of the sequence.
func (c *committer) next() (db.Transaction, error) {
	x := c.rng.Float64()
	switch {
	case x < 0.4 && len(c.partials) > 0:
		ev := c.partials[c.rng.Intn(len(c.partials))]
		leader := ev.Participants[c.rng.Intn(len(ev.Participants))]
		return c.st.RecordPartial(ev, leader, fmt.Sprintf("%.1f", 200+c.rng.Float64()*60))
	case x < 0.8 || c.st.Spec.NewsStories == 0:
		ev := c.finals[c.rng.Intn(len(c.finals))]
		p := ev.Participants
		g, s, b := p[c.rng.Intn(len(p))], p[c.rng.Intn(len(p))], p[c.rng.Intn(len(p))]
		return c.st.RecordResult(ev, g, s, b, fmt.Sprintf("%.1f", 240+c.rng.Float64()*20))
	default:
		n := c.story % c.st.Spec.NewsStories
		c.story++
		return c.st.PublishNews(n, fmt.Sprintf("Story %d: drama on the ice", c.story), "Live from Nagano.")
	}
}
