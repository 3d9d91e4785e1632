package recovery

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dupserve/internal/cache"
	"dupserve/internal/db"
)

// harness builds a Warmer over synthetic closures: a page set, peer caches,
// a render function stamping the requested version, and a retained log.
type harness struct {
	cache   *cache.Cache
	peers   []*cache.Cache
	pages   []string
	lsn     int64
	log     []db.Transaction
	renders []string
	renderE error
	attach  int
}

func newHarness(pages ...string) *harness {
	return &harness{
		cache: cache.New("victim"),
		pages: pages,
		lsn:   10,
	}
}

func (h *harness) addPeer(name string, versions map[string]int64) *cache.Cache {
	c := cache.New(name)
	for p, v := range versions {
		c.Put(&cache.Object{Key: cache.Key(p), Value: []byte(name + ":" + p), Version: v})
	}
	h.peers = append(h.peers, c)
	return c
}

func (h *harness) config() Config {
	return Config{
		Node:  "victim",
		Cache: h.cache,
		Peers: func() []*cache.Cache { return h.peers },
		Pages: func() []string { return h.pages },
		Render: func(path string, version int64) (*cache.Object, error) {
			if h.renderE != nil {
				return nil, h.renderE
			}
			h.renders = append(h.renders, path)
			return &cache.Object{Key: cache.Key(path), Value: []byte("render:" + path), Version: version}, nil
		},
		CurrentLSN: func() int64 { return h.lsn },
		LogSince: func(after int64) []db.Transaction {
			var out []db.Transaction
			for _, tx := range h.log {
				if tx.LSN > after {
					out = append(out, tx)
				}
			}
			return out
		},
		AffectedPages: func(tx db.Transaction) []string {
			var out []string
			for _, ch := range tx.Changes {
				out = append(out, ch.Key)
			}
			return out
		},
		Attach: func() { h.attach++ },
	}
}

func TestWarmRestoresFromPeers(t *testing.T) {
	h := newHarness("/a", "/b")
	h.addPeer("p1", map[string]int64{"/a": 5, "/b": 7})
	h.addPeer("p2", map[string]int64{"/a": 9}) // newer copy of /a

	rep, err := New(h.config()).Warm()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromPeer != 2 || rep.Rendered != 0 {
		t.Fatalf("from_peer=%d rendered=%d, want 2/0", rep.FromPeer, rep.Rendered)
	}
	if rep.FloorLSN != 10 || rep.FinalLSN != 10 {
		t.Fatalf("floor=%d final=%d, want 10/10", rep.FloorLSN, rep.FinalLSN)
	}
	if h.attach != 1 {
		t.Fatalf("attach calls = %d, want 1", h.attach)
	}
	// The newest peer copy wins.
	obj, ok := h.cache.Peek(cache.Key("/a"))
	if !ok || obj.Version != 9 {
		t.Fatalf("restored /a version = %v, want 9 (newest peer)", obj)
	}
	// Restored objects are the peer's own immutable Objects, shared.
	p2obj, _ := h.peers[1].Peek(cache.Key("/a"))
	if obj != p2obj {
		t.Fatal("restored object is not the peer's shared Object")
	}
}

func TestWarmRendersAtFloorWhenNoPeerHolds(t *testing.T) {
	h := newHarness("/a", "/b")
	h.addPeer("p1", map[string]int64{"/a": 5})

	rep, err := New(h.config()).Warm()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FromPeer != 1 || rep.Rendered != 1 {
		t.Fatalf("from_peer=%d rendered=%d, want 1/1", rep.FromPeer, rep.Rendered)
	}
	obj, ok := h.cache.Peek(cache.Key("/b"))
	if !ok || obj.Version != 10 {
		t.Fatalf("rendered /b = %+v, want version 10 (the pinned floor)", obj)
	}
}

func TestWarmReplaysLogPastFloor(t *testing.T) {
	h := newHarness("/a", "/b")
	h.addPeer("p1", map[string]int64{"/a": 5, "/b": 5})
	// Two commits past the pin: LSN 11 touches /a, LSN 12 touches /b. The
	// peer copies predate both, so the replay re-renders each page.
	h.log = []db.Transaction{
		{LSN: 11, Changes: []db.Change{{Key: "/a"}}},
		{LSN: 12, Changes: []db.Change{{Key: "/b"}}},
	}

	rep, err := New(h.config()).Warm()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplayedTx != 2 || rep.ReplayedPages != 2 {
		t.Fatalf("replayed_tx=%d replayed_pages=%d, want 2/2", rep.ReplayedTx, rep.ReplayedPages)
	}
	if obj, _ := h.cache.Peek(cache.Key("/a")); obj.Version != 11 {
		t.Fatalf("/a version = %d, want 11", obj.Version)
	}
	if obj, _ := h.cache.Peek(cache.Key("/b")); obj.Version != 12 {
		t.Fatalf("/b version = %d, want 12", obj.Version)
	}
}

func TestWarmReplaySkipsFresherCopies(t *testing.T) {
	h := newHarness("/a")
	// The peer already holds /a at LSN 12 (a broadcast landed after the
	// change committed); replaying LSN 11 must not regress it.
	h.addPeer("p1", map[string]int64{"/a": 12})
	h.log = []db.Transaction{{LSN: 11, Changes: []db.Change{{Key: "/a"}}}}

	rep, err := New(h.config()).Warm()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplayedTx != 1 || rep.ReplayedPages != 0 {
		t.Fatalf("replayed_tx=%d replayed_pages=%d, want 1/0 (version guard)", rep.ReplayedTx, rep.ReplayedPages)
	}
	if obj, _ := h.cache.Peek(cache.Key("/a")); obj.Version != 12 {
		t.Fatalf("/a version = %d, want 12 (not regressed)", obj.Version)
	}
}

// TestWarmLSNFloorInvariant is the acceptance property: whatever mix of
// peer copies and renders the warmup used, no restored page is older than
// the pinned floor OR the newest peer copy available — a readmitted node
// never serves a page older than what the cluster already served.
func TestWarmLSNFloorInvariant(t *testing.T) {
	pages := make([]string, 8)
	for i := range pages {
		pages[i] = fmt.Sprintf("/p%d", i)
	}
	h := newHarness(pages...)
	// A peer with a scattered mix of versions; half the pages missing.
	held := map[string]int64{}
	for i, p := range pages {
		if i%2 == 0 {
			held[p] = int64(3 + i)
		}
	}
	h.addPeer("p1", held)

	rep, err := New(h.config()).Warm()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		obj, ok := h.cache.Peek(cache.Key(p))
		if !ok {
			t.Fatalf("page %s not restored", p)
		}
		floor := rep.FloorLSN
		if v, fromPeer := held[p]; fromPeer {
			floor = v
		}
		if obj.Version < floor {
			t.Errorf("page %s restored at %d, below its floor %d", p, obj.Version, floor)
		}
	}
}

func TestColdWarmupOnlyAttaches(t *testing.T) {
	h := newHarness("/a", "/b")
	h.addPeer("p1", map[string]int64{"/a": 5, "/b": 5})
	cfg := h.config()
	cfg.Cold = true

	rep, err := New(cfg).Warm()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cold || rep.FromPeer != 0 || rep.Rendered != 0 {
		t.Fatalf("cold report = %+v, want no restore work", rep)
	}
	if h.attach != 1 {
		t.Fatalf("attach calls = %d, want 1", h.attach)
	}
	if _, ok := h.cache.Peek(cache.Key("/a")); ok {
		t.Fatal("cold warmup restored a page")
	}
}

func TestWarmRenderErrorAborts(t *testing.T) {
	h := newHarness("/a")
	h.renderE = errors.New("replica gone")

	_, err := New(h.config()).Warm()
	if err == nil || !strings.Contains(err.Error(), "replica gone") {
		t.Fatalf("err = %v, want render failure", err)
	}
	if h.attach != 0 {
		t.Fatal("failed warmup attached the cache anyway")
	}
}

func TestMetricsAccumulate(t *testing.T) {
	h := newHarness("/a", "/b")
	h.addPeer("p1", map[string]int64{"/a": 5})
	m := &Metrics{}
	cfg := h.config()
	cfg.Metrics = m

	for warmups := int64(1); warmups <= 2; warmups++ {
		if _, err := New(cfg).Warm(); err != nil {
			t.Fatal(err)
		}
		if m.PagesFromPeer.Value() != warmups || m.PagesRendered.Value() != warmups {
			t.Fatalf("after %d warmups: from_peer:%d rendered:%d, want %d/%d",
				warmups, m.PagesFromPeer.Value(), m.PagesRendered.Value(), warmups, warmups)
		}
	}

}
