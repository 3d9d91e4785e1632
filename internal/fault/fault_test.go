package fault

import (
	"errors"
	"fmt"
	"testing"

	"dupserve/internal/cache"
	"dupserve/internal/core"
)

func TestDecideIsDeterministicAndOrderIndependent(t *testing.T) {
	a := New(Config{Seed: 42}, WithRate(KindPush, 0.5))
	b := New(Config{Seed: 42}, WithRate(KindPush, 0.5))
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("node%d|/page/%d|v%d", i%4, i, i)
	}
	// a evaluates forward, b backward: verdicts must still agree per key.
	got := make(map[string]bool)
	for _, k := range keys {
		got[k] = a.Decide(KindPush, k)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		if b.Decide(KindPush, k) != got[k] {
			t.Fatalf("verdict for %q depends on evaluation order", k)
		}
	}
	// Re-evaluation is stable.
	for _, k := range keys {
		if a.Decide(KindPush, k) != got[k] {
			t.Fatalf("verdict for %q changed on re-evaluation", k)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(Config{Seed: 1}, WithRate(KindRender, 0.5))
	b := New(Config{Seed: 2}, WithRate(KindRender, 0.5))
	diff := 0
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%d", i)
		if a.Decide(KindRender, k) != b.Decide(KindRender, k) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 1 and 2 produced identical verdicts on 500 keys")
	}
}

func TestRateBounds(t *testing.T) {
	i := New(Config{Seed: 9})
	for n := 0; n < 100; n++ {
		if i.Decide(KindPush, fmt.Sprint(n)) {
			t.Fatal("disarmed kind fired")
		}
	}
	i.SetRate(KindPush, 1)
	for n := 0; n < 100; n++ {
		if !i.Decide(KindPush, fmt.Sprint(n)) {
			t.Fatal("rate 1 did not fire")
		}
	}
	i.ClearRates()
	if i.Decide(KindPush, "x") {
		t.Fatal("ClearRates left the kind armed")
	}
}

func TestRateIsRoughlyCalibrated(t *testing.T) {
	i := New(Config{Seed: 1998}, WithRate(KindPush, 0.3))
	fired := 0
	const n = 10000
	for k := 0; k < n; k++ {
		if i.Decide(KindPush, fmt.Sprintf("id-%d", k)) {
			fired++
		}
	}
	frac := float64(fired) / n
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("armed at 0.3, fired %.3f of identities", frac)
	}
}

func TestShouldCountsDecideDoesNot(t *testing.T) {
	i := New(Config{Seed: 3}, WithRate(KindRender, 1))
	i.Decide(KindRender, "a")
	if i.Injected(KindRender) != 0 {
		t.Fatal("Decide moved the counter")
	}
	i.Should(KindRender, "a")
	i.Should(KindRender, "b")
	if got := i.Injected(KindRender); got != 2 {
		t.Fatalf("injected = %d, want 2", got)
	}
}

func TestBurstBoundsAndDeterminism(t *testing.T) {
	i := New(Config{Seed: 5}, WithRate(KindPush, 1))
	seen := make(map[int]bool)
	for k := 0; k < 200; k++ {
		key := fmt.Sprintf("b-%d", k)
		b := i.Burst(KindPush, key, 4)
		if b < 1 || b > 4 {
			t.Fatalf("burst = %d, want [1,4]", b)
		}
		if b != i.Burst(KindPush, key, 4) {
			t.Fatalf("burst for %q not deterministic", key)
		}
		seen[b] = true
	}
	if len(seen) < 2 {
		t.Fatalf("bursts never varied: %v", seen)
	}
	i.SetRate(KindPush, 0)
	if i.Burst(KindPush, "b-0", 4) != 0 {
		t.Fatal("disarmed burst should be 0")
	}
}

func TestPartitions(t *testing.T) {
	i := New(Config{Seed: 7})
	link := "master->tokyo"
	if i.Partitioned(link) {
		t.Fatal("link born partitioned")
	}
	check := i.PartitionCheck(link)
	i.SetPartition(link, true)
	if !i.Partitioned(link) || !check() {
		t.Fatal("partition not visible")
	}
	// Re-opening an already-open link is not a second injection.
	i.SetPartition(link, true)
	if got := i.Injected(KindReplication); got != 1 {
		t.Fatalf("injected = %d, want 1", got)
	}
	i.SetPartition(link, false)
	if i.Partitioned(link) || check() {
		t.Fatal("heal not visible")
	}
}

func TestPushHookBurstThenRecovers(t *testing.T) {
	i := New(Config{Seed: 11}, WithRate(KindPush, 1))
	hook := i.PushHook("tokyo")
	obj := &cache.Object{Key: "/p", Version: 3}
	// With rate 1 every identity faults; the burst bounds how many leading
	// attempts fail, and attempts past the burst succeed.
	var failed int
	for attempt := 1; attempt <= 8; attempt++ {
		if err := hook("up0", obj, attempt); err != nil {
			var inj ErrInjected
			if !errors.As(err, &inj) || inj.Kind != KindPush {
				t.Fatalf("unexpected error %v", err)
			}
			if attempt != failed+1 {
				t.Fatalf("failures not consecutive: attempt %d failed after %d failures", attempt, failed)
			}
			failed++
		}
	}
	if failed < 1 || failed > 4 {
		t.Fatalf("burst length = %d, want [1,4]", failed)
	}
	if err := hook("up0", obj, failed+1); err != nil {
		t.Fatal("attempt past the burst should succeed")
	}
}

func TestGeneratorFaultsAndPassesThrough(t *testing.T) {
	i := New(Config{Seed: 13})
	calls := 0
	inner := core.Generator(func(key cache.Key, version int64) (*cache.Object, error) {
		calls++
		return &cache.Object{Key: key, Version: version}, nil
	})
	gen := i.Generator("tokyo", inner)
	if _, err := gen("/p", 1); err != nil || calls != 1 {
		t.Fatalf("disarmed generator: err=%v calls=%d", err, calls)
	}
	i.SetRate(KindRender, 1)
	if _, err := gen("/p", 2); err == nil {
		t.Fatal("armed render fault did not fire")
	}
	if calls != 1 {
		t.Fatal("faulted render still invoked inner generator")
	}
	if i.Injected(KindRender) != 1 {
		t.Fatalf("injected = %d", i.Injected(KindRender))
	}
}

func TestCrashHookGenerationIndependence(t *testing.T) {
	i := New(Config{Seed: 17}, WithRate(KindMonitorCrash, 0.5))
	// Across many LSNs, generation 0 and generation 1 must not make
	// identical decisions — otherwise a restarted monitor replaying the
	// same batch would crash forever.
	h0 := i.CrashHook("tokyo", 0)
	h1 := i.CrashHook("tokyo", 1)
	diff := 0
	for lsn := int64(1); lsn <= 200; lsn++ {
		if h0(lsn) != h1(lsn) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("generations 0 and 1 decide identically")
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range Kinds() {
		if k.String() == "" || k.String() == fmt.Sprintf("kind(%d)", uint8(k)) {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	if Kind(250).String() != "kind(250)" {
		t.Fatal("out-of-range kind string")
	}
}
