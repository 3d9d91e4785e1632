package cache

import (
	"errors"
	"testing"
	"time"
)

// noSleep is a RetryPolicy that retries instantly.
func noSleep(max int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: max,
		Backoff:     time.Microsecond,
		MaxBackoff:  time.Microsecond,
		Sleep:       func(time.Duration) {},
	}
}

func TestBroadcastPutRetriesTransientFailure(t *testing.T) {
	calls := 0
	hook := func(node string, obj *Object, attempt int) error {
		calls++
		if attempt == 1 {
			return errors.New("transient push failure")
		}
		return nil
	}
	g := NewGroup(WithPutHook(hook), WithRetryPolicy(noSleep(3)))
	g.Add(New("n0"))

	fresh := g.BroadcastPut(&Object{Key: "/p", Value: []byte("v2"), Version: 2})
	if fresh != 1 {
		t.Fatalf("fresh = %d, want 1", fresh)
	}
	obj, ok := g.Members()[0].Peek("/p")
	if !ok || obj.Version != 2 {
		t.Fatalf("member state = %v %v, want version 2 cached", ok, obj)
	}
	if r, f, d := g.pushRetries.Value(), g.pushFailures.Value(), g.pushDowngrades.Value(); r < 1 || f < 1 || d != 0 {
		t.Fatalf("push retries/failures/downgrades = %d/%d/%d", r, f, d)
	}
	if calls != 2 {
		t.Fatalf("hook calls = %d, want 2 (fail then succeed)", calls)
	}
}

func TestBroadcastPutExhaustionDowngradesToInvalidation(t *testing.T) {
	hook := func(node string, obj *Object, attempt int) error {
		if node == "bad" {
			return errors.New("persistent push failure")
		}
		return nil
	}
	g := NewGroup(WithPutHook(hook), WithRetryPolicy(noSleep(3)))
	bad, good := New("bad"), New("good")
	g.Add(bad)
	g.Add(good)
	// Both members hold the OLD version before the broadcast.
	old := &Object{Key: "/p", Value: []byte("v1"), Version: 1}
	bad.Put(old)
	good.Put(old)

	fresh := g.BroadcastPut(&Object{Key: "/p", Value: []byte("v2"), Version: 2})
	if fresh != 1 {
		t.Fatalf("fresh = %d, want 1 (only the healthy member)", fresh)
	}
	// The failed member must NOT keep its stale copy: downgrade means a
	// future read is a miss, never a stale hit.
	if _, ok := bad.Peek("/p"); ok {
		t.Fatal("exhausted push left the stale entry cached")
	}
	obj, ok := good.Peek("/p")
	if !ok || obj.Version != 2 {
		t.Fatalf("healthy member = %v %v, want fresh", ok, obj)
	}
	if d := g.pushDowngrades.Value(); d != 1 {
		t.Fatalf("downgrades = %d, want 1", d)
	}
	if r := g.pushRetries.Value(); r < 2 {
		t.Fatalf("retries = %d, want >= 2 (attempts between failures)", r)
	}
}

func TestBroadcastPutBackoffDoublesAndCaps(t *testing.T) {
	var slept []time.Duration
	p := RetryPolicy{
		MaxAttempts: 5,
		Backoff:     100 * time.Microsecond,
		MaxBackoff:  300 * time.Microsecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}
	hook := func(node string, obj *Object, attempt int) error {
		return errors.New("always")
	}
	g := NewGroup(WithPutHook(hook), WithRetryPolicy(p))
	g.Add(New("n0"))
	g.BroadcastPut(&Object{Key: "/p", Version: 1})

	want := []time.Duration{100 * time.Microsecond, 200 * time.Microsecond,
		300 * time.Microsecond, 300 * time.Microsecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("backoff %d = %v, want %v", i, slept[i], want[i])
		}
	}
}

func TestGroupImplementsStoreSemantics(t *testing.T) {
	g := NewGroup()
	g.Add(New("a"))
	g.Add(New("b"))
	g.ApplyPut(&Object{Key: "/x", Value: []byte("v"), Version: 1})
	for _, c := range g.Members() {
		if _, ok := c.Peek("/x"); !ok {
			t.Fatalf("%s missing /x after ApplyPut", c.Name())
		}
	}
	if n := g.ApplyInvalidate("/x"); n != 2 {
		t.Fatalf("ApplyInvalidate = %d, want 2", n)
	}
	g.ApplyPut(&Object{Key: "/pre/a", Version: 1})
	g.ApplyPut(&Object{Key: "/pre/b", Version: 1})
	if n := g.ApplyInvalidatePrefix("/pre/"); n != 4 {
		t.Fatalf("ApplyInvalidatePrefix = %d, want 4", n)
	}
}
