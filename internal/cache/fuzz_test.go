package cache

import (
	"testing"
)

// FuzzCacheKeyStripe checks the striping function on arbitrary keys:
// shard assignment must be stable (the same key always lands on the same
// shard of the same cache), in range for every shard count, and operations
// on fuzzer-chosen keys must round-trip through the striped table exactly
// like a single-shard cache.
func FuzzCacheKeyStripe(f *testing.F) {
	f.Add("/en/day7/home")
	f.Add("")
	f.Add("/")
	f.Add("zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz")
	f.Add("\x00\xff\x80 unicode: é世界")
	f.Fuzz(func(t *testing.T, key string) {
		k := Key(key)
		for _, shards := range []int{1, 2, 8, 64} {
			c := New("fuzz", withShards(shards))
			if got := c.ShardCount(); got != shards {
				t.Fatalf("ShardCount = %d, want %d", got, shards)
			}
			idx := c.shardIndex(k)
			if idx < 0 || idx >= shards {
				t.Fatalf("shardIndex(%q) = %d with %d shards", key, idx, shards)
			}
			for i := 0; i < 4; i++ {
				if again := c.shardIndex(k); again != idx {
					t.Fatalf("shardIndex(%q) unstable: %d then %d", key, idx, again)
				}
			}
			// Round-trip through the stripe the key hashes to.
			c.Put(&Object{Key: k, Value: []byte("v"), Version: 1})
			obj, ok := c.Get(k)
			if !ok || obj.Key != k {
				t.Fatalf("Get(%q) after Put = (%v, %v) with %d shards", key, obj, ok, shards)
			}
			if !c.Invalidate(k) {
				t.Fatalf("Invalidate(%q) found nothing with %d shards", key, shards)
			}
			if _, ok := c.Get(k); ok {
				t.Fatalf("Get(%q) after Invalidate still hits with %d shards", key, shards)
			}
		}
	})
}

// FuzzShardUniformity feeds the fuzzer-derived key population through a
// 16-way stripe and rejects any input set that collapses onto one shard
// once it is large enough to make that statistically absurd — the hash must
// not be defeated by structured keys (shared prefixes, length patterns).
func FuzzShardUniformity(f *testing.F) {
	f.Add("/en/day", 64)
	f.Add("/results/event", 256)
	f.Fuzz(func(t *testing.T, prefix string, n int) {
		if n < 0 || n > 4096 {
			return
		}
		c := New("fuzz-uniform", withShards(16))
		seen := make(map[int]bool)
		for i := 0; i < n; i++ {
			seen[c.shardIndex(Key(prefix+string(rune('a'+i%26))+string(rune('0'+i%10))))] = true
		}
		if n >= 260 && len(seen) < 2 {
			t.Fatalf("%d structured keys with prefix %q all hashed to one shard", n, prefix)
		}
	})
}
