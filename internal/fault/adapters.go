package fault

import (
	"fmt"

	"dupserve/internal/cache"
	"dupserve/internal/core"
)

// ErrInjected wraps every synthetic failure an Injector produces, so logs
// and tests can distinguish injected faults from organic ones.
type ErrInjected struct {
	Kind Kind
	Key  string
}

// Error implements error.
func (e ErrInjected) Error() string {
	return fmt.Sprintf("fault: injected %s failure (%s)", e.Kind, e.Key)
}

// PushHook returns a cache.PutHook that fails per-node pushes. site
// namespaces decisions so complexes with identically named nodes fault
// independently. The identity of a push is (site, node, key, version):
// re-broadcasts of a newer version of the same page are fresh coin flips,
// while retries of the same push see a deterministic failure burst — the
// injector's Burst decides how many attempts fail, so some pushes recover
// within the retry budget and some exhaust it and degrade to invalidation.
func (i *Injector) PushHook(site string) cache.PutHook {
	return func(node string, obj *cache.Object, attempt int) error {
		id := site + "|" + node + "|" + string(obj.Key) + "|" + fmt.Sprint(obj.Version)
		burst := i.Burst(KindPush, id, 4)
		if burst == 0 || attempt > burst {
			return nil
		}
		if attempt == 1 {
			i.CountInjected(KindPush, 1)
		}
		return ErrInjected{Kind: KindPush, Key: id}
	}
}

// Generator wraps a core.Generator with render faults: a faulted
// (key, version) pair fails regeneration, which core remedies by
// invalidating the object — the cache serves a miss, never a stale page.
func (i *Injector) Generator(site string, gen core.Generator) core.Generator {
	return func(key cache.Key, version int64) (*cache.Object, error) {
		id := site + "|" + string(key) + "|" + fmt.Sprint(version)
		if i.Should(KindRender, id) {
			return nil, ErrInjected{Kind: KindRender, Key: id}
		}
		return gen(key, version)
	}
}

// CrashHook returns a trigger-monitor crash decision function. generation
// is the monitor's restart count: it is folded into the identity so a
// restarted monitor replaying the same batch (same LSN) gets a fresh
// decision instead of deterministically crashing forever.
func (i *Injector) CrashHook(site string, generation int) func(lsn int64) bool {
	return func(lsn int64) bool {
		id := fmt.Sprintf("%s|g%d|lsn%d", site, generation, lsn)
		return i.Should(KindMonitorCrash, id)
	}
}
