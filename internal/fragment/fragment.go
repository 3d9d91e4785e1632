// Package fragment implements the page-composition layer of the 1998 web
// site (section 3.1, figure 15 of the paper).
//
// Pages at the Olympic site were assembled from fragments: a result update
// changed a medal-standings fragment, a recent-results fragment, athlete
// fragments, and so on, and those fragments were embedded in dozens of
// pages (the home page for the day, sport/event pages, country and athlete
// pages). Fragments are themselves cached objects that other objects depend
// on — exactly the paper's "item which constitutes both an object and
// underlying data" (odg.KindBoth).
//
// The Engine renders named pages and fragments. While a renderer runs, its
// Context records every database row it reads and every fragment it
// includes; those recordings become the object's dependency registration in
// the ODG, so the application never hand-maintains the graph — it simply
// renders, and DUP learns the dependencies as a side effect. This mirrors
// the paper's statement that "an application program is responsible for
// communicating data dependencies ... to the cache".
package fragment

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dupserve/internal/cache"
	"dupserve/internal/db"
	"dupserve/internal/odg"
)

// FragPrefix namespaces fragment keys so they can share the page cache
// without colliding with servable page paths.
const FragPrefix = "frag:"

// Registrar receives dependency registrations after each render. It is
// satisfied by *core.Engine; the indirection keeps this package free of a
// dependency on the DUP engine.
type Registrar interface {
	RegisterObject(key cache.Key, deps []odg.NodeID)
	RegisterFragment(key cache.Key, deps []odg.NodeID)
}

// Func renders a page or fragment. It reads data exclusively through the
// Context so dependencies are captured.
type Func func(ctx *Context) ([]byte, error)

// ErrUnknown is returned when rendering an unregistered name.
var ErrUnknown = errors.New("fragment: unknown page or fragment")

// ErrDepth is returned when fragment inclusion nests deeper than
// maxIncludeDepth (a cyclic include).
var ErrDepth = errors.New("fragment: include depth exceeded")

// maxIncludeDepth bounds fragment include nesting, so a cyclic include
// fails instead of recursing forever.
const maxIncludeDepth = 8

// Engine renders registered pages and fragments against a database,
// recording dependencies. Safe for concurrent use.
type Engine struct {
	database  *db.DB
	registrar Registrar
	fragCache *cache.Cache

	mu   sync.RWMutex
	defs map[string]Func

	// fullReRender disables memoized assembly: every Include recursively
	// re-renders its fragment. It exists as the measured baseline for the
	// incremental-propagation benchmark and the byte-identity tests; see
	// SetFullReRender.
	fullReRender atomic.Bool

	// floors holds the per-fragment required version set by BeginBatch: a
	// cached fragment may be spliced into a page only if its Version is at
	// or above the floor. Fragments never named in a batch keep floor zero,
	// so unchanged fragments remain reusable at whatever version they were
	// last rendered.
	floorMu sync.RWMutex
	floors  map[string]int64

	// flights deduplicates concurrent renders of the same fragment at the
	// same version: parallel page-assembly workers that find a fragment
	// missing or below its floor share one render instead of each running
	// it. Only fragment Generates and Includes issued from a page context
	// enter a flight; an Include inside a fragment render — whose stack may
	// itself hold a flight — renders inline, so a flight holder never waits
	// on a flight and deadlock is impossible even with cyclic includes.
	flightMu sync.Mutex
	flights  map[string]*flight

	// Render-vs-reuse accounting. renders counts fragment renders (not
	// pages); reuses counts Includes satisfied by splicing cached bytes.
	renders atomic.Int64
	reuses  atomic.Int64
	// batchRenders/batchReuses snapshot the totals at BeginBatch so
	// EndBatch can report per-batch deltas.
	batchRenders int64
	batchReuses  int64
}

// flight is one in-progress shared fragment render; waiters block on done
// and read obj/err afterwards.
type flight struct {
	done chan struct{}
	obj  *cache.Object
	err  error
}

// Config describes an Engine. DB is required; Registrar may be nil for
// standalone use (tests, static generation).
type Config struct {
	// DB is the database renders read through.
	DB *db.DB
	// Registrar receives dependency registrations after each render
	// (typically the complex's *core.Engine); nil disables registration.
	Registrar Registrar
}

// New returns an engine over cfg.
func New(cfg Config) *Engine {
	return &Engine{
		database:  cfg.DB,
		registrar: cfg.Registrar,
		fragCache: cache.New("fragments"),
		defs:      make(map[string]Func),
		floors:    make(map[string]int64),
		flights:   make(map[string]*flight),
	}
}

// SetFullReRender toggles memoized assembly off (on = true) or back on.
// With it off, every Include recursively re-renders its fragment instead
// of consulting the fragment cache: the O(pages x fragments) baseline that
// experiment E15 (BenchmarkIncrementalPropagation) and the byte-identity
// reference test measure against. Production engines never set it. It is
// a runtime switch because those callers flip it on a site-built engine
// whose construction they do not control.
func (e *Engine) SetFullReRender(on bool) { e.fullReRender.Store(on) }

// BeginBatch opens one propagation batch: version becomes the required
// floor for each named fragment, so page assembly within (and after) the
// batch refuses to splice a stale copy of a changed fragment and re-renders
// it instead. It also snapshots the render/reuse totals so EndBatch can
// report the batch's deltas. The DUP engine calls this before phase-1
// fragment regeneration; it satisfies core.Assembler.
func (e *Engine) BeginBatch(version int64, fragments []cache.Key) {
	e.floorMu.Lock()
	for _, k := range fragments {
		if name := string(k); e.floors[name] < version {
			e.floors[name] = version
		}
	}
	e.batchRenders = e.renders.Load()
	e.batchReuses = e.reuses.Load()
	e.floorMu.Unlock()
}

// EndBatch closes the batch opened by BeginBatch and returns how many
// fragment renders and cached-byte reuses it performed — the render-vs-
// reuse accounting that shows each changed fragment rendered exactly once
// while every containing page spliced it.
func (e *Engine) EndBatch() (renders, reuses int64) {
	e.floorMu.RLock()
	defer e.floorMu.RUnlock()
	return e.renders.Load() - e.batchRenders, e.reuses.Load() - e.batchReuses
}

// Accounting returns the lifetime fragment render and reuse totals.
func (e *Engine) Accounting() (renders, reuses int64) {
	return e.renders.Load(), e.reuses.Load()
}

// floor returns the required version for a fragment (zero if it was never
// named in a batch).
func (e *Engine) floor(name string) int64 {
	e.floorMu.RLock()
	defer e.floorMu.RUnlock()
	return e.floors[name]
}

// Define registers the renderer for a page path ("/en/day7/home") or a
// fragment name ("frag:medals"). Redefining replaces.
func (e *Engine) Define(name string, fn Func) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.defs[name] = fn
}

// Names returns all registered names, sorted.
func (e *Engine) Names() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.defs))
	for n := range e.defs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Defined reports whether name has a renderer.
func (e *Engine) Defined(name string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, ok := e.defs[name]
	return ok
}

// IsFragment reports whether name uses the fragment namespace.
func IsFragment(name string) bool { return strings.HasPrefix(name, FragPrefix) }

// FragmentCache exposes the internal fragment store (diagnostics and
// tests).
func (e *Engine) FragmentCache() *cache.Cache { return e.fragCache }

// Generate renders name at the given version, registers its dependencies,
// and returns the cacheable object. It satisfies core.Generator, so an
// Engine plugs directly into the DUP engine as the regenerator for
// update-in-place propagation. Fragments are additionally stored in the
// engine's fragment cache so that including pages splice the fresh bytes;
// concurrent Generates of the same fragment at the same version share one
// render through the engine's single-flight table.
func (e *Engine) Generate(key cache.Key, version int64) (*cache.Object, error) {
	name := string(key)
	if IsFragment(name) && !e.fullReRender.Load() {
		obj, _, err := e.renderShared(name, version, 0)
		return obj, err
	}
	return e.render(name, version, 0)
}

// renderShared renders a fragment through the single-flight table: the
// first caller for a given (name, version) renders; concurrent callers
// block and share the result. The flight key pins the version so renders
// requested at different versions never alias. waited reports whether this
// caller shared another caller's render instead of performing its own —
// Include counts that as a reuse.
func (e *Engine) renderShared(name string, version int64, depth int) (obj *cache.Object, waited bool, err error) {
	fkey := name + "@" + strconv.FormatInt(version, 10)
	e.flightMu.Lock()
	if f, ok := e.flights[fkey]; ok {
		e.flightMu.Unlock()
		<-f.done
		return f.obj, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	e.flights[fkey] = f
	e.flightMu.Unlock()

	f.obj, f.err = e.render(name, version, depth)
	e.flightMu.Lock()
	delete(e.flights, fkey)
	e.flightMu.Unlock()
	close(f.done)
	return f.obj, false, f.err
}

func (e *Engine) render(name string, version int64, depth int) (*cache.Object, error) {
	if depth > maxIncludeDepth {
		return nil, fmt.Errorf("%w (%d) rendering %q", ErrDepth, maxIncludeDepth, name)
	}
	e.mu.RLock()
	fn, ok := e.defs[name]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	ctx := &Context{engine: e, name: name, version: version, depth: depth, deps: make(map[odg.NodeID]struct{})}
	body, err := fn(ctx)
	if err != nil {
		return nil, fmt.Errorf("fragment: render %q: %w", name, err)
	}
	ct := ctx.contentType
	if ct == "" {
		ct = "text/html; charset=utf-8"
	}
	obj := &cache.Object{
		Key:         cache.Key(name),
		Value:       body,
		ContentType: ct,
		Version:     version,
	}
	deps := ctx.depList()
	if IsFragment(name) {
		e.renders.Add(1)
		e.fragCache.Put(obj)
		if e.registrar != nil {
			e.registrar.RegisterFragment(obj.Key, deps)
		}
	} else if e.registrar != nil {
		e.registrar.RegisterObject(obj.Key, deps)
	}
	return obj, nil
}

// Context is the render-time view handed to a Func. It is not safe for
// concurrent use and must not outlive the render call.
type Context struct {
	engine      *Engine
	name        string
	version     int64
	depth       int
	deps        map[odg.NodeID]struct{}
	buf         bytes.Buffer
	contentType string
}

// SetContentType overrides the rendered object's content type (default
// "text/html; charset=utf-8") — syndication feeds render JSON or XML.
func (c *Context) SetContentType(ct string) { c.contentType = ct }

// Version returns the version (database LSN) this render was requested at.
func (c *Context) Version() int64 { return c.version }

// DependOn records an explicit dependency on an arbitrary ODG vertex.
// Renderers use it for computed dependencies that no direct read expresses
// (e.g. a per-table index vertex bumped whenever rows are inserted, so
// "list all events" pages refresh when events appear).
func (c *Context) DependOn(id odg.NodeID) { c.deps[id] = struct{}{} }

// Get reads a row and records the dependency on it. Reading an absent row
// still records the dependency — the page's content ("no results yet")
// depends on the row staying absent.
func (c *Context) Get(table, key string) (db.Row, bool, error) {
	c.deps[odg.NodeID(db.RowID(table, key))] = struct{}{}
	return c.engine.database.Get(table, key)
}

// Scan reads all rows with the key prefix, recording a dependency on each
// returned row and on the table's prefix index vertex ("db:<table>:index:
// <prefix>"), which writers bump when inserting or deleting rows under the
// prefix. The index dependency is what makes membership changes (a new
// event appearing) propagate, not just mutations of already-read rows.
func (c *Context) Scan(table, prefix string) ([]db.Row, error) {
	rows, err := c.engine.database.Scan(table, prefix)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		c.deps[odg.NodeID(db.RowID(table, r.Key))] = struct{}{}
	}
	c.deps[odg.NodeID(IndexID(table, prefix))] = struct{}{}
	return rows, nil
}

// IndexID renders the ODG vertex name for a table-prefix membership index.
// Writers that insert or delete rows under a prefix include this ID in
// their change set so scan-based pages refresh. The canonical format lives
// in db.IndexID so read-tracking views report the same vertex names.
func IndexID(table, prefix string) string {
	return db.IndexID(table, prefix)
}

// Include renders (or reuses the cached copy of) a fragment, splices its
// bytes into the caller's output, and records a dependency on the fragment
// vertex — not on the fragment's own underlying rows; transitivity through
// the ODG handles those.
//
// This is the memoized-assembly hot path: a cached fragment is reused iff
// its version is at or above the floor BeginBatch pinned for it, so a page
// rebuilt by a propagation batch splices exactly the bytes phase 1 rendered
// — never a stale copy of a changed fragment, and never a redundant
// re-render of an unchanged one. A fragment found missing or below its
// floor is rendered through the single-flight table when the including
// renderer is a page, so parallel page-assembly workers share one render;
// an Include inside a fragment render (whose stack may hold a flight)
// renders inline, keeping flight waits acyclic.
func (c *Context) Include(fragName string) ([]byte, error) {
	if !IsFragment(fragName) {
		return nil, fmt.Errorf("fragment: Include of non-fragment name %q", fragName)
	}
	c.deps[odg.NodeID(fragName)] = struct{}{}
	e := c.engine
	if !e.fullReRender.Load() {
		if obj, ok := e.fragCache.Get(cache.Key(fragName)); ok && obj.Version >= e.floor(fragName) {
			e.reuses.Add(1)
			return obj.Value, nil
		}
		if c.depth == 0 && !IsFragment(c.name) {
			obj, waited, err := e.renderShared(fragName, c.version, c.depth+1)
			if err != nil {
				return nil, err
			}
			if waited {
				e.reuses.Add(1)
			}
			return obj.Value, nil
		}
	}
	obj, err := e.render(fragName, c.version, c.depth+1)
	if err != nil {
		return nil, err
	}
	return obj.Value, nil
}

// Printf appends formatted output to the context's build buffer.
func (c *Context) Printf(format string, args ...any) {
	fmt.Fprintf(&c.buf, format, args...)
}

// Write appends raw bytes to the build buffer, implementing io.Writer.
func (c *Context) Write(p []byte) (int, error) { return c.buf.Write(p) }

// IncludeInto renders the fragment and appends it to the build buffer.
func (c *Context) IncludeInto(fragName string) error {
	b, err := c.Include(fragName)
	if err != nil {
		return err
	}
	c.buf.Write(b)
	return nil
}

// Bytes returns a copy of the build buffer; renderers that used
// Printf/Write/IncludeInto return it directly.
func (c *Context) Bytes() []byte {
	out := make([]byte, c.buf.Len())
	copy(out, c.buf.Bytes())
	return out
}

func (c *Context) depList() []odg.NodeID {
	out := make([]odg.NodeID, 0, len(c.deps))
	for id := range c.deps {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
