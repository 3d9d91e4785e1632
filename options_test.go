// Caller lint: every exported package-level function in internal/ must be
// called by something that ships. A function that only tests or examples
// call is a capability the system never exercises, and an option that only
// tests set is a configuration it never runs in; either keeps a code path
// alive that no deployment, experiment or benchmark reaches. Delete it, or
// give it a caller, or (for a test seam only) list it below with its reason.
package dupserve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// knobAllowlist names the exported functions that exist only so a test can
// replace time, the network or randomness. Production never calls them
// because production wants the real clock, dialer and sleep.
var knobAllowlist = map[string]string{
	"dupserve/internal/cache.WithClock":           "test clock for stale-retention and StoredAt",
	"dupserve/internal/db.WithClock":              "test clock for commit timestamps",
	"dupserve/internal/db.WithSleep":              "test sleep for replication delay",
	"dupserve/internal/fault.WithRate":            "seeded fault rate for chaos tests",
	"dupserve/internal/obs.WithClock":             "test clock for spans, journal and dumps",
	"dupserve/internal/trace.WithClock":           "test clock for stage timings",
	"dupserve/internal/trigger.WithClock":         "test clock for batch waits",
	"dupserve/internal/wire.WithCallTimeout":      "shortens RPC deadlines so timeout tests run fast",
	"dupserve/internal/wire.WithDialer":           "fake dialer for partition and reconnect tests",
	"dupserve/internal/wire.WithFlushInterval":    "drives debt flushing deterministically in tests",
	"dupserve/internal/wire.WithGroupRetryPolicy": "shortens push retries so downgrade tests run fast",
	"dupserve/internal/wire.WithPartitionCheck":   "fault-injection link cut for the partition tests",
	"dupserve/internal/wire.WithReconnectBackoff": "shortens reconnect backoff so tests run fast",
}

// knob is one exported package-level function.
type knob struct {
	pkg, name string // import path and function name
	pos       string // file:line of the declaration
}

func (k knob) id() string { return k.pkg + "." + k.name }

// TestEveryExportedFuncHasACaller fails for every exported package-level
// function in internal/ (option constructors included) that no non-test
// code under cmd/, internal/ or bench/, and not the root experiment index
// bench_test.go, refers to.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	files := parseModule(t)

	knobs := map[string]knob{}
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.pkg, "dupserve/internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() {
				continue
			}
			k := knob{pkg: f.pkg, name: fn.Name.Name, pos: f.fset.Position(fn.Pos()).String()}
			knobs[k.id()] = k
		}
	}
	if len(knobs) == 0 {
		t.Fatal("found no exported functions; is the module root the working directory?")
	}

	used := map[string]bool{}
	for _, f := range files {
		if !f.counts {
			continue
		}
		imports := map[string]string{} // local name -> import path
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if p, ok := imports[id.Name]; ok {
						used[p+"."+x.Sel.Name] = true
						return false
					}
				}
				// A field or method name is not a use of a package-level name.
				ast.Inspect(x.X, visit)
				return false
			case *ast.Field:
				// Nor is a declared field or parameter name.
				ast.Inspect(x.Type, visit)
				return false
			case *ast.KeyValueExpr:
				// Nor is a struct literal's field key (a func cannot be a map key).
				if _, ok := x.Key.(*ast.Ident); !ok {
					ast.Inspect(x.Key, visit)
				}
				ast.Inspect(x.Value, visit)
				return false
			case *ast.FuncDecl:
				// A declaration is not a use of itself; walk only its body.
				if x.Body != nil {
					ast.Inspect(x.Body, visit)
				}
				return false
			case *ast.Ident:
				used[f.pkg+"."+x.Name] = true
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	var unused []knob
	for id, k := range knobs {
		if used[id] {
			continue
		}
		if _, ok := knobAllowlist[id]; ok {
			continue
		}
		unused = append(unused, k)
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].id() < unused[j].id() })
	for _, k := range unused {
		t.Errorf("%s: %s has no caller outside tests and examples; delete it or allowlist it as a test seam", k.pos, k.id())
	}
	for id := range knobAllowlist {
		if _, ok := knobs[id]; !ok {
			t.Errorf("allowlist entry %s names no exported function", id)
		} else if used[id] {
			t.Errorf("allowlist entry %s has a production caller; drop it from the allowlist", id)
		}
	}
}

// goFile is one parsed source file of the module or the nested bench module.
type goFile struct {
	pkg    string // import path of the file's directory
	test   bool   // a _test.go file
	counts bool   // its references count as production callers
	fset   *token.FileSet
	ast    *ast.File
}

// parseModule parses every .go file under the module root, bench/ included.
func parseModule(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if p != "." && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		af, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkg := "dupserve"
		if dir != "." {
			pkg += "/" + dir
		}
		test := strings.HasSuffix(p, "_test.go")
		top := strings.SplitN(dir, "/", 2)[0]
		counts := (!test && (top == "cmd" || top == "internal" || top == "bench")) ||
			filepath.ToSlash(p) == "bench_test.go"
		files = append(files, goFile{pkg: pkg, test: test, counts: counts, fset: fset, ast: af})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
