// Caller lint: every exported package-level function, method and type in
// internal/ must be used by something that ships. A function or method that
// only tests or examples call is a capability the system never exercises,
// and an option that only tests set is a configuration it never runs in;
// either keeps a code path alive that no deployment, experiment or benchmark
// reaches. Delete it, or give it a caller, or list it in an allowlist below
// with its reason.
package dupserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
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
	"dupserve/internal/obs.WithClock":             "test clock for staleness, spans, journal and dumps",
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

// methodAllowlist names the exported methods that production never calls but
// that stay on purpose, each with its reason.
var methodAllowlist = map[string]string{
	"dupserve/internal/fragment.Context.DependOn": "the one way a renderer declares a dependency it does not read; examples/missingedge plants its superfluous edge with it",
}

// stdlibCalled names the methods the standard library calls through its own
// interfaces (fmt, errors, encoding/json), so a missing production caller
// says nothing about them.
var stdlibCalled = map[string]bool{"String": true, "Error": true, "Unwrap": true, "MarshalJSON": true}

// TestEveryExportedMethodHasACaller is TestEveryExportedFuncHasACaller for
// methods and types, with type information. An exported method in internal/
// counts as used when production code (as the function lint counts it)
// selects it, or calls a method of the same name through an interface that
// its type or a pointer to it implements. An exported type counts as used
// when production names it outside its own declaration and methods.
func TestEveryExportedMethodHasACaller(t *testing.T) {
	prog := loadTyped(t)

	type decl struct {
		id, pos string
	}
	methods := map[*types.Func]decl{}
	typeNames := map[*types.TypeName]decl{}
	ownDecls := map[*types.TypeName][][2]token.Pos{} // a type's declaration and methods
	for _, p := range prog.pkgs {
		if !strings.HasPrefix(p.path, "dupserve/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if tn.Exported() {
				typeNames[tn] = decl{id: p.path + "." + name, pos: prog.fset.Position(tn.Pos()).String()}
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !stdlibCalled[m.Name()] {
					methods[m] = decl{id: p.path + "." + name + "." + m.Name(), pos: prog.fset.Position(m.Pos()).String()}
				}
			}
		}
		for _, f := range p.files {
			for _, d := range f.ast.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if tn := recvTypeName(p.info, d); tn != nil {
						ownDecls[tn] = append(ownDecls[tn], [2]token.Pos{d.Pos(), d.End()})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							if tn, ok := p.info.Defs[ts.Name].(*types.TypeName); ok {
								ownDecls[tn] = append(ownDecls[tn], [2]token.Pos{ts.Pos(), ts.End()})
							}
						}
					}
				}
			}
		}
	}
	if len(methods) == 0 || len(typeNames) == 0 {
		t.Fatal("found no exported methods or types; is the module root the working directory?")
	}

	used := map[*types.Func]bool{}
	usedType := map[*types.TypeName]bool{}
	type ifaceCall struct {
		iface *types.Interface
		name  string
	}
	var ifaceCalls []ifaceCall
	for _, p := range prog.pkgs {
		counted := map[*token.File]bool{}
		for _, f := range p.files {
			if f.counts {
				counted[prog.fset.File(f.ast.Pos())] = true
			}
		}
		for x, sel := range p.info.Selections {
			if !counted[prog.fset.File(x.Pos())] {
				continue
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				continue
			}
			used[fn.Origin()] = true
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				ifaceCalls = append(ifaceCalls, ifaceCall{iface, fn.Name()})
			}
		}
		for id, obj := range p.info.Uses {
			tn, ok := obj.(*types.TypeName)
			if !ok || !counted[prog.fset.File(id.Pos())] {
				continue
			}
			own := false
			for _, r := range ownDecls[tn] {
				if id.Pos() >= r[0] && id.Pos() < r[1] {
					own = true
				}
			}
			if !own {
				usedType[tn] = true
			}
		}
	}
	for m := range methods {
		if used[m] {
			continue
		}
		recv := m.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, c := range ifaceCalls {
			if c.name == m.Name() && (types.Implements(recv, c.iface) || types.Implements(types.NewPointer(recv), c.iface)) {
				used[m] = true
				break
			}
		}
	}

	var unused []decl
	allowed := map[string]bool{}
	for m, d := range methods {
		if _, ok := methodAllowlist[d.id]; ok {
			allowed[d.id] = true
			if used[m] {
				t.Errorf("allowlist entry %s has a production caller; drop it from the allowlist", d.id)
			}
			continue
		}
		if !used[m] {
			unused = append(unused, d)
		}
	}
	for tn, d := range typeNames {
		if !usedType[tn] {
			unused = append(unused, d)
		}
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].id < unused[j].id })
	for _, d := range unused {
		t.Errorf("%s: %s has no caller outside tests and examples; delete it or allowlist it with its reason", d.pos, d.id)
	}
	for id := range methodAllowlist {
		if !allowed[id] {
			t.Errorf("allowlist entry %s names no exported method", id)
		}
	}
}

// recvTypeName returns the named type a method declaration's receiver
// belongs to, or nil for a plain function.
func recvTypeName(info *types.Info, d *ast.FuncDecl) *types.TypeName {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return nil
	}
	x := d.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
			continue
		case *ast.IndexExpr:
			x = e.X
			continue
		case *ast.IndexListExpr:
			x = e.X
			continue
		case *ast.ParenExpr:
			x = e.X
			continue
		}
		break
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil
	}
	tn, _ := info.Uses[id].(*types.TypeName)
	return tn
}

// typedProgram is the module and the nested bench module, type-checked from
// source as one program; the standard library comes from export data.
type typedProgram struct {
	fset *token.FileSet
	pkgs []*typedPkg
}

// typedPkg is one source-checked package.
type typedPkg struct {
	path  string
	files []goFile
	types *types.Package
	info  *types.Info
}

// listedPkg is the part of `go list -json` output the loader reads.
type listedPkg struct {
	ImportPath  string
	Dir         string
	Export      string
	Standard    bool
	GoFiles     []string
	TestGoFiles []string
}

// goList runs `go list -deps -export -json` in dir and decodes its stream.
func goList(t *testing.T, dir string, patterns ...string) []listedPkg {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json"}, patterns...)...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// loadTyped type-checks, in dependency order, every package of cmd/,
// internal/ and bench/ plus the root experiment index, marking which files
// count as production callers exactly as parseModule does.
func loadTyped(t *testing.T) *typedProgram {
	t.Helper()
	fset := token.NewFileSet()
	// The root package is test files only; its standard imports must be listed too.
	rootFiles, _ := filepath.Glob("*_test.go")
	patterns := []string{"./cmd/...", "./internal/..."}
	for _, name := range rootFiles {
		af, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range af.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); !strings.HasPrefix(p, "dupserve") {
				patterns = append(patterns, p)
			}
		}
	}
	var listed []listedPkg
	for _, p := range append(goList(t, ".", patterns...), goList(t, "bench", "./...")...) {
		if p.ImportPath != "dupserve" { // checked last, once everything it imports is
			listed = append(listed, p)
		}
	}
	listed = append(listed, listedPkg{ImportPath: "dupserve", TestGoFiles: rootFiles})

	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if e, ok := exports[path]; ok {
			return os.Open(e)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	prog := &typedProgram{fset: fset}
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})}
	for _, lp := range listed {
		if lp.Standard || checked[lp.ImportPath] != nil {
			continue
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(lp.ImportPath, "dupserve"), "/")
		top := strings.SplitN(rel, "/", 2)[0]
		names := lp.GoFiles
		if lp.ImportPath == "dupserve" {
			names = lp.TestGoFiles
		} else if top != "cmd" && top != "internal" && top != "bench" {
			continue // examples do not count as callers and declare nothing checked
		}
		tp := &typedPkg{path: lp.ImportPath, info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		var asts []*ast.File
		for _, name := range names {
			p := filepath.Join(rel, name)
			af, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			counts := lp.ImportPath != "dupserve" || name == "bench_test.go"
			tp.files = append(tp.files, goFile{pkg: lp.ImportPath, test: lp.ImportPath == "dupserve", counts: counts, fset: fset, ast: af})
			asts = append(asts, af)
		}
		pkg, err := conf.Check(lp.ImportPath, fset, asts, tp.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", lp.ImportPath, err)
		}
		tp.types = pkg
		checked[lp.ImportPath] = pkg
		prog.pkgs = append(prog.pkgs, tp)
	}
	return prog
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
