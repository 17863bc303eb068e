package aodb

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyAllowed names the identifiers under internal/ that only tests
// reach and that stay anyway, each with its reason. A key is a package
// path below internal/ followed by the identifier ("clock.NewFake",
// "wal.Log.InjectWriteFault"), or a bare package path, which allows every
// identifier the package declares.
var testOnlyAllowed = map[string]string{
	"clock.NewFake":             "fake clock: the deterministic time source the timing tests drive",
	"clock.Fake.Advance":        "fake clock: moves test time forward and fires the timers it passes",
	"codec/codectest":           "test helpers shared by every package that registers a binary wire form",
	"wal.Log.InjectWriteFault":  "fault seam: kvstore's persistence tests fail a WAL segment write only through it",
	"wal.Log.InjectSyncFault":   "fault seam: kvstore's persistence tests stall or fail a WAL fsync only through it",
	"bench.RunChaos":            "the in-process chaos soak: the soak gate runs it as TestChaosSoak",
	"bench.InsertRequestCost":   "capacity model: the per-insert cost TestCostModelCalibration holds to the paper's m5.large ceiling",
	"capacity.Profile.Capacity": "capacity model: the instance ceiling TestCostModelCalibration checks",
}

// TestNoTestOnlyCode fails on any identifier declared under internal/
// that no non-test file in the module reaches and that testOnlyAllowed
// does not name, and on any allow-list entry that is reached or names
// nothing. Code only tests call is not part of the system: delete it, or
// wire it into the program or example it belongs to.
func TestNoTestOnlyCode(t *testing.T) {
	m := loadRoot(t)
	unreached, stale := reachScan(m, testOnlyAllowed)
	for _, u := range unreached {
		t.Errorf("%s: %s is reached only from tests; delete it, or allow-list it with a reason", u.pos, u.name)
	}
	for _, s := range stale {
		t.Errorf("allow-list entry %q is stale: %s", s.name, s.why)
	}
}

// TestReachScanFixture runs the scan over testdata/reach, a module with
// one planted case of each kind: an unreached exported func, a method
// reached only through an errors.As interface literal, and an allow-listed
// identifier. Only the first may be reported.
func TestReachScanFixture(t *testing.T) {
	m, err := loadModule(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{"widget.Spare": "planted: allow-listed"}
	unreached, stale := reachScan(m, allow)
	var got []string
	for _, u := range unreached {
		got = append(got, u.name)
	}
	if want := []string{"widget.Unused"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("unreached = %v, want %v", got, want)
	}
	if len(stale) != 0 {
		t.Errorf("stale = %v, want none", stale)
	}

	// An entry for a reached identifier and one for a missing identifier
	// are both stale.
	allow = map[string]string{"widget.Spare": "x", "widget.Unused": "x", "widget.Reached": "x", "widget.Gone": "x"}
	_, stale = reachScan(m, allow)
	got = got[:0]
	for _, s := range stale {
		got = append(got, s.name)
	}
	if want := []string{"widget.Gone", "widget.Reached"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("stale = %v, want %v", got, want)
	}
}

// A module is every non-test package of one Go module, type-checked.
type module struct {
	path string             // the module path go.mod declares
	pkgs map[string]*modPkg // by import path
	list []*modPkg          // sorted by import path
}

type modPkg struct {
	path  string
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// The standard library is type-checked from GOROOT's source once per test
// binary and shared by every module loaded.
var (
	stdFset     = token.NewFileSet()
	stdImporter = importer.ForCompiler(stdFset, "source", nil).(types.ImporterFrom)
	rootOnce    sync.Once
	rootMod     *module
	rootErr     error
)

// loadRoot loads this repository's module once per test binary.
func loadRoot(t *testing.T) *module {
	t.Helper()
	rootOnce.Do(func() { rootMod, rootErr = loadModule(".") })
	if rootErr != nil {
		t.Fatal(rootErr)
	}
	return rootMod
}

// loadModule parses and type-checks the non-test files of every package
// under dir, choosing files as go/build's default context does (so a
// race/!race pair contributes one file).
func loadModule(dir string) (*module, error) {
	path, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{path: path, pkgs: map[string]*modPkg{}}
	err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(p, 0)
		if _, ok := err.(*build.NoGoError); ok || (err == nil && len(bp.GoFiles) == 0) {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		pkg := &modPkg{path: path, dir: p}
		if rel != "." {
			pkg.path += "/" + filepath.ToSlash(rel)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(stdFset, filepath.Join(p, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg.files = append(pkg.files, f)
		}
		m.pkgs[pkg.path] = pkg
		m.list = append(m.list, pkg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(m.list, func(i, j int) bool { return m.list[i].path < m.list[j].path })
	for _, p := range m.list {
		if _, err := m.check(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func (m *module) Import(path string) (*types.Package, error) { return m.ImportFrom(path, "", 0) }

// ImportFrom type-checks the module's own packages from source, on first
// use, and hands every other path to the standard library's importer.
func (m *module) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p := m.pkgs[path]; p != nil {
		return m.check(p)
	}
	return stdImporter.ImportFrom(path, dir, mode)
}

func (m *module) check(p *modPkg) (*types.Package, error) {
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(p.path, stdFset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", p.path, err)
	}
	p.types = tp
	return tp, nil
}

// implicitMethods are the methods the standard library calls through its
// own interfaces when handed a value: error, fmt.Stringer,
// json.Marshaler and Unmarshaler, sort.Interface, heap.Interface, and the
// Is and Unwrap that errors.Is and errors.As look for.
var implicitMethods = map[string]bool{
	"Error": true, "String": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Is": true, "Unwrap": true,
}

type unreachedIdent struct {
	name string
	pos  token.Position
}

type staleEntry struct{ name, why string }

// reachScan reports the identifiers declared in non-test files under the
// module's internal/ that nothing reaches, minus those allow names, and
// the entries of allow that are stale: reached, or naming nothing.
//
// Declared: exported types, package-level consts and vars, exported
// fields of exported struct types, and every func and method, exported
// or not. Reached: the identifier is used (types.Info.Uses or
// Selections) in some non-test file of the module outside its own
// declaration; generic instances count for their origin. A method is also
// reached when some non-test file names an interface type, named or
// literal, with a method of the same name, or when the standard library
// calls it through one of implicitMethods.
func reachScan(m *module, allow map[string]string) ([]unreachedIdent, []staleEntry) {
	prefix := m.path + "/internal/"
	type decl struct {
		name       string
		pos        token.Pos
		method     bool
		start, end token.Pos // the declaration's span; uses inside it do not count
	}
	declared := map[types.Object]*decl{}
	pkgOf := map[string]string{} // declared name -> package path below internal/
	for _, p := range m.list {
		rel, ok := strings.CutPrefix(p.path, prefix)
		if !ok {
			continue
		}
		add := func(id *ast.Ident, name string, method bool, node ast.Node) {
			obj := p.info.Defs[id]
			if obj == nil {
				return
			}
			declared[obj] = &decl{name: rel + "." + name, pos: id.Pos(), method: method, start: node.Pos(), end: node.End()}
			pkgOf[rel+"."+name] = rel
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.Name == "init" || d.Name.Name == "_" {
						continue
					}
					if d.Recv == nil {
						add(d.Name, d.Name.Name, false, d)
					} else {
						add(d.Name, recvName(d.Recv.List[0].Type)+"."+d.Name.Name, true, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if !s.Name.IsExported() {
								continue
							}
							add(s.Name, s.Name.Name, false, s)
							st, ok := s.Type.(*ast.StructType)
							if !ok {
								continue
							}
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									if n.IsExported() {
										add(n, s.Name.Name+"."+n.Name, false, n)
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									add(n, n.Name, false, n)
								}
							}
						}
					}
				}
			}
		}
	}

	reached := map[types.Object]bool{}
	ifaceMethods := map[string]bool{}
	for name := range implicitMethods {
		ifaceMethods[name] = true
	}
	use := func(obj types.Object, at token.Pos) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if d := declared[obj]; d != nil && at >= d.start && at < d.end {
			return
		}
		reached[obj] = true
	}
	for _, p := range m.list {
		for id, obj := range p.info.Uses {
			use(obj, id.Pos())
		}
		for sel, s := range p.info.Selections {
			use(s.Obj(), sel.Sel.Pos())
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceMethods[it.Method(i).Name()] = true
				}
			}
		}
	}

	var unreached []unreachedIdent
	allowedHits := map[string]bool{}
	for obj, d := range declared {
		if reached[obj] || (d.method && ifaceMethods[obj.Name()]) {
			continue
		}
		key := d.name
		if _, ok := allow[key]; !ok {
			key = pkgOf[d.name]
			if _, ok := allow[key]; !ok {
				unreached = append(unreached, unreachedIdent{d.name, stdFset.Position(d.pos)})
				continue
			}
		}
		allowedHits[key] = true
	}
	sort.Slice(unreached, func(i, j int) bool { return unreached[i].name < unreached[j].name })

	known := map[string]bool{}
	for name, pkg := range pkgOf {
		known[name], known[pkg] = true, true
	}
	var stale []staleEntry
	for key := range allow {
		switch {
		case !known[key]:
			stale = append(stale, staleEntry{key, "names no identifier or package under internal/"})
		case !allowedHits[key]:
			stale = append(stale, staleEntry{key, "a non-test file reaches it now; drop the entry"})
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].name < stale[j].name })
	return unreached, stale
}

// recvName is the base type name of a method receiver: T for T, *T, T[K]
// and *T[K].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
