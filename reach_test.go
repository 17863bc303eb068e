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
// "wal.Log.InjectWriteFault"), a struct type, which allows every field it
// declares, or a bare package path, which allows every identifier the
// package declares.
var testOnlyAllowed = map[string]string{
	"clock.NewFake":             "fake clock: the deterministic time source the timing tests drive",
	"clock.Fake.Advance":        "fake clock: moves test time forward and fires the timers it passes",
	"codec/codectest":           "test helpers shared by every package that registers a binary wire form",
	"wal.Log.InjectWriteFault":  "fault seam: kvstore's persistence tests fail a WAL segment write only through it",
	"wal.Log.InjectSyncFault":   "fault seam: kvstore's persistence tests stall or fail a WAL fsync only through it",
	"bench.RunChaos":            "the in-process chaos soak: the soak gate runs it as TestChaosSoak",
	"bench.InsertRequestCost":   "capacity model: the per-insert cost TestCostModelCalibration holds to the paper's m5.large ceiling",
	"capacity.Profile.Capacity": "capacity model: the instance ceiling TestCostModelCalibration checks",
	"faults.Config":             "the soak gate's fault mix: only the chaos soaks set Dup, Delay and Panic",
	"bench.ChaosConfig":         "the config of bench.RunChaos, which only the soak gate runs",
}

// TestNoTestOnlyCode fails on any identifier declared under internal/
// that no non-test file in the module reaches and that testOnlyAllowed
// does not name, and on any allow-list entry that is reached, names
// nothing, names a message type or gives no reason. Code only tests call
// is not part of the system: delete it, or wire it into the program or
// example it belongs to.
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
// reached only through an errors.As interface literal, an allow-listed
// identifier, a message named only in a case clause and codec.Register, a
// message built only in a test file, a field that is only read, and state
// fields only written, only appended to, or only read by their encoder.
// The first and the last six are reported.
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
	want := []string{"widget.Mark.By", "widget.Orphan", "widget.Ping.Limit", "widget.Probe", "widget.Unused",
		"widget.counterState.Log", "widget.counterState.Note"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("unreached = %v, want %v", got, want)
	}
	if len(stale) != 0 {
		t.Errorf("stale = %v, want none", stale)
	}

	// An entry for a reached identifier, a missing identifier or a message
	// type (even one whose field it would cover), and one without a
	// reason, are stale.
	allow = map[string]string{"widget.Spare": " ", "widget.Unused": "x", "widget.Reached": "x", "widget.Gone": "x",
		"widget.Orphan": "x", "widget.Probe": "x", "widget.Ping": "x"}
	_, stale = reachScan(m, allow)
	got = got[:0]
	for _, s := range stale {
		got = append(got, s.name)
	}
	if want := []string{"widget.Gone", "widget.Orphan", "widget.Ping", "widget.Probe", "widget.Reached", "widget.Spare"}; strings.Join(got, ",") != strings.Join(want, ",") {
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
// the entries of allow that are stale: reached, naming nothing, naming a
// message type, or giving no reason.
//
// Declared: exported types, package-level consts and vars, exported
// fields of exported struct types, and every func and method, exported
// or not. Reached: the identifier is used (types.Info.Uses or
// Selections) in some non-test file of the module outside its own
// declaration; generic instances count for their origin. A method is also
// reached when some non-test file names an interface type, named or
// literal, with a method of the same name, or when the standard library
// calls it through one of implicitMethods.
//
// Two kinds count as reached only by what gives them a value. A field is
// reached only where some non-test file writes it (see writes). A message,
// a struct type named in a type-switch case or built inside an init
// function (where codec.Register is called), is reached only where some
// non-test file builds a value of it outside init: a composite literal,
// new(T) or a declared variable of type T.
//
// State is reached only where it is read. Every field, exported or not, of
// a type some State method returns, and of the struct types that type
// holds, counts as reached only where some non-test file reads it (see
// stateReads); an exported field of an exported type must also be written.
func reachScan(m *module, allow map[string]string) ([]unreachedIdent, []staleEntry) {
	prefix := m.path + "/internal/"
	type decl struct {
		name       string
		pos        token.Pos
		method     bool
		start, end token.Pos // the declaration's span; uses inside it do not count
		// A field is reached only where written (an exported field of an
		// exported type), only where read (a state field), or both.
		mustWrite, mustRead bool
	}
	declared := map[types.Object]*decl{}
	pkgOf := map[string]string{} // declared name -> package path below internal/
	state := stateTypes(m)
	for _, p := range m.list {
		rel, ok := strings.CutPrefix(p.path, prefix)
		if !ok {
			continue
		}
		add := func(id *ast.Ident, name string, method bool, node ast.Node) *decl {
			obj := p.info.Defs[id]
			if obj == nil {
				return &decl{}
			}
			d := &decl{name: rel + "." + name, pos: id.Pos(), method: method, start: node.Pos(), end: node.End()}
			declared[obj] = d
			pkgOf[rel+"."+name] = rel
			return d
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
							isState := state[p.info.Defs[s.Name]]
							if !s.Name.IsExported() && !isState {
								continue
							}
							if s.Name.IsExported() {
								add(s.Name, s.Name.Name, false, s)
							} else {
								pkgOf[rel+"."+s.Name.Name] = rel // an allow-list key for its fields
							}
							st, ok := s.Type.(*ast.StructType)
							if !ok {
								continue
							}
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									if setting := s.Name.IsExported() && n.IsExported(); setting || isState {
										d := add(n, s.Name.Name+"."+n.Name, false, n)
										d.mustWrite, d.mustRead = setting, isState
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

	w := writes(m)
	read := stateReads(m, state)
	messages := map[string]bool{} // declared names of message types
	var unreached []unreachedIdent
	allowedHits := map[string]bool{}
	for obj, d := range declared {
		v, _ := obj.(*types.Var)
		field := v != nil && v.IsField()
		if w.messages[obj] {
			messages[d.name] = true
		}
		switch {
		case field:
			if (w.fields[obj] || !d.mustWrite) && (read[obj] || !d.mustRead) {
				continue
			}
		case w.messages[obj]:
			if w.built[obj] {
				continue
			}
		case reached[obj] || (d.method && ifaceMethods[obj.Name()]):
			continue
		}
		// An entry names the identifier, the struct type that declares a
		// field, or the package.
		keys := []string{d.name}
		if field {
			keys = append(keys, d.name[:strings.LastIndex(d.name, ".")])
		}
		hit := ""
		for _, k := range append(keys, pkgOf[d.name]) {
			if _, ok := allow[k]; ok {
				hit = k
				break
			}
		}
		if hit == "" {
			unreached = append(unreached, unreachedIdent{d.name, stdFset.Position(d.pos)})
			continue
		}
		allowedHits[hit] = true
	}
	sort.Slice(unreached, func(i, j int) bool { return unreached[i].name < unreached[j].name })

	known := map[string]bool{}
	for name, pkg := range pkgOf {
		known[name], known[pkg] = true, true
	}
	var stale []staleEntry
	for key, why := range allow {
		switch {
		case strings.TrimSpace(why) == "":
			stale = append(stale, staleEntry{key, "gives no reason"})
		case messages[key]:
			stale = append(stale, staleEntry{key, "names a message type; a message no program sends goes, with its handler branches"})
		case !known[key]:
			stale = append(stale, staleEntry{key, "names no identifier or package under internal/"})
		case !allowedHits[key]:
			stale = append(stale, staleEntry{key, "a non-test file reaches it now; drop the entry"})
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].name < stale[j].name })
	return unreached, stale
}

// written is what the module's non-test files give a value to.
type written struct {
	fields   map[types.Object]bool // fields written
	built    map[types.Object]bool // struct types a value is built of outside init
	messages map[types.Object]bool // struct types named in a type-switch case or built in init
}

// writes walks every non-test file of m. A field is written by a keyed
// composite literal, an assignment, ++ or --, a range clause's = or an
// address taken (&x.F, or x.F.M() with M on *T); an unkeyed literal writes
// every field. Writing x.F.G, or x.F[i] with F an array, writes F too,
// unless the path crosses a pointer.
func writes(m *module) written {
	w := written{fields: map[types.Object]bool{}, built: map[types.Object]bool{}, messages: map[types.Object]bool{}}
	// named is the struct type T or *T names, nil for any other type.
	named := func(t types.Type) types.Object {
		if pt, ok := t.(*types.Pointer); ok {
			t = pt.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			if _, ok := n.Underlying().(*types.Struct); ok {
				return n.Origin().Obj()
			}
		}
		return nil
	}
	for _, p := range m.list {
		write := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.SelectorExpr:
					s := p.info.Selections[x]
					if s == nil || s.Kind() != types.FieldVal {
						return
					}
					w.fields[s.Obj().(*types.Var).Origin()] = true
					if s.Indirect() {
						return
					}
					e = x.X
				case *ast.IndexExpr:
					if _, ok := p.info.TypeOf(x.X).Underlying().(*types.Array); !ok {
						return
					}
					e = x.X
				default:
					return
				}
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, _ := d.(*ast.FuncDecl)
				inInit := fd != nil && fd.Recv == nil && fd.Name.Name == "init"
				build := func(t types.Type) {
					if obj := named(t); obj != nil {
						if inInit {
							w.messages[obj] = true
						} else {
							w.built[obj] = true
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						t := p.info.TypeOf(n)
						if pt, ok := t.(*types.Pointer); ok { // an elided &T{} inside []*T{...}
							t = pt.Elem()
						}
						build(t)
						st, ok := t.Underlying().(*types.Struct)
						if !ok {
							return true
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								w.fields[p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
							} else {
								w.fields[st.Field(i).Origin()] = true
							}
						}
					case *ast.CallExpr:
						if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 1 {
							if b, ok := p.info.Uses[id].(*types.Builtin); ok && b.Name() == "new" {
								build(p.info.TypeOf(n.Args[0]))
							}
						}
					case *ast.ValueSpec:
						if n.Type != nil {
							if _, ok := p.info.TypeOf(n.Type).(*types.Pointer); !ok {
								build(p.info.TypeOf(n.Type))
							}
						}
					case *ast.TypeSwitchStmt:
						for _, c := range n.Body.List {
							for _, e := range c.(*ast.CaseClause).List {
								if obj := named(p.info.TypeOf(e)); obj != nil {
									w.messages[obj] = true
								}
							}
						}
					case *ast.AssignStmt:
						for _, l := range n.Lhs {
							write(l)
						}
					case *ast.IncDecStmt:
						write(n.X)
					case *ast.RangeStmt:
						if n.Tok == token.ASSIGN {
							write(n.Key)
							write(n.Value)
						}
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							write(n.X)
						}
					case *ast.SelectorExpr:
						if s := p.info.Selections[n]; s != nil && s.Kind() == types.MethodVal && !s.Indirect() {
							if _, ok := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ok {
								write(n.X)
							}
						}
					}
					return true
				})
			}
		}
	}
	return w
}

// stateTypes is the set of struct types whose fields are actor state: the
// types some State method of the module returns (a *T returned counts as
// T), and the module's struct types their fields hold, through pointers,
// slices, arrays, maps, named types and embedding.
func stateTypes(m *module) map[types.Object]bool {
	state := map[types.Object]bool{}
	seen := map[types.Object]bool{}
	var hold func(t types.Type)
	hold = func(t types.Type) {
		switch u := t.(type) {
		case *types.Pointer:
			hold(u.Elem())
		case *types.Slice:
			hold(u.Elem())
		case *types.Array:
			hold(u.Elem())
		case *types.Map:
			hold(u.Key())
			hold(u.Elem())
		case *types.Named:
			obj := u.Origin().Obj()
			if seen[obj] || obj.Pkg() == nil || obj.Pkg().Path() != m.path && !strings.HasPrefix(obj.Pkg().Path(), m.path+"/") {
				return
			}
			seen[obj] = true
			st, ok := u.Underlying().(*types.Struct)
			if !ok {
				hold(u.Underlying())
				return
			}
			state[obj] = true
			for i := 0; i < st.NumFields(); i++ {
				hold(st.Field(i).Type())
			}
		}
	}
	for _, p := range m.list {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Name.Name != "State" || fd.Body == nil || fd.Type.Params.NumFields() != 0 {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if r, ok := n.(*ast.ReturnStmt); ok {
						for _, e := range r.Results {
							hold(p.info.TypeOf(e))
						}
					}
					_, lit := n.(*ast.FuncLit)
					return !lit
				})
			}
		}
	}
	return state
}

// stateCodecMethods are the methods through which a state type encodes and
// decodes itself; they touch every field, so their reads prove nothing.
var stateCodecMethods = map[string]bool{"MarshalJSON": true, "UnmarshalJSON": true, "parse": true}

// stateReads returns the fields some non-test file of m reads. A
// selector x.F is a read except where it is written — on the left of an
// assignment, under ++ or --, a range clause's = target, the map delete
// or clear empties, with every field on the path (x.F.G = v and
// x.F[k] = v write F) — where it only feeds a write back to F (x.F =
// append(x.F, …)), and inside a MarshalJSON, UnmarshalJSON or parse
// method of a state type.
func stateReads(m *module, state map[types.Object]bool) map[types.Object]bool {
	read := map[types.Object]bool{}
	for _, p := range m.list {
		field := func(e ast.Expr) types.Object {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					return s.Obj().(*types.Var).Origin()
				}
			}
			return nil
		}
		builtin := func(call *ast.CallExpr) string {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := p.info.Uses[id].(*types.Builtin); ok {
					return b.Name()
				}
			}
			return ""
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && stateCodecMethods[fd.Name.Name] {
					recv := fd.Recv.List[0].Type
					if st, ok := recv.(*ast.StarExpr); ok {
						recv = st.X
					}
					if n, ok := p.info.TypeOf(recv).(*types.Named); ok && state[n.Origin().Obj()] {
						continue
					}
				}
				notRead := map[*ast.SelectorExpr]bool{}
				written := func(e ast.Expr) {
					for {
						switch x := e.(type) {
						case *ast.ParenExpr:
							e = x.X
						case *ast.SelectorExpr:
							notRead[x] = true
							e = x.X
						case *ast.IndexExpr:
							e = x.X
						case *ast.StarExpr:
							e = x.X
						default:
							return
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for i, l := range n.Lhs {
							written(l)
							if n.Tok != token.ASSIGN || len(n.Rhs) != len(n.Lhs) {
								continue
							}
							call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr)
							if f := field(l); f == nil || !ok || builtin(call) != "append" {
								continue
							}
							ast.Inspect(call, func(c ast.Node) bool {
								if sel, ok := c.(*ast.SelectorExpr); ok && field(sel) == field(l) {
									notRead[sel] = true
								}
								return true
							})
						}
					case *ast.IncDecStmt:
						written(n.X)
					case *ast.RangeStmt:
						if n.Tok == token.ASSIGN {
							written(n.Key)
							written(n.Value)
						}
					case *ast.CallExpr:
						if b := builtin(n); (b == "delete" || b == "clear") && len(n.Args) > 0 {
							written(n.Args[0])
						}
					case *ast.SelectorExpr:
						if f := field(n); f != nil && !notRead[n] {
							read[f] = true
						}
					}
					return true
				})
			}
		}
	}
	return read
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
