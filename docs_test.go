package aodb

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// goToolFlags are the go command's flags the documents show beside the
// repository's own; no flag definition in the tree declares them.
var goToolFlags = map[string]bool{"bench": true, "race": true, "run": true, "v": true}

// TestDocumentedFlagsExist fails on any backticked -flag in README.md or
// DESIGN.md that no flag definition under cmd/, benchmark/ or
// internal/siloboot declares: a flag renamed or deleted must take its
// documentation with it.
func TestDocumentedFlagsExist(t *testing.T) {
	declared := map[string]bool{}
	for _, dir := range []string{"cmd", "benchmark", "internal/siloboot"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if name, ok := flagName(n); ok {
					declared[name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no flag definitions")
	}
	spans := regexp.MustCompile("`[^`\n]+`")
	flags := regexp.MustCompile(`(?:^|[\s(])-([a-z][a-z0-9_-]*)`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		missing := map[string]bool{}
		for _, span := range spans.FindAllString(string(text), -1) {
			for _, m := range flags.FindAllStringSubmatch(strings.Trim(span, "`"), -1) {
				if name := m[1]; !declared[name] && !goToolFlags[name] {
					missing[name] = true
				}
			}
		}
		var names []string
		for name := range missing {
			names = append(names, "-"+name)
		}
		sort.Strings(names)
		if len(names) > 0 {
			t.Errorf("%s names flags that nothing declares: %s", doc, strings.Join(names, " "))
		}
	}
}

// flagName reports the flag a call such as flag.Int("n", ...) or
// fs.StringVar(&v, "name", ...) defines: the first string literal among
// the call's first two arguments, for a flag-package method name.
func flagName(n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch strings.TrimSuffix(sel.Sel.Name, "Var") {
	case "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "String", "Duration", "", "Text", "Func", "BoolFunc":
	default:
		return "", false
	}
	for i, arg := range call.Args {
		if i == 2 {
			break
		}
		if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			return name, err == nil
		}
	}
	return "", false
}

// TestDocumentedIdentifiersExist fails on any backticked Go file path or
// identifier in README.md, DESIGN.md or examples/README.md that the
// module no longer has, resolved through the reachability scan's loader:
//
//   - `path/file.go` and `path/file.go:N` name a .go file of the
//     repository, test files included, whose path is or ends in
//     path/file.go and that has at least N lines.
//   - `pkg.Ident` names a package-level identifier, or a method or field
//     of some type in pkg (`wal.Sync`); `pkg.Type.Member` a method or
//     field of that type. pkg is a package of the module or one it
//     imports; a test function is looked up among pkg's test files.
//   - `Type.Member` names a method or field of some type of that name in
//     the module.
//
// A second segment in lower case after a package (`core.turns`) is a
// metric name and a first segment that is neither a package nor a type
// (`cfg.States`) a local variable: neither is checked, nor is a span with
// call arguments.
func TestDocumentedIdentifiersExist(t *testing.T) {
	m := loadRoot(t)
	pkgs := map[string][]*types.Package{}       // by package name
	typeNames := map[string][]*types.TypeName{} // module types, by name
	dirs := map[*types.Package]string{}         // module packages' directories
	for _, p := range m.list {
		if p.types.Name() == "main" {
			continue
		}
		pkgs[p.types.Name()] = append(pkgs[p.types.Name()], p.types)
		dirs[p.types] = p.dir
		for _, name := range p.types.Scope().Names() {
			if tn, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok {
				typeNames[name] = append(typeNames[name], tn)
			}
		}
	}
	for _, p := range m.list {
		for _, imp := range p.types.Imports() {
			if !strings.HasPrefix(imp.Path(), m.path+"/") && !slices.Contains(pkgs[imp.Name()], imp) {
				pkgs[imp.Name()] = append(pkgs[imp.Name()], imp)
			}
		}
	}

	var goFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || (d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".")) {
			if err == nil {
				err = filepath.SkipDir
			}
			return err
		}
		if strings.HasSuffix(path, ".go") {
			goFiles = append(goFiles, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	spans := regexp.MustCompile("`([^`\n]+)`")
	file := regexp.MustCompile(`^([\w./-]+\.go)(?::(\d+))?$`)
	ident := regexp.MustCompile(`^([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(\))?$`)
	for _, doc := range []string{"README.md", "DESIGN.md", filepath.Join("examples", "README.md")} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, sm := range spans.FindAllStringSubmatch(string(text), -1) {
			span := sm[1]
			if f := file.FindStringSubmatch(span); f != nil {
				if !docFileExists(f[1], f[2], goFiles) {
					t.Errorf("%s: `%s` names no file of the module (or too few lines)", doc, span)
				}
				continue
			}
			id := ident.FindStringSubmatch(span)
			if id == nil {
				continue
			}
			first, second, third := id[1], id[2], id[3]
			var ok bool
			switch cands, tns := pkgs[first], typeNames[first]; {
			case len(cands) > 0 && token.IsExported(second):
				ok = slices.ContainsFunc(cands, func(pkg *types.Package) bool {
					return resolvesInPackage(pkg, second, third, dirs[pkg])
				})
			case len(cands) == 0 && len(tns) > 0 && third == "":
				ok = slices.ContainsFunc(tns, func(tn *types.TypeName) bool { return hasMember(tn, second) })
			default:
				continue
			}
			if !ok {
				t.Errorf("%s: `%s` names no identifier of the module", doc, span)
			}
		}
	}
}

// docFileExists reports whether some .go file of the repository, test
// files included, is path or ends in /path, and has at least line lines.
func docFileExists(path, line string, goFiles []string) bool {
	for _, f := range goFiles {
		if f != path && !strings.HasSuffix(f, "/"+path) {
			continue
		}
		if line == "" {
			return true
		}
		data, err := os.ReadFile(filepath.FromSlash(f))
		n, _ := strconv.Atoi(line)
		if err == nil && n <= bytes.Count(data, []byte("\n")) {
			return true
		}
	}
	return false
}

// resolvesInPackage reports whether pkg declares name (with member, when
// given, a method or field of it), has a type with a method or field
// called name, or, in the module, a test function called name.
func resolvesInPackage(pkg *types.Package, name, member, dir string) bool {
	if obj := pkg.Scope().Lookup(name); obj != nil {
		if member == "" {
			return true
		}
		tn, ok := obj.(*types.TypeName)
		return ok && hasMember(tn, member)
	}
	if member != "" {
		return false
	}
	for _, n := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok && hasMember(tn, name) {
			return true
		}
	}
	return dir != "" && hasTestFunc(dir, name)
}

// hasMember reports whether tn's type, or a pointer to it, has a method
// or field called name.
func hasMember(tn *types.TypeName, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), name)
	return obj != nil
}

// hasTestFunc reports whether a _test.go file in dir declares func name.
func hasTestFunc(dir, name string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return true
			}
		}
	}
	return false
}
