package aodb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
