package codedterasort_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docName matches a backticked Go name: `pkg.Name` or `pkg.Type.Member`,
// optionally called, as in `simnet.Default()`.
var docName = regexp.MustCompile("`([a-z][a-z0-9]*)\\.(\\w+)(?:\\.(\\w+))?(?:\\([^`]*\\))?`")

// TestDocNamesExist: every backticked name of a main-module package in
// DESIGN.md and README.md names a declaration that exists — a top-level
// name, or a method or field of a type — so deleting a declaration fails
// here until the docs stop naming it. Packages outside the module
// (`sync.Pool`) are skipped, and so are the benchmark's metric names
// (`cluster.place_s`): no Go name in the module has an underscore.
func TestDocNamesExist(t *testing.T) {
	decls := moduleDecls(t)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docName.FindAllStringSubmatch(string(text), -1) {
			names, inModule := decls[m[1]]
			name := m[2]
			if m[3] != "" {
				name += "." + m[3]
			}
			if inModule && !strings.Contains(name, "_") && !names[name] {
				t.Errorf("%s: %s names no declaration of package %s", doc, m[0], m[1])
			}
		}
	}
}

// docSpan matches a fenced code block or an inline code span.
var docSpan = regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")

// TestDocPathsExist: every backticked repository path in DESIGN.md,
// README.md and the examples' READMEs — a word of a code span or block
// whose first element is a directory at the repository root, as in
// `internal/cluster/fuzz_test.go` or `go run ./cmd/tables` — names a file
// or directory that exists (a glob, at least one). A line suffix
// (`gen.go:294`), a package pattern's `...` and trailing punctuation are
// dropped first.
func TestDocPathsExist(t *testing.T) {
	docs, err := filepath.Glob("examples/*/README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{"DESIGN.md", "README.md"}, docs...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range docSpan.FindAllString(string(text), -1) {
			for _, word := range strings.Fields(strings.Trim(span, "`")) {
				path, _, _ := strings.Cut(strings.TrimPrefix(word, "./"), ":")
				path = strings.TrimRight(path, ".,;)")
				root, _, nested := strings.Cut(path, "/")
				if st, err := os.Stat(root); !nested || root == "" || err != nil || !st.IsDir() {
					continue
				}
				if matches, err := filepath.Glob(path); err != nil || len(matches) == 0 {
					t.Errorf("%s: `%s` names no file or directory", doc, path)
				}
			}
		}
	}
}

// moduleDecls maps every package name of the main module (the bench module
// excluded) to the names its non-test files declare: top-level names, and
// Type.Member for each method, struct field and interface method.
func moduleDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := decls[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			decls[f.Name.Name] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					names[decl.Name.Name] = true
				} else {
					names[typeName(decl.Recv.List[0].Type)+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						for _, member := range members(spec.Type) {
							names[spec.Name.Name+"."+member] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// members lists the field names of a struct type, embedded ones under
// their type's name, and the method names of an interface type.
func members(typ ast.Expr) []string {
	var fields *ast.FieldList
	switch typ := typ.(type) {
	case *ast.StructType:
		fields = typ.Fields
	case *ast.InterfaceType:
		fields = typ.Methods
	default:
		return nil
	}
	var out []string
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			out = append(out, typeName(f.Type))
		}
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
	}
	return out
}

// typeName is the bare name of a receiver or embedded type: *T, T[P] and
// pkg.T all name T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}
