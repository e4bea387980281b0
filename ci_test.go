package codedterasort_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestGateCopiesAgree: ci.sh mirrors `make ci` for machines without make,
// so the two hold their own copies of the coverage-gate package list, the
// LOC parent and the fake-clock step. They must agree, and every gated
// package must exist.
func TestGateCopiesAgree(t *testing.T) {
	grab := func(file, pattern string) string {
		t.Helper()
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		m := regexp.MustCompile(`(?m)` + pattern).FindSubmatch(text)
		if m == nil {
			t.Fatalf("%s: no line matches %q", file, pattern)
		}
		return string(m[1])
	}
	makePkgs := strings.Fields(grab("Makefile", `^COVER_GATE_PKGS = (.+)$`))
	shPkgs := strings.Fields(grab("ci.sh", `^for pkg in (.+); do$`))
	if !slices.Equal(makePkgs, shPkgs) {
		t.Errorf("cover-gate packages differ:\n  Makefile %v\n  ci.sh    %v", makePkgs, shPkgs)
	}
	if mk, sh := grab("Makefile", `^LOC_PARENT \?= (\d+)$`), grab("ci.sh", `^loc_parent=(\d+)$`); mk != sh {
		t.Errorf("LOC parent differs: Makefile %s, ci.sh %s", mk, sh)
	}
	if mk, sh := grab("Makefile", `^\t\tGOEXPERIMENT=synctest \$\(GO\) test (.+); \\$`), grab("ci.sh", `^\tGOEXPERIMENT=synctest go test (.+)$`); mk != sh {
		t.Errorf("fake-clock step differs: Makefile %q, ci.sh %q", mk, sh)
	}
	for _, pkg := range makePkgs {
		if files, _ := filepath.Glob(filepath.Join(pkg, "*.go")); len(files) == 0 {
			t.Errorf("cover gate lists %s, which holds no Go package", pkg)
		}
	}
}

// TestEveryFuzzTargetFuzzed: `make fuzz`, which CI runs, names every fuzz
// target in the tree, so none is left to its seed corpus alone.
func TestEveryFuzzTargetFuzzed(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	recipe := regexp.MustCompile(`(?ms)^fuzz:\n(.*?)\n\n`).FindSubmatch(makefile)
	if recipe == nil {
		t.Fatal("Makefile: no fuzz recipe")
	}
	listed := regexp.MustCompile(`\bFuzz\w+`).FindAllString(string(recipe[1]), -1)
	target := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	found := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range target.FindAllSubmatch(src, -1) {
			found++
			if !slices.Contains(listed, string(m[1])) {
				t.Errorf("%s: %s is missing from the Makefile's fuzz recipe", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no fuzz target found in the tree")
	}
}
