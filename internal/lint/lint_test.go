package lint

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sharedLoader memoizes one loader (and with it the type-checked stdlib)
// across all tests in the package.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})

// loadCorpus loads one testdata package through the real loader.
func loadCorpus(t *testing.T, name string) *Package {
	t.Helper()
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.Load(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("corpus %s has type errors (fixtures must compile): %v", name, pkg.TypeErrors)
	}
	return pkg
}

// wantLines extracts the `// want:<rule>` annotations of a corpus as a
// sorted list of file:line keys.
func wantLines(pkg *Package, rule string) []string {
	var out []string
	marker := "want:" + rule
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if text != marker {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out = append(out, fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line))
			}
		}
	}
	sort.Strings(out)
	return out
}

// gotLines renders findings as deduplicated sorted file:line keys.
func gotLines(fs []Finding) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range fs {
		key := fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// ruleCorpora maps each per-package rule to its corpora. The
// determinism corpora sit at paths named like the policy's packages, so
// they reach the rule through the policy table like real code does.
var ruleCorpora = []struct {
	rule    string
	corpora []string
}{
	{"determinism", []string{"internal/dynet", "internal/obs", "internal/faults", "internal/serve", "internal/wire", "internal/advsearch"}},
	{"maporder", []string{"maporder"}},
	{"congestsend", []string{"internal/protocols/congestsend"}},
	{"panicfree", []string{"panicfree"}},
	{"printclean", []string{"printclean"}},
}

// TestAnalyzers is the table-driven corpus check: run through the
// driver's scopes, every rule must flag exactly the `// want:<rule>`
// lines of its corpora.
func TestAnalyzers(t *testing.T) {
	for _, c := range ruleCorpora {
		t.Run(c.rule, func(t *testing.T) {
			for _, corpus := range c.corpora {
				t.Run(corpus, func(t *testing.T) {
					pkg := loadCorpus(t, corpus)
					got := gotLines(byRule(RunAll(DefaultAnalyzers(), pkg), c.rule))
					want := wantLines(pkg, c.rule)
					if len(want) == 0 {
						t.Fatalf("corpus %s has no want:%s annotations", corpus, c.rule)
					}
					if strings.Join(got, ",") != strings.Join(want, ",") {
						t.Errorf("findings mismatch\n got: %v\nwant: %v", got, want)
					}
				})
			}
		})
	}
}

// TestRuleExclusivity: run through the driver's scopes, each corpus
// draws findings from its own rule alone (the corpora are minimal on
// purpose). In particular a strict package's map range is one
// determinism finding, never a maporder twin.
func TestRuleExclusivity(t *testing.T) {
	for _, c := range ruleCorpora {
		for _, corpus := range c.corpora {
			for _, f := range RunAll(DefaultAnalyzers(), loadCorpus(t, corpus)) {
				if f.Rule != c.rule {
					t.Errorf("%s: unrelated analyzer %s fired: %s", corpus, f.Rule, f)
				}
			}
		}
	}
}

// TestAllowSuppression: the allow corpus suppresses every violation
// except the one whose allow names the wrong rule.
func TestAllowSuppression(t *testing.T) {
	pkg := loadCorpus(t, "allow")
	for _, a := range DefaultAnalyzers() {
		got := gotLines(Run(a, pkg))
		want := wantLines(pkg, a.Name)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s on allow corpus\n got: %v\nwant: %v", a.Name, got, want)
		}
	}
}

// TestScopes pins the package scoping policy of each rule and the
// determinism policy row that governs each path.
func TestScopes(t *testing.T) {
	cases := []struct {
		rule string
		path string
		want bool
	}{
		{"determinism", "dyndiam/internal/dynet", true},
		{"determinism", "dyndiam/internal/protocols/flood", true},
		{"determinism", "dyndiam/internal/serve", true},
		{"determinism", "dyndiam/cmd/report", false},
		{"determinism", "dyndiam/internal/verify", false},
		{"maporder", "dyndiam/internal/verify", true},
		{"maporder", "dyndiam/internal/dynet", true},
		{"maporder", "dyndiam/cmd/dynsim", false},
		// determinism bans every map range in the strict rows, so
		// maporder skips them: one loop, one finding.
		{"maporder", "dyndiam/internal/obs", false},
		{"maporder", "dyndiam/internal/advsearch", false},
		{"congestsend", "dyndiam/internal/protocols/leader", true},
		{"congestsend", "dyndiam/internal/dynet", false},
		{"panicfree", "dyndiam/internal/graph", true},
		{"panicfree", "dyndiam/cmd/dynsim", false},
		{"printclean", "dyndiam/internal/export", true},
		{"printclean", "dyndiam/cmd/gaptable", false},
	}
	byName := map[string]*Analyzer{}
	for _, a := range DefaultAnalyzers() {
		byName[a.Name] = a
	}
	for _, c := range cases {
		a, ok := byName[c.rule]
		if !ok {
			t.Fatalf("unknown rule %s", c.rule)
		}
		if got := a.Scope(c.path); got != c.want {
			t.Errorf("%s.Scope(%s) = %v, want %v", c.rule, c.path, got, c.want)
		}
	}

	rows := []struct {
		path   string
		tree   string // "" when no row governs the path
		strict bool
	}{
		{"dyndiam/internal/dynet", "internal/dynet", false},
		{"dyndiam/internal/protocols/flood", "internal/protocols", false},
		// The sweep harness derives per-cell seeds from internal/rng, so
		// tables are independent of the worker count.
		{"dyndiam/internal/harness", "internal/harness", false},
		// Event logs, fault plans, served results, distributed runs and
		// search reports are reproducibility artifacts themselves.
		{"dyndiam/internal/obs", "internal/obs", true},
		{"dyndiam/internal/faults", "internal/faults", true},
		{"dyndiam/internal/serve", "internal/serve", true},
		{"dyndiam/internal/wire", "internal/wire", true},
		{"dyndiam/internal/advsearch", "internal/advsearch", true},
		// The layers' CLIs and the verifier are outside the policy.
		{"dyndiam/cmd/dynserve", "", false},
		{"dyndiam/cmd/dynnode", "", false},
		{"dyndiam/cmd/advsearch", "", false},
		{"dyndiam/internal/verify", "", false},
	}
	for _, c := range rows {
		row := policyFor(c.path)
		switch {
		case row == nil && c.tree != "":
			t.Errorf("policyFor(%s) = nil, want row %s", c.path, c.tree)
		case row != nil && (row.Tree != c.tree || row.Strict != c.strict):
			t.Errorf("policyFor(%s) = {%s strict=%v}, want {%q strict=%v}", c.path, row.Tree, row.Strict, c.tree, c.strict)
		}
	}
}

// TestPolicyRowsLive: every determinism policy row governs at least one
// package of this repository, so renaming a package cannot silently drop
// its row.
func TestPolicyRowsLive(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dirs, err := PackageDirs(loader.ModRoot)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := loader.LoadModule(dirs)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	for i := range determinismPolicy {
		row := &determinismPolicy[i]
		live := false
		for _, pkg := range mod.Pkgs {
			if policyFor(pkg.Path) == row {
				live = true
				break
			}
		}
		if !live {
			t.Errorf("policy row %s governs no package of the module", row.Tree)
		}
	}
}

// TestSelfClean: the lint package itself must satisfy every rule scoped
// to internal packages.
func TestSelfClean(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.Load(".")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, f := range RunAll(DefaultAnalyzers(), pkg) {
		t.Errorf("lint package violates its own rules: %s", f)
	}
}

// TestPackageDirs: the walker skips testdata and finds this package.
func TestPackageDirs(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := PackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	sawLint := false
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("walker descended into testdata: %s", d)
		}
		if strings.HasSuffix(d, filepath.Join("internal", "lint")) {
			sawLint = true
		}
	}
	if !sawLint {
		t.Error("walker did not find internal/lint")
	}
}
