package lint

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// loadCorpusModule loads the testdata/mod mini-module (its own go.mod,
// six packages with cross-package call chains) through a fresh loader.
// Allow-directive usage state is rebuilt inside every RunModule call, so
// one module can safely serve several test runs.
func loadCorpusModule() (*Module, error) {
	loader, err := NewLoader(filepath.Join("testdata", "mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := PackageDirs(loader.ModRoot)
	if err != nil {
		return nil, err
	}
	mod, err := loader.LoadModule(dirs)
	if err != nil {
		return nil, err
	}
	for _, pkg := range mod.Pkgs {
		if len(pkg.TypeErrors) > 0 {
			return nil, fmt.Errorf("corpus module package %s has type errors: %v", pkg.Path, pkg.TypeErrors)
		}
	}
	return mod, nil
}

// sharedCorpusModule memoizes one corpus module for the read-only tests.
var sharedCorpusModule = sync.OnceValues(loadCorpusModule)

// corpusModule fetches the shared corpus module or fails the test.
func corpusModule(t *testing.T) *Module {
	t.Helper()
	mod, err := sharedCorpusModule()
	if err != nil {
		t.Fatalf("loading corpus module: %v", err)
	}
	return mod
}

// modWantLines scans the module corpus for want:<rule> markers. Unlike
// the per-package helper, the marker may appear as any field of a
// comment, so a marker can ride inside an allow directive's reason when
// the expected finding is the directive itself (staleallow).
func modWantLines(mod *Module, rule string) []string {
	marker := "want:" + rule
	fset := mod.Loader.Fset()
	var out []string
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, field := range strings.Fields(c.Text) {
						if field == marker {
							pos := fset.Position(c.Pos())
							out = append(out, fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line))
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// byRule filters findings down to one rule.
func byRule(fs []Finding, rule string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

// TestModuleAnalyzers is the whole-module corpus check: hotpathalloc
// must flag exactly the allocations reachable from //lint:hotpath roots
// (including one two packages away and one behind interface dispatch,
// while the scratch-append reuse idiom stays clean), puritytaint exactly
// the sinks reachable from the structural Machine roots and //lint:pure
// roots, and staleallow exactly the directives that fired for nothing.
func TestModuleAnalyzers(t *testing.T) {
	mod := corpusModule(t)
	findings := RunModule(mod, DefaultAnalyzers(), DefaultModuleAnalyzers(), ModuleRunOptions{})
	for _, rule := range []string{"hotpathalloc", "puritytaint", StaleAllowName} {
		t.Run(rule, func(t *testing.T) {
			got := gotLines(byRule(findings, rule))
			want := modWantLines(mod, rule)
			if len(want) == 0 {
				t.Fatalf("corpus module has no want:%s markers", rule)
			}
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("findings mismatch for %s\n got: %v\nwant: %v", rule, got, want)
			}
		})
	}
	// No per-package rule may fire: the corpus import paths are outside
	// every Scope.
	for _, f := range findings {
		switch f.Rule {
		case "hotpathalloc", "puritytaint", StaleAllowName:
		default:
			t.Errorf("per-package rule leaked into corpus module: %s", f)
		}
	}
}

// TestHotPathDiagnosticPath: interprocedural findings carry the root ->
// ... -> function call chain so a developer can see why a leaf is hot.
func TestHotPathDiagnosticPath(t *testing.T) {
	mod := corpusModule(t)
	findings := RunModule(mod, nil, DefaultModuleAnalyzers(), ModuleRunOptions{Rules: map[string]bool{"hotpathalloc": true}})
	found := false
	for _, f := range byRule(findings, "hotpathalloc") {
		if strings.Contains(f.Message, "hot.Run -> hotmid.Relay -> hotleaf.Grow") {
			found = true
		}
	}
	if !found {
		t.Errorf("no finding carries the hot.Run -> hotmid.Relay -> hotleaf.Grow chain; findings: %v", findings)
	}
}

// TestRunModuleRuleSubset: -rules style filtering runs only the selected
// rules, and staleallow never misjudges a directive whose rule did not
// run — but still reports unknown rule names unconditionally.
func TestRunModuleRuleSubset(t *testing.T) {
	mod := corpusModule(t)

	only := RunModule(mod, DefaultAnalyzers(), DefaultModuleAnalyzers(), ModuleRunOptions{Rules: map[string]bool{"hotpathalloc": true}})
	for _, f := range only {
		if f.Rule != "hotpathalloc" {
			t.Errorf("subset run leaked rule %s: %s", f.Rule, f)
		}
	}
	if len(only) == 0 {
		t.Error("hotpathalloc subset run found nothing")
	}

	// A typo and the five rule names the determinism policy table
	// retired are all unknown rules.
	unknown := []string{"puritytant", "obsdeterminism", "faultsdeterminism", "servedeterminism", "wiredeterminism", "searchdeterminism"}
	stale := RunModule(mod, DefaultAnalyzers(), DefaultModuleAnalyzers(), ModuleRunOptions{Rules: map[string]bool{StaleAllowName: true}})
	if len(stale) != len(unknown) {
		t.Fatalf("staleallow-only run: got %d findings, want exactly the %d unknown-rule directives: %v", len(stale), len(unknown), stale)
	}
	for _, name := range unknown {
		found := false
		for _, f := range stale {
			found = found || strings.Contains(f.Message, "unknown rule \""+name+"\"")
		}
		if !found {
			t.Errorf("staleallow-only run did not report the unknown rule %q: %v", name, stale)
		}
	}
}

// TestAllRules pins the full rule inventory (per-package + module +
// staleallow) that cmd/dynlint -list must print.
func TestAllRules(t *testing.T) {
	rules := AllRules(DefaultAnalyzers(), DefaultModuleAnalyzers())
	if len(rules) != 8 {
		var names []string
		for _, r := range rules {
			names = append(names, r.Name)
		}
		t.Fatalf("got %d rules (%v), want 8", len(rules), names)
	}
	if rules[len(rules)-1].Name != StaleAllowName {
		t.Errorf("staleallow must be listed last, got %s", rules[len(rules)-1].Name)
	}
}

// TestStaleAllowPartialSelection pins the whole-module gate on
// interprocedural staleness: hotleaf.Stage's allow is used only through
// hot.Run's cross-package path, so linting hotleaf alone has no hotpath
// root in view and must not call the directive stale — while a
// whole-module run (TestModuleAnalyzers' exact-match accounting) still
// judges every directive.
func TestStaleAllowPartialSelection(t *testing.T) {
	loader, err := NewLoader(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	mod, err := loader.LoadModule([]string{filepath.Join("testdata", "mod", "hotleaf")})
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	findings := RunModule(mod, DefaultAnalyzers(), DefaultModuleAnalyzers(), ModuleRunOptions{})
	for _, f := range findings {
		if f.Rule == StaleAllowName {
			t.Errorf("partial selection reported a staleallow finding: %s: %s", f.Pos, f.Message)
		}
	}
}
