package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// countLines counts non-empty lines.
func countLines(s string) int {
	n := 0
	for _, line := range strings.Split(s, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// TestRunBadTree: the driver reports each seeded violation in the fixture
// tree with the intended rule and exits 1.
func TestRunBadTree(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"testdata/tree/..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	out := stdout.String()
	if got := countLines(out); got != 6 {
		t.Errorf("finding count = %d, want 6:\n%s", got, out)
	}
	wantRules := map[string]int{
		"determinism: ": 2, // math/rand import + rand.Intn call
		"congestsend: ": 1, // raw []byte payload
		"maporder: ":    1, // return inside map range
		"panicfree: ":   1, // panic in library func
		"printclean: ":  1, // fmt.Println in library func
	}
	for rule, want := range wantRules {
		if got := strings.Count(out, rule); got != want {
			t.Errorf("%s findings = %d, want %d:\n%s", strings.TrimSuffix(rule, ": "), got, want, out)
		}
	}
	for _, file := range []string{"badproto.go:", "badlib.go:"} {
		if !strings.Contains(out, file) {
			t.Errorf("output does not name %s:\n%s", file, out)
		}
	}
	if !strings.Contains(stderr.String(), "6 finding(s)") {
		t.Errorf("stderr summary = %q, want 6 finding(s)", stderr.String())
	}
}

// TestRunGoodTree: a clean subtree (allow-suppressed collection) exits 0
// with no output.
func TestRunGoodTree(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"testdata/tree/internal/goodlib"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stdout: %s stderr: %s)", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("unexpected findings on clean tree:\n%s", stdout.String())
	}
}

// TestRunList: -list prints one line per rule (5 per-package + 2
// whole-module + staleallow) and exits 0.
func TestRunList(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-list"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	if got := countLines(stdout.String()); got != 8 {
		t.Errorf("rule list has %d lines, want 8:\n%s", got, stdout.String())
	}
	for _, rule := range []string{"determinism", "maporder", "congestsend", "panicfree", "printclean", "hotpathalloc", "puritytaint", "staleallow"} {
		if !strings.Contains(stdout.String(), rule) {
			t.Errorf("rule %s missing from -list output", rule)
		}
	}
}

// TestRunRulesSubset: -rules restricts the run to the named rules.
func TestRunRulesSubset(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-rules", "printclean", "testdata/tree/..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	out := stdout.String()
	if got := countLines(out); got != 1 {
		t.Errorf("finding count = %d, want 1 (printclean only):\n%s", got, out)
	}
	if !strings.Contains(out, "printclean: ") {
		t.Errorf("subset output missing printclean finding:\n%s", out)
	}
}

// TestRunRulesUnknown: a typo in -rules is a usage error (exit 2), and
// the message lists the valid rule names.
func TestRunRulesUnknown(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-rules", "printcleen", "testdata/tree/..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "printcleen") || !strings.Contains(stderr.String(), "printclean") {
		t.Errorf("unknown-rule error should name the typo and the valid set: %s", stderr.String())
	}
}

// TestRunSARIF: -sarif writes a 2.1.0 log naming every rule and each
// finding, alongside the normal text output.
func TestRunSARIF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dynlint.sarif")
	var stdout, stderr strings.Builder
	code := run([]string{"-sarif", path, "testdata/tree/..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("SARIF file not written: %v", err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("SARIF version %q with %d runs, want 2.1.0 with 1", log.Version, len(log.Runs))
	}
	if got := len(log.Runs[0].Results); got != 6 {
		t.Errorf("SARIF has %d results, want the 6 fixture findings", got)
	}
}

// TestRunBaselineRatchet: -write-baseline records the fixture findings
// (exit 0), and a rerun with -baseline reports nothing; -rules subsets
// still fail on anything not recorded.
func TestRunBaselineRatchet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	var stdout, stderr strings.Builder
	if code := run([]string{"-write-baseline", path, "testdata/tree/..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("-write-baseline exit code = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-baseline", path, "testdata/tree/..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("baselined rerun exit code = %d, want 0\n%s", code, stdout.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("baselined rerun still prints findings:\n%s", stdout.String())
	}
	if code := run([]string{"-baseline", filepath.Join(t.TempDir(), "missing.json"), "testdata/tree/..."}, &stdout, &stderr); code != 2 {
		t.Errorf("unreadable baseline should be exit 2, got %d", code)
	}
}

// TestRunBadPattern: an unmatched pattern is a usage error (exit 2).
func TestRunBadPattern(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"testdata/no-such-dir/..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestWholeModuleClean is the acceptance gate: dynlint over the module
// root must report nothing (the tree carries allow justifications where
// the rules are intentionally relaxed).
func TestWholeModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module")
	}
	var stdout, stderr strings.Builder
	code := run([]string{"../../..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("dynlint on the module = exit %d, want 0\n%s%s", code, stdout.String(), stderr.String())
	}
}
