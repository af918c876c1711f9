package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dyndiam"
)

func captureRun(t *testing.T, seed uint64) []dyndiam.ObsEvent {
	t.Helper()
	n := 12
	ring := dyndiam.NewObsRing(1 << 16)
	adv := dyndiam.BoundedDiameterAdversary(n, 4, n/2, seed)
	ms := dyndiam.NewMachines(dyndiam.LeaderElect{Obs: ring}, n, make([]int64, n), seed, nil)
	eng := &dyndiam.Engine{Machines: ms, Adv: adv, Obs: ring}
	if _, err := eng.Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	return ring.Events()
}

func TestSummarizeReportsPhasesAndLocks(t *testing.T) {
	out := summarize(captureRun(t, 7))
	for _, want := range []string{
		"events over rounds 1..",
		"phase_enter",
		"spread",
		"count1",
		"locks:",
		"traffic:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if got := summarize(nil); got != "no events\n" {
		t.Fatalf("summarize(nil) = %q", got)
	}
}

func TestSummarizeSpansAndFrontier(t *testing.T) {
	events := []dyndiam.ObsEvent{
		// One matched engine-run span of 6 rounds plus a nested 2-round
		// span on the same lane.
		{Kind: dyndiam.ObsSpanBegin, Round: 0, Track: 0, Node: 3, A: 64, Name: dyndiam.InternObsKey("flood_fast")},
		{Kind: dyndiam.ObsSpanBegin, Round: 2, Track: 0, Node: 3, Name: dyndiam.InternObsKey("flood_fast")},
		{Kind: dyndiam.ObsSpanEnd, Round: 4, Track: 0, Node: 3, Name: dyndiam.InternObsKey("flood_fast")},
		{Kind: dyndiam.ObsSpanEnd, Round: 6, Track: 0, Node: 3, A: 64, Name: dyndiam.InternObsKey("flood_fast")},
		// A begin nobody closes and an end nobody opened, on other lanes.
		{Kind: dyndiam.ObsSpanBegin, Round: 1, Track: 2, Name: dyndiam.InternObsKey("execute")},
		{Kind: dyndiam.ObsSpanEnd, Round: 5, Track: 1, Node: 9, Name: dyndiam.InternObsKey("sweep_cell")},
		// Frontier samples; the last one is the coverage report.
		{Kind: dyndiam.ObsFrontier, Round: 3, A: 17, B: 31},
		{Kind: dyndiam.ObsFrontier, Round: 6, A: 33, B: 64},
	}
	out := summarize(events)
	for _, want := range []string{
		"span_begin",
		"span_end",
		"flood_fast          2 matched, total 8 ticks, mean 4.0",
		"execute             1 unclosed begins, 0 stray ends",
		"sweep_cell          0 unclosed begins, 1 stray ends",
		"frontier: 64 informed at round 6 (last sample: 33 newly)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// The span summary must survive a JSONL round trip — the normal obsview
// input path — not just in-memory streams.
func TestSpanSummaryFromJSONLFile(t *testing.T) {
	ring := dyndiam.NewObsRing(16)
	sp := dyndiam.BeginSpan(ring, "flood_fast", 0, 0, 1, 128)
	sp.End(9, 128)
	p := filepath.Join(t.TempDir(), "spans.jsonl")
	f, err := os.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := dyndiam.WriteEventsJSONL(f, ring.Events()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := loadMerged([]string{p})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summarize(events), "flood_fast          1 matched, total 8 ticks, mean 8.0") {
		t.Errorf("JSONL round trip lost the span:\n%s", summarize(events))
	}
}

func TestLoadMergedErrorPaths(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Empty input is not an error: zero events summarize as "no events".
	empty := write("empty.jsonl", "")
	events, err := loadMerged([]string{empty})
	if err != nil {
		t.Fatalf("empty file: %v", err)
	}
	if len(events) != 0 || summarize(events) != "no events\n" {
		t.Errorf("empty file = %d events, %q", len(events), summarize(events))
	}

	// A malformed line fails with the file and line number so the broken
	// capture is findable.
	bad := write("bad.jsonl",
		`{"kind":"round_start","round":1}`+"\n"+`{"kind":"round_end",`+"\n")
	if _, err := loadMerged([]string{bad}); err == nil {
		t.Error("malformed JSONL accepted")
	} else if !strings.Contains(err.Error(), "bad.jsonl") || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name the file and line", err)
	}

	// An unknown event kind is a schema error, not silently dropped.
	alien := write("alien.jsonl", `{"kind":"warp_drive","round":1}`+"\n")
	if _, err := loadMerged([]string{alien}); err == nil {
		t.Error("unknown kind accepted")
	} else if !strings.Contains(err.Error(), "warp_drive") {
		t.Errorf("error %q does not name the unknown kind", err)
	}

	// A missing file names the path.
	if _, err := loadMerged([]string{filepath.Join(dir, "nope.jsonl")}); err == nil {
		t.Error("missing file accepted")
	}

	// Files with disjoint kind sets merge: the summary covers both.
	spansOnly := write("spans.jsonl",
		`{"kind":"span_begin","round":0,"name":"flood_fast"}`+"\n"+
			`{"kind":"span_end","round":4,"name":"flood_fast"}`+"\n")
	trafficOnly := write("traffic.jsonl",
		`{"kind":"send","round":2,"node":1,"a":96}`+"\n")
	merged, err := loadMerged([]string{spansOnly, trafficOnly})
	if err != nil {
		t.Fatal(err)
	}
	out := summarize(merged)
	for _, want := range []string{"flood_fast", "traffic: 1 sends, 96 payload bits"} {
		if !strings.Contains(out, want) {
			t.Errorf("disjoint-kind merge missing %q:\n%s", want, out)
		}
	}
}

// TestLoadMergedInterleavesByRound writes two JSONL files and checks the
// merged stream is round-sorted, loses nothing, and summarizes to the
// same text regardless of how the events were split across files.
func TestLoadMergedInterleavesByRound(t *testing.T) {
	events := captureRun(t, 11)
	if len(events) < 10 {
		t.Fatalf("capture too small: %d events", len(events))
	}
	dir := t.TempDir()
	write := func(name string, evs []dyndiam.ObsEvent) string {
		p := filepath.Join(dir, name)
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := dyndiam.WriteEventsJSONL(f, evs); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	whole := write("whole.jsonl", events)
	// Split by parity of index: both halves stay round-ordered, so the
	// stable merge must reproduce a round-sorted interleaving.
	var a, b []dyndiam.ObsEvent
	for i, ev := range events {
		if i%2 == 0 {
			a = append(a, ev)
		} else {
			b = append(b, ev)
		}
	}
	pa, pb := write("a.jsonl", a), write("b.jsonl", b)

	mergedWhole, err := loadMerged([]string{whole})
	if err != nil {
		t.Fatal(err)
	}
	mergedSplit, err := loadMerged([]string{pa, pb})
	if err != nil {
		t.Fatal(err)
	}
	if len(mergedWhole) != len(events) || len(mergedSplit) != len(events) {
		t.Fatalf("merge lost events: %d / %d, want %d", len(mergedWhole), len(mergedSplit), len(events))
	}
	for i := 1; i < len(mergedSplit); i++ {
		if mergedSplit[i].Round < mergedSplit[i-1].Round {
			t.Fatalf("merged stream not round-sorted at %d", i)
		}
	}
	if summarize(mergedWhole) != summarize(mergedSplit) {
		t.Error("summary differs between whole and split inputs")
	}
}
