package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// savedRun is one run's standard output, read back: its stamp line and
// its result line.
type savedRun struct {
	stamp  stamp
	result result
}

// parseRun reads a saved run: the stamp line and the last line.
func parseRun(r io.Reader) (savedRun, error) {
	var out savedRun
	var haveStamp bool
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if strings.HasPrefix(line, `{"stamp":`) {
			var s struct {
				Stamp stamp `json:"stamp"`
			}
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				return out, fmt.Errorf("stamp line: %w", err)
			}
			out.stamp, haveStamp = s.Stamp, true
		}
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	if !haveStamp {
		return out, fmt.Errorf("no stamp line")
	}
	if err := json.Unmarshal([]byte(last), &out.result); err != nil {
		return out, fmt.Errorf("result line: %w", err)
	}
	return out, nil
}

// compareMain prints each metric of two saved runs side by side with
// their ratio. It refuses (exit 2) when the configurations differ, so a
// smoke-size or differently seeded run is never read as a regression or
// a gain.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.txt NEW.txt")
		return 2
	}
	runs := make([]savedRun, 2)
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		runs[i], err = parseRun(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", path, err)
			return 2
		}
	}
	if err := sameConfig(runs[0].stamp, runs[1].stamp); err != nil {
		fmt.Fprintln(stderr, "perfbench: refusing to compare:", err)
		return 2
	}
	names := make([]string, 0, len(runs[0].result.Metrics))
	for n := range runs[0].result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-28s %14s %14s %8s\n", "metric", "base", "new", "new/base")
	for _, n := range names {
		a, b := runs[0].result.Metrics[n], runs[1].result.Metrics[n]
		fmt.Fprintf(stdout, "%-28s %14.6g %14.6g %8.3f  %s\n", n, a.Value, b.Value, ratio(b.Value, a.Value), a.Unit)
	}
	return 0
}
