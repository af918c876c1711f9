// Package cliutil holds the small flag-plumbing helpers the cmd/
// binaries share: comma-separated list parsing (cmd/chaos rates and
// dims, cmd/dynserve, cmd/gaptable and cmd/leaderelect sizes,
// cmd/reduction qs), output files (WriteWith) and atomic JSON state files (the
// checkpoint/resume plumbing of cmd/chaos, cmd/report, and
// cmd/dynserve). Every writer goes through WriteFileAtomic so an
// interrupted run never leaves a truncated checkpoint behind.
package cliutil

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// SplitList splits a comma-separated flag value into trimmed non-empty
// items. An empty or all-blank input yields a nil slice.
func SplitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// ParseFloats parses a comma-separated list of float64s. Blank items are
// skipped; an empty input yields a nil slice and no error.
func ParseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range SplitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseInts parses a comma-separated list of ints. Blank items are
// skipped; an empty input yields a nil slice and no error.
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, p := range SplitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// WriteWith creates path, runs fn on it and closes it, returning the
// first error: the output-file writer of cmd/dynsim, cmd/leaderelect,
// cmd/obsview and cmd/reduction.
func WriteWith(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteFileAtomic writes data to path via a same-directory temp file and
// rename, so readers never observe a partially written file and an
// interrupted writer never corrupts an existing one.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, perm); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// SaveJSON atomically writes v as indented JSON with a trailing newline —
// the checkpoint-file format shared by cmd/chaos, cmd/report, and
// cmd/dynserve.
func SaveJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// LoadJSON reads a JSON state file into v. A missing file reports
// found=false with no error (a fresh run); a present-but-corrupt file is
// an error, so an interrupted grid fails loudly instead of silently
// restarting from scratch.
func LoadJSON(path string, v interface{}) (found bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("corrupt state file %s: %v", path, err)
	}
	return true, nil
}
