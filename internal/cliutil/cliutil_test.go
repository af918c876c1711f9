package cliutil

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSplitList(t *testing.T) {
	t.Parallel()
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ", nil},
		{"a", []string{"a"}},
		{"a, b ,c", []string{"a", "b", "c"}},
		{"a,,b,", []string{"a", "b"}},
	}
	for _, c := range cases {
		if got := SplitList(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseFloats(t *testing.T) {
	t.Parallel()
	cases := []struct {
		in      string
		want    []float64
		wantErr bool
	}{
		{"", nil, false},
		{"0", []float64{0}, false},
		{" 0, 0.05 ,0.2 ", []float64{0, 0.05, 0.2}, false},
		{"0.1,zebra", nil, true},
	}
	for _, c := range cases {
		got, err := ParseFloats(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseFloats(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if !c.wantErr && !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseFloats(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseInts(t *testing.T) {
	t.Parallel()
	cases := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"", nil, false},
		{"16", []int{16}, false},
		{" 16, 32 ,64 ", []int{16, 32, 64}, false},
		{"16,3.5", nil, true},
		{"16,x", nil, true},
	}
	for _, c := range cases {
		got, err := ParseInts(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseInts(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if !c.wantErr && !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseInts(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "state.json")
	if err := WriteFileAtomic(path, []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "two" {
		t.Errorf("content = %q, want %q", data, "two")
	}
	// No temp file is left behind after a successful write.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind (stat err = %v)", err)
	}
}

func TestWriteWith(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteWith(path, func(f *os.File) error {
		_, err := f.WriteString("body")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "body" {
		t.Errorf("content = %q (err %v), want %q", data, err, "body")
	}
	want := errors.New("writer failed")
	if err := WriteWith(path, func(*os.File) error { return want }); !errors.Is(err, want) {
		t.Errorf("err = %v, want the writer's error", err)
	}
	if err := WriteWith(filepath.Join(path, "not-a-dir"), func(*os.File) error { return nil }); err == nil {
		t.Error("created a file under a regular file")
	}
}

func TestSaveLoadJSONRoundtrip(t *testing.T) {
	t.Parallel()
	type state struct {
		Done []string       `json:"done"`
		Rows map[string]int `json:"rows"`
	}
	path := filepath.Join(t.TempDir(), "ckpt.json")
	in := state{Done: []string{"a", "b"}, Rows: map[string]int{"x": 1}}
	if err := SaveJSON(path, in); err != nil {
		t.Fatal(err)
	}
	var out state
	found, err := LoadJSON(path, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("existing file reported as missing")
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("roundtrip:\ngot  %+v\nwant %+v", out, in)
	}
	// The file ends with a newline (friendly to diff/cat).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Error("saved JSON does not end with a newline")
	}
}

func TestLoadJSONMissingAndCorrupt(t *testing.T) {
	t.Parallel()
	var v struct{}
	found, err := LoadJSON(filepath.Join(t.TempDir(), "missing.json"), &v)
	if err != nil {
		t.Fatalf("missing file: %v", err)
	}
	if found {
		t.Error("missing file reported as found")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJSON(bad, &v); err == nil {
		t.Error("corrupt file loaded without error")
	}
}
