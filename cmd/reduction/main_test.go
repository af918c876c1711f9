package main

import "testing"

func TestParseQs(t *testing.T) {
	got, err := parseQs("9,17, 33")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 9 || got[2] != 33 {
		t.Fatalf("got %v", got)
	}
	for _, bad := range []string{"8", "2", "abc", "9,x", "", " , "} {
		if _, err := parseQs(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}
