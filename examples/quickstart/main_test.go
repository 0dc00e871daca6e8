package main

import (
	"regexp"
	"strings"
	"testing"
)

// TestQuickstart runs the example end to end: the download completes, the
// three replicas report lockstep and no divergence, and their output digests
// are one digest.
func TestQuickstart(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"replica lockstep: ok — identical output digests across all 3 replicas\n",
		"synchrony violations (divergences): 0\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	digests := regexp.MustCompile(`(?m)^replica \d on .*digest ([0-9a-f]{16})$`).FindAllStringSubmatch(got, -1)
	if len(digests) != 3 || digests[1][1] != digests[0][1] || digests[2][1] != digests[0][1] {
		t.Errorf("want three equal replica digests, got %q:\n%s", digests, got)
	}
}
