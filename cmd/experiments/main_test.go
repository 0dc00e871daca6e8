package main

import (
	"strings"
	"testing"
)

func TestRunFig1Only(t *testing.T) {
	if err := run([]string{"-only", "fig1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPlacementOnly(t *testing.T) {
	if err := run([]string{"-only", "placement"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownSelection(t *testing.T) {
	if err := run([]string{"-only", "nonsense"}); err == nil {
		t.Fatal("unknown selection should fail")
	}
	// A known name beside an unknown one: the whole selection is rejected,
	// naming the stranger and listing what exists.
	err := run([]string{"-only", "fig1, typo"})
	if err == nil {
		t.Fatal("-only fig1,typo ran fig1 and dropped typo")
	}
	for _, want := range []string{`"typo"`, "fig1,fig1c,fig4", "leader"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-frobnicate"}); err == nil {
		t.Fatal("unknown flag should fail")
	}
}
