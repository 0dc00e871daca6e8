package main

import "testing"

func TestRunTheorem2(t *testing.T) {
	if err := run([]string{"-n", "21", "-c", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunGreedy(t *testing.T) {
	if err := run([]string{"-n", "20", "-c", "4", "-greedy", "-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDefaultCapacity(t *testing.T) {
	if err := run([]string{"-n", "9"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadN(t *testing.T) {
	if err := run([]string{"-n", "10"}); err == nil {
		t.Fatal("n=10 should fail for Theorem 2")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag should fail")
	}
}
