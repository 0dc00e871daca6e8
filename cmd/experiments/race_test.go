//go:build race

package main

// TestPaperFiguresDefaultGolden takes about 110 s under -race (5.5 s without).
func init() { raceBuild = true }
