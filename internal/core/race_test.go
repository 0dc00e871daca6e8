//go:build race

package core

func init() { heldSeeds = 4 }
