package core

import (
	"fmt"

	"stopwatch/internal/guest"
	"stopwatch/internal/vmm"
)

// This file is the guest's public replica surface. A Guest's per-slot state
// lives in exactly one place — the internal replica wiring — and the
// slot-addressed Replica view reads through it at call time. There are no
// mirrored slices to keep consistent: a view taken before a replacement
// observes the slot's new occupant afterwards.

// Replica is a read-only, slot-addressed view of one of a guest's replicas.
// The zero value is invalid; obtain views from Guest.Replica or
// Guest.Replicas.
type Replica struct {
	g    *Guest
	slot int
}

// wiring resolves the slot's current occupant.
func (r Replica) wiring() *replicaWiring { return r.g.replicas[r.slot] }

// Slot returns the replica's slot index (stable across replacements).
func (r Replica) Slot() int { return r.slot }

// Guest returns the owning guest.
func (r Replica) Guest() *Guest { return r.g }

// Host returns the index of the machine the replica currently runs on.
func (r Replica) Host() int { return r.wiring().hostIdx }

// HostName returns the name of the replica's machine.
func (r Replica) HostName() string { return r.wiring().hostName }

// Runtime returns the replica's StopWatch runtime.
func (r Replica) Runtime() *vmm.Runtime { return r.wiring().rt }

// NetDev returns the replica's network device model.
func (r Replica) NetDev() *vmm.NetDevice { return r.wiring().nd }

// App returns the replica's app instance.
func (r Replica) App() guest.App { return r.wiring().app }

// Epoch returns the replica's epoch coordinator, or nil when the optional
// Sec. IV-A re-synchronization is disabled (VMM.EpochInstr == 0).
func (r Replica) Epoch() *vmm.EpochCoordinator { return r.wiring().ec }

// NumReplicas returns the guest's StopWatch replica slot count — 0 for a
// baseline guest, consistently with Replica and Replicas, which address
// slots and have none to address on a baseline guest.
func (g *Guest) NumReplicas() int { return len(g.replicas) }

// Replica returns the slot-addressed view of replica slot (0-based). It
// panics on an out-of-range slot, like the slice indexing it replaces.
func (g *Guest) Replica(slot int) Replica {
	if slot < 0 || slot >= len(g.replicas) {
		panic(fmt.Sprintf("core: guest %s has no replica slot %d", g.ID, slot))
	}
	return Replica{g: g, slot: slot}
}

// Replicas returns slot-ordered views of all replicas — the iteration
// helper replacing loops over the old parallel slices. Baseline guests have
// no StopWatch replicas and return nil.
func (g *Guest) Replicas() []Replica {
	if len(g.replicas) == 0 {
		return nil
	}
	out := make([]Replica, len(g.replicas))
	for k := range out {
		out[k] = Replica{g: g, slot: k}
	}
	return out
}

// HostIndexes returns the guest's machine indexes in slot order (a fresh
// slice; the single host for a baseline guest).
func (g *Guest) HostIndexes() []int {
	if g.Baseline != nil {
		return []int{g.baselineHost}
	}
	out := make([]int, len(g.replicas))
	for k, w := range g.replicas {
		out[k] = w.hostIdx
	}
	return out
}

// SlotOnHost returns the slot of the replica resident on machine hostIdx.
func (g *Guest) SlotOnHost(hostIdx int) (int, bool) {
	for k, w := range g.replicas {
		if w.hostIdx == hostIdx {
			return k, true
		}
	}
	return 0, false
}

// JournalStats returns the guest's determinism-journal telemetry: retained
// records and bytes, checkpoint progress, and what truncation has dropped.
// Baseline guests keep no journal and return the zero snapshot.
func (g *Guest) JournalStats() vmm.JournalStats {
	if g.journal == nil {
		return vmm.JournalStats{}
	}
	return g.journal.Stats()
}

// App returns replica i's app instance (the single app for baseline).
func (g *Guest) App(i int) guest.App {
	if g.Baseline != nil {
		return g.baselineApp
	}
	if len(g.replicas) == 0 {
		return nil
	}
	return g.replicas[i%len(g.replicas)].app
}
