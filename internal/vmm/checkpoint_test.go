package vmm

import (
	"errors"
	"testing"

	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// TestRestoreRefusesAMutatedCheckpoint: a checkpoint whose clock fit the
// clock would not take, or whose pending queues are out of the (deliverVirt,
// seq) order the runtime keeps, is refused whole. Nothing of it is applied:
// the refused runtime still takes the intact checkpoint, which a runtime
// whose guest had been restored would not.
func TestRestoreRefusesAMutatedCheckpoint(t *testing.T) {
	loop, src := sim.NewLoop(), sim.NewSource(91)
	h := testHost(t, "A", loop, src, 0, 0)
	fresh := func() *Runtime {
		rt, err := NewRuntime(h, "g", &equivApp{}, []sim.Time{0})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	base := Checkpoint{
		Instr: 4 * DefaultConfig().ExitEvery, Virt: 10,
		ClockSlope:  vtime.InitialSlope,
		DiskSeq:     3,
		PendingNet:  []netDelivery{{deliverVirt: 20, seq: 5}, {deliverVirt: 20, seq: 7}, {deliverVirt: 30, seq: 6}},
		PendingDisk: []diskDelivery{{deliverVirt: 15, seq: 2}, {deliverVirt: 25, seq: 3}},
	}
	booted := fresh()
	booted.vm.Boot()
	if err := booted.vm.SnapshotInto(&base.VM); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(ck *Checkpoint)
	}{
		{"slope outside the clamp", func(ck *Checkpoint) { ck.ClockSlope = 0 }},
		{"negative epoch base", func(ck *Checkpoint) { ck.ClockEpochBase = -1 }},
		{"net out of order", func(ck *Checkpoint) { ck.PendingNet[0].deliverVirt = 40 }},
		{"net seqs out of order at one instant", func(ck *Checkpoint) { ck.PendingNet[1].seq = 4 }},
		{"net seq repeated", func(ck *Checkpoint) { ck.PendingNet[2].seq = 5 }},
		{"net entry doubled", func(ck *Checkpoint) { ck.PendingNet[1] = ck.PendingNet[0] }},
		{"disk out of order", func(ck *Checkpoint) { ck.PendingDisk[1].deliverVirt = 5 }},
		{"disk entry doubled", func(ck *Checkpoint) { ck.PendingDisk[1] = ck.PendingDisk[0] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ck Checkpoint
			ck.copyFrom(&base)
			tc.mutate(&ck)
			rt := fresh()
			err := rt.restoreCheckpoint(&ck)
			if !errors.Is(err, ErrVMM) && !errors.Is(err, vtime.ErrBadClock) {
				t.Fatalf("restore: %v, want a refusal", err)
			}
			if rt.Instr() != 0 || len(rt.pendingNet) != 0 || len(rt.pendingDisk) != 0 || rt.diskSeq != 0 {
				t.Fatalf("refused restore applied instr %d, %d net, %d disk, disk seq %d",
					rt.Instr(), len(rt.pendingNet), len(rt.pendingDisk), rt.diskSeq)
			}
			if err := rt.restoreCheckpoint(&base); err != nil {
				t.Fatalf("the intact checkpoint after a refusal: %v", err)
			}
		})
	}
	rt := fresh()
	if err := rt.restoreCheckpoint(&base); err != nil {
		t.Fatal(err)
	}
	if rt.Instr() != base.Instr || len(rt.pendingNet) != 3 || len(rt.pendingDisk) != 2 || rt.diskSeq != 3 {
		t.Fatalf("restored instr %d, %d net, %d disk, disk seq %d",
			rt.Instr(), len(rt.pendingNet), len(rt.pendingDisk), rt.diskSeq)
	}
}
