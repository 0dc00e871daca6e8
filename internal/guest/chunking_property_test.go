package guest

import (
	"testing"
	"testing/quick"

	"stopwatch/internal/vtime"
)

// Property: a guest's observable behaviour is invariant under how its
// execution is chunked. This is the exec engine's licence to rescale and
// pause at arbitrary real times: splitting the same instruction stream into
// different Step() budgets must not change outputs, I/O actions, or
// instruction counts.
func TestChunkingInvarianceProperty(t *testing.T) {
	type result struct {
		digest  uint64
		outputs int
		instr   int64
		ios     int
	}
	run := func(chunks []int64) result {
		app := &scriptApp{}
		app.boot = func(c Ctx) {
			c.Compute(1000)
			c.Send("d", 100, "first")
			c.Compute(2500)
			c.DiskRead("blk", 512)
			c.Compute(700)
			c.Send("d", 50, "second")
		}
		clk := &fakeClock{}
		vm, err := New("g", app, clk)
		if err != nil {
			t.Fatal(err)
		}
		vm.Boot()
		var r result
		var instr int64
		i := 0
		for vm.Busy() {
			budget := chunks[i%len(chunks)]
			i++
			if budget <= 0 {
				budget = 1
			}
			res := vm.Step(budget)
			instr += res.Executed
			clk.now = vtime.Virtual(instr)
			if res.IO != nil {
				r.ios++
				if !res.IO.IsSend() {
					// Disk completion arrives "later": deliver immediately
					// after a fixed extra chunk so all runs agree. That step
					// may overwrite res.IO, so the request is copied first.
					req := *res.IO
					vm.Step(100)
					instr += 100
					clk.now = vtime.Virtual(instr)
					vm.DeliverDisk(DiskDone{Tag: req.Tag, Bytes: req.Bytes})
				}
			}
			if i > 100000 {
				t.Fatal("runaway")
			}
		}
		r.digest = vm.OutputDigest()
		r.outputs = vm.OutputCount()
		r.instr = vm.Stats().Branches - vm.Stats().IdleBranches
		return r
	}
	ref := run([]int64{1_000_000}) // one big chunk per step
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		chunks := make([]int64, 0, len(raw))
		for _, v := range raw {
			chunks = append(chunks, int64(v%1500)+1)
		}
		got := run(chunks)
		return got == ref
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
	if ref.outputs != 2 || ref.ios != 3 {
		t.Fatalf("reference run wrong: %+v", ref)
	}
}
