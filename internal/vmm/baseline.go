package vmm

import (
	"fmt"
	"slices"
	"sort"

	"stopwatch/internal/guest"
	"stopwatch/internal/sim"
	"stopwatch/internal/vtime"
)

// BaselineRuntime hosts a guest under an unmodified-Xen-like VMM: a single
// replica, interrupts delivered as soon as the device models finish (at the
// next guest-caused exit), and guest clocks that expose scaled host real
// time. This is the paper's "Baseline" in every figure.
type BaselineRuntime struct {
	ex   exec
	host *Host
	vm   *guest.VM

	pitFired int64

	pendingNet  []baseNetDelivery
	pendingDisk []baseDiskDelivery
	seq         uint64

	// OnSend forwards a guest output packet (wired by the cluster).
	OnSend SendSink
}

type baseNetDelivery struct {
	readyReal sim.Time
	payload   guest.Payload
}

type baseDiskDelivery struct {
	readyReal sim.Time
	seq       uint64
	done      guest.DiskDone
}

// NewBaselineRuntime builds a baseline (unmodified Xen) runtime.
func NewBaselineRuntime(host *Host, guestID string, app guest.App) (*BaselineRuntime, error) {
	if host == nil {
		return nil, fmt.Errorf("%w: nil host", ErrVMM)
	}
	rt := &BaselineRuntime{host: host}
	vm, err := guest.New(guestID, app, rt)
	if err != nil {
		return nil, err
	}
	rt.vm = vm
	rt.ex = exec{
		host:      host,
		vm:        vm,
		loop:      host.Loop(),
		exitEvery: host.Config().ExitEvery,
		vmm:       rt,
	}
	host.register(&rt.ex)
	return rt, nil
}

var _ guest.ClockView = (*BaselineRuntime)(nil)

// Now implements guest.ClockView: the baseline guest reads (scaled) host
// real time.
func (rt *BaselineRuntime) Now() vtime.Virtual {
	return vtime.Virtual(rt.host.Clock().Read(rt.host.Loop().Now()))
}

// TSC implements guest.ClockView from host real time.
func (rt *BaselineRuntime) TSC() uint64 { return uint64(rt.Now()) * 3 }

// PITCounter implements guest.ClockView from host real time.
func (rt *BaselineRuntime) PITCounter() uint16 {
	phase := int64(rt.Now()) % int64(pitPeriod)
	remaining := int64(pitPeriod) - phase
	return uint16((remaining * 65536) / int64(pitPeriod))
}

// VM returns the hosted guest.
func (rt *BaselineRuntime) VM() *guest.VM { return rt.vm }

// Host returns the hosting machine.
func (rt *BaselineRuntime) Host() *Host { return rt.host }

// Start boots the guest and begins execution.
func (rt *BaselineRuntime) Start() { rt.ex.start() }

// Stop halts the replica.
func (rt *BaselineRuntime) Stop() { rt.ex.stop() }

// Release permanently stops the guest and detaches it from its host's
// scheduler (eviction teardown).
func (rt *BaselineRuntime) Release() {
	rt.ex.stop()
	rt.host.unregister(&rt.ex)
}

// HandleInbound accepts a packet from the fabric: after the device-model
// processing delay it becomes deliverable at the next guest exit.
func (rt *BaselineRuntime) HandleInbound(p guest.Payload) {
	host := rt.host
	host.ioBegin()
	host.Loop().After(host.ioDelay(), "base:netdev", func() {
		host.ioEnd()
		rt.pendingNet = append(rt.pendingNet, baseNetDelivery{
			readyReal: host.Loop().Now(),
			payload:   p,
		})
	})
}

// requestDisk starts a disk transfer; the completion interrupt becomes
// deliverable when the transfer finishes.
func (rt *BaselineRuntime) requestDisk(a guest.IOAction) {
	host := rt.host
	host.ioBegin()
	ready := host.diskService(a.Bytes)
	rt.seq++
	seq := rt.seq
	host.Loop().At(ready, "base:diskdone", func() {
		host.ioEnd()
		rt.pendingDisk = append(rt.pendingDisk, baseDiskDelivery{
			readyReal: host.Loop().Now(),
			seq:       seq,
			done:      guest.DiskDone{Tag: a.Tag, Bytes: a.Bytes, Write: a.Write},
		})
		// Keep arrival order deterministic under equal ready times.
		sort.SliceStable(rt.pendingDisk, func(i, j int) bool {
			if rt.pendingDisk[i].readyReal != rt.pendingDisk[j].readyReal {
				return rt.pendingDisk[i].readyReal < rt.pendingDisk[j].readyReal
			}
			return rt.pendingDisk[i].seq < rt.pendingDisk[j].seq
		})
	})
}

// horizon implements exitHandler: what an exit delivers depends on host
// real time, which no instruction count predicts, so every boundary is
// taken.
func (rt *BaselineRuntime) horizon(first int64) int64 { return first }

// exit is the baseline VM-exit handler: inject whatever is ready.
func (rt *BaselineRuntime) exit(res guest.StepResult) {
	now := rt.host.Loop().Now()

	if res.IO != nil {
		if res.IO.IsSend() {
			if rt.OnSend != nil {
				rt.OnSend.GuestSend(*res.IO)
			}
		} else {
			rt.requestDisk(*res.IO)
		}
	}

	// Timer ticks by host real time.
	due := int64(rt.Now()) / int64(pitPeriod)
	if due > rt.pitFired {
		rt.vm.DeliverTimerTicks(int(due - rt.pitFired))
		rt.pitFired = due
	}

	for len(rt.pendingDisk) > 0 && rt.pendingDisk[0].readyReal <= now {
		d := rt.pendingDisk[0]
		rt.pendingDisk = slices.Delete(rt.pendingDisk, 0, 1) // in place: see Runtime.deliverDue
		rt.vm.DeliverDisk(d.done)
	}
	for len(rt.pendingNet) > 0 && rt.pendingNet[0].readyReal <= now {
		d := rt.pendingNet[0]
		rt.pendingNet = slices.Delete(rt.pendingNet, 0, 1)
		rt.vm.DeliverPacket(d.payload)
	}
}
