// Package stopwatch is a simulation-based reproduction of "Mitigating
// Access-Driven Timing Channels in Clouds using StopWatch" (Li, Gao,
// Reiter — DSN 2013).
//
// StopWatch defends infrastructure-as-a-service clouds against timing side
// channels by running three replicas of every guest VM on hosts whose other
// residents do not overlap, exposing only virtual time (a deterministic
// function of the guest's instruction count) to the guests, and delivering
// every I/O event at the median of the three replicas' proposed timings.
// External observers see output packets at the median emission time too
// (the egress forwards the second copy).
//
// This package is the public façade over the full system:
//
//   - Cluster: a simulated cloud (hosts, StopWatch or baseline VMMs,
//     ingress/egress, reliable multicast, transports) on a deterministic
//     discrete-event kernel.
//   - Experiments: one harness per table/figure in the paper's evaluation
//     (Fig 1, 4, 5, 6, 7, 8; placement theorems; Δ calibration; the
//     Sec.-IX collaborating-attacker and median-vs-leader ablations).
//   - Placement: Theorem-1/2 replica placement (edge-disjoint triangle
//     packings of K_n via Bose's Steiner-triple-system construction).
//   - Analysis: the appendix's statistics (median-of-3 order statistics,
//     χ² detection effort, KS contraction, Δn calibration).
//
// # Quick start
//
//	cfg := stopwatch.DefaultClusterConfig()
//	c, err := stopwatch.NewCluster(cfg)
//	if err != nil { ... }
//	g, err := c.Deploy("web", []int{0, 1, 2}, func() stopwatch.App {
//	    fs, _ := stopwatch.NewFileServer(stopwatch.DefaultFileServerConfig())
//	    return fs
//	})
//	client, _ := c.NewClient("laptop")
//	c.Start()
//	dl := stopwatch.NewDownloader(client)
//	_ = dl.Fetch(stopwatch.GuestAddr("web"), stopwatch.ModeTCP, 100<<10, nil)
//	_ = c.Run(stopwatch.Seconds(10))
//	fmt.Println(g.CheckLockstep()) // nil: replicas emitted identical outputs
//
// All randomness is seeded; every run is bit-reproducible.
package stopwatch

import (
	"stopwatch/internal/apps"
	"stopwatch/internal/controlplane"
	"stopwatch/internal/core"
	"stopwatch/internal/gateway"
	"stopwatch/internal/guest"
	"stopwatch/internal/metrics"
	"stopwatch/internal/netsim"
	"stopwatch/internal/placement"
	"stopwatch/internal/sim"
	"stopwatch/internal/transport"
	"stopwatch/internal/vmm"
	"stopwatch/internal/vtime"
)

// Time is a simulated-time instant/duration in nanoseconds.
type Time = sim.Time

// Virtual is a guest-visible virtual-time value in nanoseconds.
type Virtual = vtime.Virtual

// Common time helpers.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Seconds converts seconds to simulated Time.
func Seconds(s float64) Time { return sim.FromSeconds(s) }

// Millis converts milliseconds to simulated Time.
func Millis(ms float64) Time { return sim.FromMillis(ms) }

// Rand is one named, seeded random stream (Cluster.Source().Stream(name)).
type Rand = sim.Rand

// Addr is a network fabric address.
type Addr = netsim.Addr

// Packet is a unit of fabric traffic.
type Packet = netsim.Packet

// FuncNode adapts a function into a fabric node (clients, sinks).
type FuncNode = netsim.FuncNode

// Cluster is a running simulated cloud.
type Cluster = core.Cluster

// ClusterConfig configures a cloud.
type ClusterConfig = core.ClusterConfig

// Guest is a deployed guest VM (all of its replicas).
type Guest = core.Guest

// Replica is a slot-addressed, read-through view of one guest replica:
// Guest.Replica(slot) / Guest.Replicas() expose the current host, runtime,
// device model, app and epoch coordinator of each slot. Views stay valid
// across replica replacement — they read the slot's current occupant.
type Replica = core.Replica

// Mode selects the hypervisor under test.
type Mode = core.Mode

// Hypervisor modes.
const (
	ModeStopWatch = core.ModeStopWatch
	ModeBaseline  = core.ModeBaseline
)

// VMMConfig carries hypervisor tunables (Δn, Δd, exit granularity, pacing,
// I/O and disk models).
type VMMConfig = vmm.Config

// DefaultVMMConfig returns the tunables used throughout the reproduction.
func DefaultVMMConfig() VMMConfig { return vmm.DefaultConfig() }

// NewCluster creates a simulated cloud.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return core.New(cfg) }

// DefaultClusterConfig returns a three-host StopWatch cloud in the paper's
// experimental regime.
func DefaultClusterConfig() ClusterConfig { return core.DefaultClusterConfig() }

// GuestAddr returns the public service address of a deployed guest.
func GuestAddr(guestID string) Addr { return gateway.ServiceAddr(guestID) }

// App is a deterministic guest workload; implement it to run custom guests.
type App = guest.App

// Snapshotter is the optional App extension checkpointed journals need:
// apps that can serialize and restore their state get periodic journal
// checkpoints (VMMConfig.CheckpointInstr), bounding replica-replacement
// replay by the checkpoint interval instead of the guest's lifetime.
type Snapshotter = guest.Snapshotter

// Ctx is the API available to guest apps inside callbacks.
type Ctx = guest.Ctx

// Payload is an inbound packet as a guest sees it.
type Payload = guest.Payload

// DiskDone reports disk completion to a guest.
type DiskDone = guest.DiskDone

// Client is the external transport client (the paper's client laptop).
type Client = transport.Client

// Response reports a completed client request.
type Response = transport.Response

// FileServer is the Fig-4/5 guest workload: files served from disk over
// TCP-like or UDP-like transport.
type FileServer = apps.FileServer

// FileServerConfig configures a FileServer.
type FileServerConfig = apps.FileServerConfig

// FileServerMode selects the file server transport.
type FileServerMode = apps.FileServerMode

// File server transports.
const (
	ModeTCP = apps.ModeTCP
	ModeUDP = apps.ModeUDP
)

// NewFileServer builds a file-serving guest app.
func NewFileServer(cfg FileServerConfig) (*FileServer, error) { return apps.NewFileServer(cfg) }

// DefaultFileServerConfig mirrors the paper's Apache setup.
func DefaultFileServerConfig() FileServerConfig { return apps.DefaultFileServerConfig() }

// Downloader drives file downloads and records latency.
type Downloader = apps.Downloader

// NewDownloader wraps a client.
func NewDownloader(c *Client) *Downloader { return apps.NewDownloader(c) }

// GetFile is the file-server request descriptor.
type GetFile = apps.GetFile

// NFSServer is the Fig-6 guest workload.
type NFSServer = apps.NFSServer

// NewNFSServer builds an NFS guest app.
func NewNFSServer(window int) (*NFSServer, error) { return apps.NewNFSServer(window) }

// NFSLoadGen is the nhfsstone-style load generator.
type NFSLoadGen = apps.NFSLoadGen

// NFSLoadGenConfig configures the generator.
type NFSLoadGenConfig = apps.NFSLoadGenConfig

// NewNFSLoadGen builds a generator driving svc through client with the
// given operation mix; Start(until) runs it.
func NewNFSLoadGen(loop *sim.Loop, rng *Rand, client *Client, svc Addr, mix []apps.MixEntry, cfg NFSLoadGenConfig) (*NFSLoadGen, error) {
	return apps.NewNFSLoadGen(loop, rng, client, svc, mix, cfg)
}

// PaperNFSMix returns the paper's extracted NFS operation mix.
func PaperNFSMix() []apps.MixEntry { return apps.PaperMix() }

// ParsecProfile is a calibrated compute/disk workload profile.
type ParsecProfile = apps.ParsecProfile

// PaperParsecProfiles returns the five calibrated PARSEC stand-ins.
func PaperParsecProfiles() []ParsecProfile { return apps.PaperParsecProfiles() }

// NewParsecApp builds a profile-running guest app.
func NewParsecApp(p ParsecProfile, collector Addr) (*apps.ParsecApp, error) {
	return apps.NewParsecApp(p, collector)
}

// ProbeApp is the attacker VM: it records guest-visible delivery times.
type ProbeApp = apps.ProbeApp

// NewProbeApp builds an attacker probe.
func NewProbeApp() *ProbeApp { return apps.NewProbeApp() }

// ProbeSource drives an attacker's inbound packet stream.
type ProbeSource = apps.ProbeSource

// NewProbeSource sends packets from src to dst with exponential (or
// constant) gaps of the given mean — the attacker's probing strategy.
// Wire it with a cluster's fabric, loop and a named RNG stream:
//
//	p := stopwatch.NewProbeSource(c.Net(), c.Loop(), c.Source().Stream("probe"), "colluder", stopwatch.GuestAddr("attacker"), stopwatch.Millis(2))
func NewProbeSource(net *netsim.Network, loop *sim.Loop, rng *sim.Rand, src, dst Addr, meanGap Time) *ProbeSource {
	return apps.NewProbeSource(net, loop, rng, src, dst, meanGap)
}

// BeaconApp is a self-driving periodic compute/disk/network load — the
// standing victim workload of scenario scripts.
type BeaconApp = apps.BeaconApp

// NewBeaconApp returns a beacon with the given burst period.
func NewBeaconApp(period Virtual) *BeaconApp { return apps.NewBeaconApp(period) }

// Placement re-exports.

// Triangle is one guest's three replica machines.
type Triangle = placement.Triangle

// Placement is a set of replica placements.
type Placement = placement.Placement

// Theorem1Max returns the maximum edge-disjoint triangle packing of K_n.
func Theorem1Max(n int) (int, error) { return placement.Theorem1Max(n) }

// PlaceTheorem2 constructs the Theorem-2 placement.
func PlaceTheorem2(n, c int) (*Placement, error) { return placement.PlaceTheorem2(n, c) }

// GreedyPack packs triangles for arbitrary n.
func GreedyPack(n, c int) (*Placement, error) { return placement.GreedyPack(n, c) }

// Pool is the incremental triangle packer: it keeps an edge-disjoint
// packing under online guest arrivals, departures and replica re-homing.
type Pool = placement.Pool

// Control-plane re-exports: the online orchestrator over a running cloud.

// ControlPlane serves the online guest lifecycle through the unified
// operations API: every mutation is a typed Op — AdmitOp, EvictOp,
// ReplaceOp, DrainOp, UndrainOp, FailOp, EvacuateOp, RepairOp, MigrateOp —
// submitted through Apply, which returns a structured Outcome (typed
// result, per-phase barrier timings, affected guests, pool deltas), appends
// it to the append-only operations log (Log), and streams progress to Watch
// subscribers. Stats is a pure fold over the log, and EnableStallDetector
// turns a stalled proposal group into a detector-driven
// fail → reconfigure → evacuate pipeline. EnablePlannedMigration turns
// infeasible Admit/Rehome requests into one-move migration plans run as
// child MigrateOps. Apply is the only mutating method, and a replica
// changes machine through one barrier (pause → quiesce → place → replace →
// resume) whichever op asked: a crash replacement, a planned migration, a
// drain's or an evacuation's per-resident move.
type ControlPlane = controlplane.ControlPlane

// ControlPlaneConfig tunes the orchestrator.
type ControlPlaneConfig = controlplane.Config

// ControlPlaneStats aggregates lifecycle decisions — a pure fold over the
// operations log (see FoldOpStats).
type ControlPlaneStats = controlplane.Stats

// Operations API re-exports.

// Op is one control-plane operation, submitted through ControlPlane.Apply.
type Op = controlplane.Op

// OpKind discriminates the Op sum.
type OpKind = controlplane.OpKind

// Outcome is an operation's record in the operations log.
type Outcome = controlplane.Outcome

// OpEvent is one observation on the ControlPlane.Watch stream.
type OpEvent = controlplane.Event

// Operation event kinds.
const (
	OpStarted    = controlplane.OpStarted
	PhaseReached = controlplane.PhaseReached
	OpCompleted  = controlplane.OpCompleted
	OpFailed     = controlplane.OpFailed
)

// The typed operations.
type (
	// AdmitOp places a new guest on an edge-disjoint replica triangle.
	AdmitOp = controlplane.AdmitOp
	// EvictOp undeploys a guest and frees its edges and capacity.
	EvictOp = controlplane.EvictOp
	// ReplaceOp re-homes a failed replica through the Sec. VII barrier.
	ReplaceOp = controlplane.ReplaceOp
	// DrainOp evacuates a machine for planned maintenance.
	DrainOp = controlplane.DrainOp
	// UndrainOp returns a drained machine's capacity to the pool.
	UndrainOp = controlplane.UndrainOp
	// FailOp marks a machine crashed and reconfigures its residents onto
	// their live quorums.
	FailOp = controlplane.FailOp
	// EvacuateOp re-homes every resident of a crashed machine.
	EvacuateOp = controlplane.EvacuateOp
	// RepairOp returns a crashed, evacuated machine to service.
	RepairOp = controlplane.RepairOp
	// MigrateOp moves a live replica between healthy hosts through the
	// freeze + replacement barrier (planned migration).
	MigrateOp = controlplane.MigrateOp
)

// MigrationPlan is one planned replica move (Pool.PlanAdmitMigration /
// Pool.PlanRehomeMigration) that unblocks an infeasible placement request.
type MigrationPlan = placement.MigrationPlan

// FoldOpStats derives decision counters from an operations log.
func FoldOpStats(log []*Outcome) ControlPlaneStats { return controlplane.FoldStats(log) }

// FormatOpLog renders an operations log deterministically, one line per
// outcome — byte-identical across runs with the same seed.
func FormatOpLog(log []*Outcome) string { return controlplane.FormatLog(log) }

// ErrNoFeasibleHost is the uniform typed infeasibility sentinel: no
// candidate triangle or host satisfies edge-disjointness, capacity and
// drain state. Admission rejections, replacement and evacuation
// infeasibility all wrap it — errors.Is(outcome.Err, ErrNoFeasibleHost) is
// the one check. Expected at high utilization.
var ErrNoFeasibleHost = controlplane.ErrNoFeasibleHost

// NewControlPlane builds a control plane over a StopWatch-mode cluster.
func NewControlPlane(c *Cluster, cfg ControlPlaneConfig) (*ControlPlane, error) {
	return controlplane.New(c, cfg)
}

// DefaultControlPlaneConfig returns orchestrator defaults for the given
// per-host capacity.
func DefaultControlPlaneConfig(capacity int) ControlPlaneConfig {
	return controlplane.DefaultConfig(capacity)
}

// Observability re-exports: the deterministic metrics registry.
//
//	reg := stopwatch.NewMetricsRegistry()
//	cp.InstrumentMetrics(reg) // control-plane families, folds of the op log
//	c.InstrumentMetrics(reg)  // data-plane families (packets, proposals, disks)
//	fmt.Print(reg.JSON())     // canonical end-of-run snapshot

// MetricsRegistry is the deterministic metrics registry: counter, gauge and
// fixed-bucket histogram families read at snapshot time from state the
// cluster and control plane already keep, with no wall-clock dependence;
// snapshots enumerate families in registration order and labeled samples
// sorted by label, so rendered pages are byte-identical across identical
// runs, and a registry attached late reads totals since the cluster was
// built.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry builds an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }
