// Package amoebasim is a simulation-faithful reproduction of the system
// studied in "Comparing Kernel-Space and User-Space Communication
// Protocols on Amoeba" (Oey, Langendoen, Bal; ICDCS 1995): the Amoeba 5.2
// distributed operating system on a pool of SPARC processor boards
// connected by 10 Mbit/s Ethernet, the FLIP network layer, Amoeba's
// in-kernel RPC and totally-ordered group protocols, Panda's user-space
// protocol suite, and the Orca runtime system with the paper's six
// parallel applications.
//
// Everything runs on a deterministic discrete-event simulator with a cost
// model calibrated against the paper's own microbenchmarks, so the
// experiments of Tables 1-3 can be regenerated on any machine:
//
//	c, _ := amoebasim.NewCluster(amoebasim.ClusterConfig{
//		Procs: 2, Mode: amoebasim.UserSpace,
//	})
//	defer c.Shutdown()
//	server := c.Transports[0]
//	server.HandleRPC(func(t *amoebasim.Thread, ctx *amoebasim.RPCContext, req any, n int) {
//		server.Reply(t, ctx, req, n)
//	})
//	c.Procs[1].NewThread("client", amoebasim.PrioNormal, func(t *amoebasim.Thread) {
//		reply, _, _ := c.Transports[1].Call(t, 0, "ping", 4)
//		fmt.Println(reply, "after", c.Sim.Now())
//	})
//	c.Run()
//
// See the examples/ directory for runnable programs and cmd/amoebasim for
// the experiment driver.
package amoebasim

import (
	"amoebasim/internal/apps"
	"amoebasim/internal/bench"
	"amoebasim/internal/cluster"
	"amoebasim/internal/model"
	"amoebasim/internal/orca"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
	"amoebasim/internal/workload"
)

// Core simulation types.
type (
	// Sim is the discrete-event simulator driving a cluster.
	Sim = sim.Sim
	// Time is an instant of simulated time.
	Time = sim.Time
	// Processor is one simulated SPARC board.
	Processor = proc.Processor
	// Thread is a simulated Amoeba kernel thread.
	Thread = proc.Thread
	// CostModel is the calibrated machine cost model.
	CostModel = model.CostModel
)

// Cluster assembly.
type (
	// Cluster is a simulated Amoeba processor pool with a Panda instance
	// per worker.
	Cluster = cluster.Cluster
	// ClusterConfig configures a pool (size, protocol implementation,
	// loss, dedicated sequencer).
	ClusterConfig = cluster.Config
)

// Panda communication platform.
type (
	// Mode selects the Panda implementation: kernel-space, user-space,
	// or kernel-bypass.
	Mode = panda.Mode
	// Dispatch selects the kernel-bypass receive dispatch discipline
	// (poll, interrupt or hybrid); the other implementations ignore it.
	Dispatch = panda.Dispatch
	// Transport is the Panda interface (RPC + totally-ordered groups).
	Transport = panda.Transport
	// RPCContext identifies an in-progress server-side RPC.
	RPCContext = panda.RPCContext
	// RPCHandler is the implicit-receipt request upcall.
	RPCHandler = panda.RPCHandler
	// GroupHandler is the ordered group delivery upcall.
	GroupHandler = panda.GroupHandler
	// NonblockingSender is implemented by transports supporting the §6
	// nonblocking broadcast extension.
	NonblockingSender = panda.NonblockingSender
)

// Orca runtime system.
type (
	// Program is a parallel Orca program (shared objects + runtimes).
	Program = orca.Program
	// Runtime is the per-processor Orca RTS.
	Runtime = orca.Runtime
	// ObjType is an Orca abstract data type.
	ObjType = orca.ObjType
	// OpDef defines one operation of an object type.
	OpDef = orca.OpDef
	// Handle names a declared shared object.
	Handle = orca.Handle
	// State is an object's encapsulated data.
	State = orca.State
	// GuardFunc is an operation guard predicate.
	GuardFunc = orca.GuardFunc
)

// Applications and experiments.
type (
	// App is one of the paper's six parallel applications.
	App = apps.App
	// AppResult is one application run's outcome.
	AppResult = apps.Result
	// Table1Row is one row of the paper's Table 1.
	Table1Row = bench.Table1Row
	// Table2Result holds Table 2's throughputs.
	Table2Result = bench.Table2
	// Table3Entry holds one application's Table 3 results.
	Table3Entry = bench.Table3Entry
	// Decomposition is the §4.2/§4.3 per-operation cost accounting.
	Decomposition = bench.Decomposition
)

// Workload engine: load-dependent behavior beyond the paper's zero-load
// microbenchmarks.
type (
	// WorkloadConfig describes one traffic-generation run (loop
	// discipline, op mix, size distribution, offered load, population).
	WorkloadConfig = workload.Config
	// WorkloadResult is one run's latency percentiles, achieved
	// throughput and occupancies.
	WorkloadResult = workload.Result
	// WorkloadMix is a weighted operation mix over rpc/group/read/write.
	WorkloadMix = workload.Mix
	// Knee is one implementation's bisected saturation point.
	Knee = workload.Knee
)

// Multi-tenant populations and deterministic trace record/replay.
type (
	// WorkloadClass is one client class of a multi-tenant population (op
	// mix, size distribution, arrival process, think time, SLO, load
	// shape).
	WorkloadClass = workload.Class
	// WorkloadClassStats is one class's slice of a run result (latency
	// percentiles, achieved vs. offered, SLO attainment).
	WorkloadClassStats = workload.ClassStats
	// ArrivalSpec is an arrival process with its Gamma/Weibull shape.
	ArrivalSpec = workload.ArrivalSpec
	// LoadShape modulates a class's offered load over time (steady,
	// bursty on/off, diurnal).
	LoadShape = workload.LoadShape
	// Trace is a versioned deterministic recording of one run's operation
	// stream, replayable bit-identically — including into another
	// implementation for paired comparisons.
	Trace = workload.Trace
	// TraceEventSource yields a trace's events incrementally, in recorded
	// order (see OpenTraceStream).
	TraceEventSource = workload.EventSource
)

// Traffic-generation disciplines.
const (
	// OpenLoop issues on a seeded arrival process regardless of
	// completions — the discipline that exposes the saturation knee.
	OpenLoop = workload.OpenLoop
	// ClosedLoop runs a fixed client population with think time.
	ClosedLoop = workload.ClosedLoop
)

// The two Panda implementations compared by the paper, plus the modern
// third column: user-space protocols over a user-mapped NIC queue pair
// (no syscall crossings, zero-copy fragmentation).
const (
	KernelSpace = panda.KernelSpace
	UserSpace   = panda.UserSpace
	Bypass      = panda.Bypass
)

// Kernel-bypass receive dispatch disciplines.
const (
	// DispatchPoll spins on the completion ring (lowest latency, burns a
	// core) — the canonical kernel-bypass configuration and the default.
	DispatchPoll = panda.Poll
	// DispatchInterrupt parks the consumer and pays a wakeup dispatch per
	// doorbell, like the paper's kernel receive path.
	DispatchInterrupt = panda.Interrupt
	// DispatchHybrid polls briefly after traffic, then parks.
	DispatchHybrid = panda.Hybrid
)

// Thread priorities.
const (
	PrioNormal = proc.PrioNormal
	PrioDaemon = proc.PrioDaemon
)

// NewCluster builds a simulated pool: Ethernet segments, one Amoeba
// kernel per processor, and a Panda transport per worker.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// NewProgram creates an Orca program over a cluster's transports.
func NewProgram(c *Cluster) *Program {
	return orca.NewProgram(c.Transports, c.Procs[:len(c.Transports)])
}

// CalibratedModel returns the cost model calibrated against the paper's
// Tables 1 and 2.
func CalibratedModel() *CostModel { return model.Calibrated() }

// Apps returns the six applications at paper (Table 3) scale.
func Apps() []App { return apps.All() }

// AppByName returns an application by its short name (tsp, asp, ab, rl,
// sor, leq), or nil.
func AppByName(name string) App { return apps.ByName(name) }

// RunApp executes one application on a fresh cluster and reports its
// simulated execution time and answer.
func RunApp(app App, cfg ClusterConfig) (AppResult, error) { return apps.RunApp(app, cfg) }

// Table1 regenerates the paper's Table 1 (nil sizes = the paper's 0-4 KB).
// Use workers > 1 to fan the cells out over a bounded goroutine pool;
// results are bit-identical for any worker count.
func Table1(sizes []int, workers int) ([]Table1Row, error) {
	return bench.Table1Sweep(sizes, workers)
}

// Table2 regenerates the paper's Table 2, fanning its cells out over
// workers goroutines (results are worker-count independent).
func Table2(workers int) (Table2Result, error) { return bench.Table2Sweep(workers) }

// Table3 regenerates the paper's Table 3 ("paper" or "quick" scale; nil
// procs = the paper's 1/8/16/32), fanning the app x implementation x
// processor-count cells out over workers goroutines (results are
// worker-count independent).
func Table3(scale string, procs []int, seed uint64, workers int) ([]*Table3Entry, error) {
	return bench.Table3Sweep(bench.Table3Apps(scale), procs, seed, workers)
}

// RunWorkload drives one traffic-generation run on a fresh cluster and
// reports latency percentiles, achieved vs. offered throughput, and
// sequencer/worker occupancy. Deterministic for a fixed seed.
func RunWorkload(cfg WorkloadConfig) (*WorkloadResult, error) { return workload.Run(cfg) }

// FindKnee bisects to the offered load at which cfg's implementation
// saturates under open-loop traffic (completions fall below 90% of
// arrivals), bracketed by [lo, hi] ops/sec with the given probe budget.
func FindKnee(cfg WorkloadConfig, lo, hi float64, probes int) (Knee, error) {
	return workload.FindKnee(cfg, lo, hi, probes)
}

// ParseWorkloadClasses parses a multi-tenant population spec
// ("name:key=val,...;name:...", or "@file.json" for the committed scenario
// format).
func ParseWorkloadClasses(s string) ([]WorkloadClass, error) { return workload.ParseClasses(s) }

// LoadTrace reads a recorded TRACE_*.json operation stream; set it as
// WorkloadConfig.Replay to drive a run from it.
func LoadTrace(path string) (*Trace, error) { return workload.LoadTrace(path) }

// OpenTraceStream parses only a trace's header, returning it plus a
// source factory that streams the events incrementally from disk. Set
// the header as WorkloadConfig.Replay and the factory as
// WorkloadConfig.ReplaySource; the streamed replay is bit-identical to
// the in-memory one but never materializes the event array.
func OpenTraceStream(path string) (*Trace, func() (TraceEventSource, error), error) {
	return workload.OpenTraceStream(path)
}

// ParseDispatch parses a kernel-bypass dispatch mode name ("poll",
// "interrupt", "hybrid"; empty defaults to poll).
func ParseDispatch(s string) (Dispatch, error) { return panda.ParseDispatch(s) }

// SaveTrace writes a recorded trace deterministically (re-recording an
// identical run reproduces identical bytes).
func SaveTrace(path string, t *Trace) error { return workload.SaveTrace(path, t) }
