package main

// One repetition of a workload, run in a child process of its own. Every
// layer is timed from outside, around calls to its public functions, and
// a collection is forced before each timed span so that garbage left by
// one phase is not billed to the next.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"amoebasim/internal/cluster"
	"amoebasim/internal/flip"
	amx "amoebasim/internal/metrics"
	"amoebasim/internal/panda"
)

// repResult is what a child process reports to the parent: every value
// it measured, keyed by metric name, plus the outputs the parent checks.
type repResult struct {
	Values    map[string]float64 `json:"values"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	// Answers holds each Orca application run's answer, keyed
	// "<app>/<implementation>", for the parent's oracle check.
	Answers  map[string]int64 `json:"answers,omitempty"`
	Problems []string         `json:"problems,omitempty"`
}

// recorder accumulates the spans and counts of one repetition.
type recorder struct {
	traced bool
	res    repResult
	regs   []*amx.Registry
}

// newRecorder starts a repetition's record. Spans of layers that a
// workload may not exercise start at zero, so a workload without group
// traffic reports, say, kernel-space.run_s as a measured 0.
func newRecorder(traced bool) *recorder {
	r := &recorder{traced: traced, res: repResult{
		Values:  map[string]float64{"flip.warm_routes_s": 0, "asp.run_s": 0, "sor.run_s": 0},
		Answers: make(map[string]int64),
	}}
	for _, m := range panda.AllModes() {
		r.add(m.String()+".run_s", 0)
		r.add(m.String()+".ops", 0)
	}
	if traced {
		for _, name := range layerCounters {
			r.add(name, 0)
		}
	}
	return r
}

// layerCounters are the registry counters a traced repetition reports,
// summed over processors and clusters.
var layerCounters = []string{
	"flip.packets_sent", "flip.extra_fragments", "flip.locates_sent",
	"proc.ctx_switches", "proc.interrupts", "proc.syscalls",
	"ether.frames_sent", "ether.frames_recv", "ether.bytes_sent", "ether.frames_queued",
	"akernel.rpc_calls", "akernel.grp_deliveries",
	"panda.rpc_calls", "panda.acks_piggybacked", "panda.grp_pb_sends", "panda.grp_bb_sends",
	"orca.remote_rpcs", "orca.bcast_writes",
}

func (r *recorder) add(name string, v float64) { r.res.Values[name] += v }

// span forces a collection, then times fn and adds its duration to every
// named metric.
func (r *recorder) span(fn func(), names ...string) {
	runtime.GC()
	start := time.Now()
	fn()
	d := time.Since(start).Seconds()
	for _, n := range names {
		r.add(n, d)
	}
}

// problem records a failed output check; the first few are kept for the
// report on standard error.
func (r *recorder) problem(format string, args ...any) {
	if len(r.res.Problems) < 8 {
		r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
	}
}

// job is one cluster's life within a workload.
type job struct {
	cfg  cluster.Config
	warm bool   // call flip.WarmRoutes after construction
	app  string // application span name ("asp", "sor"), or ""
	// setup installs the workload on a fresh cluster and returns the
	// functions that drive the simulation and check its outputs.
	setup func(c *cluster.Cluster) (run func(), check func() (attempted, failed int64))
}

// runJob builds, sets up, runs, checks and shuts down one cluster.
// setup_s covers everything before the first simulated event.
func (r *recorder) runJob(j job) error {
	j.cfg.Metrics = r.traced
	var c *cluster.Cluster
	var err error
	r.span(func() { c, err = cluster.New(j.cfg) }, "cluster.new_s", "setup_s")
	if err != nil {
		return err
	}
	if r.traced {
		r.regs = append(r.regs, c.Metrics)
	}
	if j.warm {
		stacks := make([]*flip.Stack, len(c.Kernels))
		for i, k := range c.Kernels {
			stacks[i] = k.FLIP()
		}
		r.span(func() { flip.WarmRoutes(stacks) }, "flip.warm_routes_s", "setup_s")
	}
	var run func()
	var check func() (int64, int64)
	r.span(func() { run, check = j.setup(c) }, "apps.setup_s", "setup_s")

	runtime.GC()
	live := readRuntime("/gc/heap/live:bytes")[0] / (1 << 20)
	if live > r.res.Values["runtime.heap_live_mb"] {
		r.res.Values["runtime.heap_live_mb"] = live
	}
	impl := j.cfg.Mode.String()
	names := []string{"run_s", impl + ".run_s"}
	if j.app != "" {
		names = append(names, j.app+".run_s")
	}
	r.span(run, names...)
	r.add("sim.events", float64(c.EventsRun()))
	r.add("sim.final_clock_ns", float64(c.Sim.Now()))

	attempted, failed := check()
	r.res.Attempted += attempted
	r.res.Failed += failed
	r.add(impl+".ops", float64(attempted))
	r.span(c.Shutdown, "cluster.shutdown_s")
	return nil
}

// runtimeCounters are the Go runtime's cumulative counters read before
// and after a repetition, with the metric each difference is reported as.
var runtimeCounters = []struct {
	sample, name string
	scale        float64
}{
	{"/gc/heap/allocs:bytes", "runtime.alloc_mb", 1.0 / (1 << 20)},
	{"/gc/heap/allocs:objects", "runtime.mallocs", 1},
	{"/gc/cycles/total:gc-cycles", "runtime.gc_cycles", 1},
	{"/cpu/classes/gc/total:cpu-seconds", "runtime.gc_cpu_s", 1},
}

// readRuntime reads runtime/metrics series as numbers.
func readRuntime(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, v := range s {
		switch v.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(v.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = v.Value.Float64()
		}
	}
	return out
}

// runRep runs one repetition of workload w. With traced set it attaches
// a metrics registry to every cluster and profiles the CPU, and reports
// the layer counters and sampled self shares as well.
func runRep(w workload, seed uint64, traced bool) (repResult, error) {
	r := newRecorder(traced)
	var profPath string
	if traced {
		// The profile goes beside the executable, in the build directory.
		self, err := os.Executable()
		if err != nil {
			return repResult{}, err
		}
		profPath = filepath.Join(filepath.Dir(self), "trace-"+w.name+".pprof")
		f, err := os.Create(profPath)
		if err != nil {
			return repResult{}, err
		}
		defer os.Remove(profPath)
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return repResult{}, err
		}
	}
	samples := make([]string, len(runtimeCounters))
	for i, c := range runtimeCounters {
		samples[i] = c.sample
	}
	before := readRuntime(samples...)
	start := time.Now()
	err := w.run(r, seed)
	r.add("wall_s", time.Since(start).Seconds())
	after := readRuntime(samples...)
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return repResult{}, err
	}
	for i, c := range runtimeCounters {
		r.add(c.name, (after[i]-before[i])*c.scale)
	}
	if ev := r.res.Values["sim.events"]; ev > 0 {
		r.add("sim.ns_per_event", r.res.Values["run_s"]*1e9/ev)
	}
	if traced {
		for _, reg := range r.regs {
			for _, c := range reg.Snapshot().Counters {
				if _, ok := r.res.Values[c.Name]; ok {
					r.add(c.Name, float64(c.Value))
				}
			}
		}
		shares, samples, err := selfShares(profPath)
		if err != nil {
			return repResult{}, fmt.Errorf("cpu profile: %w", err)
		}
		for layer, s := range shares {
			r.add(layer, s)
		}
		r.add("trace.profile_samples", float64(samples))
	}
	return r.res, nil
}
