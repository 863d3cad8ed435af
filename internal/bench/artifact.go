package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"amoebasim/internal/workload"
)

// ArtifactSchemaVersion identifies the BENCH_*.json layout. Bump it when
// a field changes meaning; Diff reports a version change as drift, so
// the baseline must be regenerated. v2 added the kernel-bypass
// implementation column to every table.
const ArtifactSchemaVersion = 2

// Artifact is the machine-readable benchmark baseline (BENCH_*.json):
// every Table 1-3 cell in simulated time, plus the host's wall-clock
// accounting. The table cells are a pure function of (scale, seed,
// sizes, procs) — the simulation is deterministic — so Diff gates them
// with zero drift tolerance. The Wall section is host-dependent and
// informational; it is never diffed.
type Artifact struct {
	SchemaVersion int          `json:"schema_version"`
	GeneratedAt   string       `json:"generated_at,omitempty"` // RFC 3339, informational
	Scale         string       `json:"scale"`
	Seed          uint64       `json:"seed"`
	Table1        []Table1Cell `json:"table1"`
	Table2        []Table2Cell `json:"table2"`
	Table3        []Table3Cell `json:"table3"`
	// Workload is the latency-vs-offered-load section of a WORKLOAD_*.json
	// artifact, carrying its own version so it can evolve independently.
	// It is omitted when nil, as in every BENCH artifact.
	Workload *WorkloadArtifact `json:"workload,omitempty"`
	Wall     WallStats         `json:"wall"`
}

// Table1Cell is one latency cell of Table 1.
type Table1Cell struct {
	SizeBytes int    `json:"size_bytes"`
	Column    string `json:"column"` // unicast, multicast, rpc-user, ...
	SimNS     int64  `json:"sim_ns"`
}

// Table2Cell is one throughput cell of Table 2.
type Table2Cell struct {
	Op          string  `json:"op"`   // rpc or group
	Impl        string  `json:"impl"` // user-space or kernel-space
	BytesPerSec float64 `json:"bytes_per_sec"`
}

// Table3Cell is one application execution-time cell of Table 3, with
// the application's deterministic answer.
type Table3Cell struct {
	App    string `json:"app"`
	Impl   string `json:"impl"`
	Procs  int    `json:"procs"`
	SimNS  int64  `json:"sim_ns"`
	Answer int64  `json:"answer"`
}

// WorkloadSchemaVersion identifies the layout of the workload section.
// v2 added the multi-tenant fields: the resolved class spec on the
// section, per-class cells and the fairness index on every point. Diff
// reports a version change as drift.
const WorkloadSchemaVersion = 2

// WorkloadArtifact is the machine-readable form of a workload sweep: the
// shape that was driven, one cell per (implementation, offered load), and
// the bisected saturation point per implementation. Every field except
// the wall accounting is a pure function of the configuration and seed.
type WorkloadArtifact struct {
	Version  int     `json:"version"`
	Loop     string  `json:"loop"`
	Mix      string  `json:"mix"`
	Dist     string  `json:"dist"`
	Clients  int     `json:"clients"`
	Procs    int     `json:"procs"`
	WindowMS float64 `json:"window_ms"`
	Seed     uint64  `json:"seed"`
	// Classes is the canonical resolved multi-tenant population spec
	// (empty for a legacy single-population sweep).
	Classes string `json:"classes,omitempty"`
	// Replayed marks a sweep driven from a recorded trace: every point
	// saw the identical arrival stream.
	Replayed bool               `json:"replayed,omitempty"`
	Points   []WorkloadCell     `json:"points"`
	Knees    []WorkloadKneeCell `json:"knees,omitempty"`
}

// WorkloadCell is one point of a latency-vs-offered-load curve.
type WorkloadCell struct {
	Impl        string  `json:"impl"`
	OfferedOps  float64 `json:"offered_ops_per_sec"`
	AchievedOps float64 `json:"achieved_ops_per_sec"`
	Issued      int64   `json:"issued"`
	Completed   int64   `json:"completed"`
	P50US       int64   `json:"p50_us"`
	P90US       int64   `json:"p90_us"`
	P99US       int64   `json:"p99_us"`
	P999US      int64   `json:"p999_us"`
	MaxUS       int64   `json:"max_us"`
	SeqOccPct   float64 `json:"seq_occ_pct"`
	Saturated   bool    `json:"saturated"`
	// Fairness is Jain's index over per-class achieved/offered ratios (v2).
	Fairness float64 `json:"fairness,omitempty"`
	// PerClass breaks the point down by client class (v2).
	PerClass []WorkloadClassCell `json:"per_class,omitempty"`
}

// WorkloadClassCell is one client class's slice of a curve point.
type WorkloadClassCell struct {
	Name         string  `json:"name"`
	Clients      int     `json:"clients"`
	OfferedOps   float64 `json:"offered_ops_per_sec,omitempty"`
	AchievedOps  float64 `json:"achieved_ops_per_sec"`
	Issued       int64   `json:"issued"`
	Completed    int64   `json:"completed"`
	P50US        int64   `json:"p50_us"`
	P99US        int64   `json:"p99_us"`
	P999US       int64   `json:"p999_us"`
	MaxUS        int64   `json:"max_us"`
	SLOUS        int64   `json:"slo_us,omitempty"`
	SLOMet       int64   `json:"slo_met"`
	SLOAttainPct float64 `json:"slo_attain_pct"`
}

// WorkloadKneeCell is one implementation's bisected saturation point.
type WorkloadKneeCell struct {
	Impl        string  `json:"impl"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	Unsustained float64 `json:"unsustained_ops_per_sec"`
	Probes      int     `json:"probes"`
	// Bracketed distinguishes a real knee from "the doubling phase never
	// found a saturated ceiling" (there OpsPerSec is only a lower bound).
	Bracketed bool `json:"bracketed"`
}

// NewWorkloadArtifact flattens a workload sweep into the artifact section.
func NewWorkloadArtifact(res *WorkloadSweepResult) *WorkloadArtifact {
	wa := &WorkloadArtifact{Version: WorkloadSchemaVersion}
	for _, p := range res.Points {
		r := p.Result
		if r == nil {
			continue
		}
		if len(wa.Points) == 0 {
			cfg := r.Config // fully defaulted by workload.Run
			wa.Loop = cfg.Loop.String()
			wa.Mix = cfg.Mix.String()
			wa.Dist = cfg.Sizes.String()
			wa.Clients = cfg.Clients
			wa.Procs = cfg.Procs
			wa.WindowMS = msFloat(cfg.Window)
			wa.Seed = res.Config.Base.Seed
			if len(cfg.Classes) > 0 {
				wa.Classes = workload.ClassesString(cfg.ResolvedClasses())
			}
			wa.Replayed = res.Config.Replay != nil
		}
		o := r.Overall
		cell := WorkloadCell{
			Impl:        p.ModeLabel,
			OfferedOps:  p.Load,
			AchievedOps: r.Achieved,
			Issued:      r.Issued,
			Completed:   r.Completed,
			P50US:       int64(o.P50 / time.Microsecond),
			P90US:       int64(o.P90 / time.Microsecond),
			P99US:       int64(o.P99 / time.Microsecond),
			P999US:      int64(o.P999 / time.Microsecond),
			MaxUS:       int64(o.Max / time.Microsecond),
			SeqOccPct:   100 * r.SeqOccupancy,
			Saturated:   r.Saturated(),
			Fairness:    r.Fairness,
		}
		for _, cs := range r.PerClass {
			cell.PerClass = append(cell.PerClass, WorkloadClassCell{
				Name:         cs.Name,
				Clients:      cs.Clients,
				OfferedOps:   cs.Offered,
				AchievedOps:  cs.Achieved,
				Issued:       cs.Issued,
				Completed:    cs.Completed,
				P50US:        int64(cs.Latency.P50 / time.Microsecond),
				P99US:        int64(cs.Latency.P99 / time.Microsecond),
				P999US:       int64(cs.Latency.P999 / time.Microsecond),
				MaxUS:        int64(cs.Latency.Max / time.Microsecond),
				SLOUS:        int64(cs.SLO / time.Microsecond),
				SLOMet:       cs.SLOMet,
				SLOAttainPct: 100 * cs.SLOAttainment,
			})
		}
		wa.Points = append(wa.Points, cell)
	}
	for _, k := range res.Knees {
		wa.Knees = append(wa.Knees, WorkloadKneeCell{
			Impl: k.ModeLabel, OpsPerSec: k.OpsPerSec,
			Unsustained: k.Unsustained, Probes: k.Probes,
			Bracketed: k.Bracketed,
		})
	}
	return wa
}

// WallStats is the host-side cost of the sweep: total wall-clock,
// throughput in jobs per second, and the per-job breakdown in
// deterministic job order.
type WallStats struct {
	Workers    int       `json:"workers"`
	TotalMS    float64   `json:"total_ms"`
	JobsPerSec float64   `json:"jobs_per_sec"`
	PerJob     []JobWall `json:"per_job"`
}

// JobWall is one job's host wall-clock cost.
type JobWall struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
}

func msFloat(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// NewArtifact flattens a sweep into the baseline layout. GeneratedAt is
// stamped with the current UTC time.
func NewArtifact(res *SweepResult) *Artifact {
	a := &Artifact{
		SchemaVersion: ArtifactSchemaVersion,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		Scale:         res.Config.Scale,
		Seed:          res.Config.Seed,
	}
	for _, r := range res.Table1 {
		cell := func(col string, d time.Duration) Table1Cell {
			return Table1Cell{SizeBytes: r.Size, Column: col, SimNS: int64(d)}
		}
		a.Table1 = append(a.Table1,
			cell("unicast", r.Unicast),
			cell("multicast", r.Multicast),
			cell("unicast-bypass", r.UnicastBypass),
			cell("multicast-bypass", r.MulticastBypass),
			cell("rpc-user", r.RPCUser),
			cell("rpc-kernel", r.RPCKernel),
			cell("rpc-bypass", r.RPCBypass),
			cell("group-user", r.GroupUser),
			cell("group-kernel", r.GroupKernel),
			cell("group-bypass", r.GroupBypass),
		)
	}
	a.Table2 = []Table2Cell{
		{Op: "rpc", Impl: "user-space", BytesPerSec: res.Table2.RPCUser},
		{Op: "rpc", Impl: "kernel-space", BytesPerSec: res.Table2.RPCKernel},
		{Op: "rpc", Impl: "bypass", BytesPerSec: res.Table2.RPCBypass},
		{Op: "group", Impl: "user-space", BytesPerSec: res.Table2.GroupUser},
		{Op: "group", Impl: "kernel-space", BytesPerSec: res.Table2.GroupKernel},
		{Op: "group", Impl: "bypass", BytesPerSec: res.Table2.GroupBypass},
	}
	for ei, e := range res.Table3 {
		for _, impl := range table3Impls(res.Config.Apps[ei]) {
			for pi, p := range e.Procs {
				run := e.Runs[impl.label][pi]
				a.Table3 = append(a.Table3, Table3Cell{
					App:    e.App,
					Impl:   impl.label,
					Procs:  p,
					SimNS:  int64(run.Elapsed),
					Answer: run.Answer,
				})
			}
		}
	}
	workers := res.Config.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	a.Wall = WallStats{
		Workers: workers,
		TotalMS: msFloat(res.Wall),
	}
	if res.Wall > 0 {
		a.Wall.JobsPerSec = float64(len(res.Jobs)) / res.Wall.Seconds()
	}
	for _, j := range res.Jobs {
		a.Wall.PerJob = append(a.Wall.PerJob, JobWall{Name: j.Name, WallMS: msFloat(j.Wall)})
	}
	return a
}

// hostKeys are the host-measured fields the artifact families carry
// beside their simulated results: wall-clock stamps and timings. Diff
// skips them at any depth; everything else is a pure function of the
// configuration and seed.
var hostKeys = map[string]bool{
	"generated_at":   true,
	"wall":           true,
	"setup_ms":       true,
	"wall_ms":        true,
	"events_per_sec": true,
}

// WriteJSON writes v to path as indented JSON with a trailing newline
// and returns the path written. "auto" names the file
// <prefix>_<YYYY-MM-DD>.json (UTC date).
func WriteJSON(path, prefix string, v any) (string, error) {
	if path == "auto" {
		path = prefix + "_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o666)
}

// Diff is the regression gate shared by every artifact family: it
// compares the JSON forms of baseline and current leaf by leaf, with
// zero drift tolerance (the simulation is deterministic, so any
// difference is a behavior change, not noise). Only hostKeys are
// skipped. Numbers are compared as JSON text, so 64-bit checksums above
// 2^53 are exact. Either side may be a json.RawMessage. The returned
// error names every drifted path, e.g. "cells[1].checksum".
func Diff(baseline, current any) error {
	base, err := decodeJSON(baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	cur, err := decodeJSON(current)
	if err != nil {
		return fmt.Errorf("current run: %w", err)
	}
	var drifts []string
	diffJSON("", base, cur, func(path, format string, args ...any) {
		if path == "" {
			path = "(top level)"
		}
		drifts = append(drifts, path+": "+fmt.Sprintf(format, args...))
	})
	if len(drifts) > 0 {
		return fmt.Errorf("baseline drift (%d):\n  %s", len(drifts), strings.Join(drifts, "\n  "))
	}
	return nil
}

// decodeJSON round-trips v through its JSON form, keeping numbers as
// their literal text.
func decodeJSON(v any) (any, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var out any
	if err := dec.Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// diffJSON walks two decoded JSON trees in step and reports each
// difference under its path.
func diffJSON(path string, base, cur any, drift func(path, format string, args ...any)) {
	if b, ok := base.(map[string]any); ok {
		if c, ok := cur.(map[string]any); ok {
			keys := make([]string, 0, len(b)+len(c))
			for k := range b {
				keys = append(keys, k)
			}
			for k := range c {
				if _, ok := b[k]; !ok {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				if hostKeys[k] {
					continue
				}
				p := k
				if path != "" {
					p = path + "." + k
				}
				bv, inBase := b[k]
				cv, inCur := c[k]
				switch {
				case !inBase:
					drift(p, "missing from baseline")
				case !inCur:
					drift(p, "missing from current run")
				default:
					diffJSON(p, bv, cv, drift)
				}
			}
			return
		}
	}
	if b, ok := base.([]any); ok {
		if c, ok := cur.([]any); ok {
			if len(b) != len(c) {
				drift(path, "%d entries, baseline %d", len(c), len(b))
			}
			for i := 0; i < len(b) && i < len(c); i++ {
				diffJSON(fmt.Sprintf("%s[%d]", path, i), b[i], c[i], drift)
			}
			return
		}
	}
	if b, c := leafText(base), leafText(cur); b != c {
		drift(path, "%s, baseline %s", c, b)
	}
}

// leafText renders a decoded JSON value for a drift report; objects and
// arrays are summarized, not printed.
func leafText(v any) string {
	switch v := v.(type) {
	case map[string]any:
		return "{object}"
	case []any:
		return fmt.Sprintf("[%d entries]", len(v))
	}
	b, _ := json.Marshal(v)
	return string(b)
}
