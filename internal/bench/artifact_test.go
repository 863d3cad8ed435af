package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// quickSweep is the reduced configuration the artifact tests run: small
// Table 1 sizes and a 2-app, 2-proc-count quick-scale Table 3, so two
// full sweeps stay cheap.
func quickSweep(workers int) SweepConfig {
	apps := Table3Apps("quick")
	return SweepConfig{
		Scale:   "quick",
		Apps:    apps[:2],
		Procs:   []int{1, 4},
		Sizes:   []int{0, 2048},
		Seed:    5,
		Workers: workers,
	}
}

// TestSweepBitIdenticalAcrossWorkers is the engine's core contract:
// -jobs 1 and -jobs N produce byte-identical Table 1/2/3 output for the
// same seed, because every cell owns its whole cluster.
func TestSweepBitIdenticalAcrossWorkers(t *testing.T) {
	render := func(res *SweepResult) string {
		var sb strings.Builder
		PrintTable1(&sb, res.Table1)
		PrintTable2(&sb, res.Table2)
		PrintTable3(&sb, res.Table3)
		return sb.String()
	}
	seq, err := RunSweep(quickSweep(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSweep(quickSweep(4))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := render(seq), render(par); a != b {
		t.Errorf("parallel sweep output differs from sequential:\n--- jobs=1 ---\n%s--- jobs=4 ---\n%s", a, b)
	}
	if !reflect.DeepEqual(seq.Table1, par.Table1) {
		t.Error("Table 1 rows differ across worker counts")
	}
	if seq.Table2 != par.Table2 {
		t.Errorf("Table 2 differs across worker counts: %+v vs %+v", seq.Table2, par.Table2)
	}
	for i := range seq.Table3 {
		if !reflect.DeepEqual(seq.Table3[i], par.Table3[i]) {
			t.Errorf("Table 3 entry %s differs across worker counts", seq.Table3[i].App)
		}
	}
	// And the flattened artifacts must gate cleanly against each other.
	if err := Diff(NewArtifact(seq), NewArtifact(par)); err != nil {
		t.Errorf("artifacts drift across worker counts: %v", err)
	}
}

// TestArtifactSchema asserts the BENCH_*.json layout: required keys,
// one cell per table data point, and a lossless write/load round trip.
func TestArtifactSchema(t *testing.T) {
	cfg := quickSweep(4)
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	art := NewArtifact(res)
	if art.SchemaVersion != ArtifactSchemaVersion {
		t.Errorf("schema version %d, want %d", art.SchemaVersion, ArtifactSchemaVersion)
	}
	if want := len(cfg.Sizes) * 10; len(art.Table1) != want {
		t.Errorf("table1 cells = %d, want %d", len(art.Table1), want)
	}
	if len(art.Table2) != 6 {
		t.Errorf("table2 cells = %d, want 6", len(art.Table2))
	}
	// 2 apps x 3 implementations x 2 processor counts (no LEQ in the
	// reduced list, so no dedicated columns).
	if want := 2 * 3 * 2; len(art.Table3) != want {
		t.Errorf("table3 cells = %d, want %d", len(art.Table3), want)
	}
	if len(art.Wall.PerJob) != len(res.Jobs) {
		t.Errorf("wall per-job entries = %d, want %d", len(art.Wall.PerJob), len(res.Jobs))
	}
	for _, c := range art.Table1 {
		if c.SimNS <= 0 {
			t.Errorf("table1 %d/%s: non-positive sim time %d", c.SizeBytes, c.Column, c.SimNS)
		}
	}

	path, err := WriteJSON(filepath.Join(t.TempDir(), "BENCH_test.json"), "BENCH", art)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"schema_version", "scale", "seed", "table1", "table2", "table3", "wall"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("artifact JSON missing key %q", k)
		}
	}

	var back Artifact
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(art, &back) {
		t.Error("artifact did not round-trip losslessly")
	}
	if err := Diff(json.RawMessage(raw), art); err != nil {
		t.Errorf("self-comparison must be drift-free: %v", err)
	}
}

// TestCommittedBaselineHasNoDrift is the regression gate in test form:
// the committed quick-scale BENCH baseline must exactly match a fresh
// sweep. If a deliberate protocol or cost-model change moved the
// numbers, regenerate the baseline with
// `go run ./cmd/amoebasim -scale quick -bench-json BENCH_baseline.json`.
func TestCommittedBaselineHasNoDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale sweep")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	var base Artifact
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	res, err := RunSweep(SweepConfig{Scale: base.Scale, Seed: base.Seed, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := Diff(json.RawMessage(raw), NewArtifact(res)); err != nil {
		t.Errorf("drift against committed baseline:\n%v", err)
	}
}

// artifactFamily is one small value of an artifact family, for the
// regression gate's contract: fresh builds the value, host perturbs
// every host-measured field, and each drift is a deterministic change
// with the substring its error must hold (the path, usually with values).
type artifactFamily struct {
	fresh  func() any
	host   func(any)
	drifts []artifactDrift
}

type artifactDrift struct {
	edit func(any)
	want string
}

// checkDiff holds Diff to its contract on one family: an artifact passes
// against itself and its own JSON, its host-measured fields never gate,
// and every deterministic change fails with the drifted path named.
func checkDiff(t *testing.T, f artifactFamily) {
	t.Helper()
	if err := Diff(f.fresh(), f.fresh()); err != nil {
		t.Fatalf("artifact drifted against itself: %v", err)
	}
	raw, err := json.Marshal(f.fresh())
	if err != nil {
		t.Fatal(err)
	}
	if err := Diff(json.RawMessage(raw), f.fresh()); err != nil {
		t.Fatalf("artifact drifted against its own JSON: %v", err)
	}
	host := f.fresh()
	f.host(host)
	if err := Diff(f.fresh(), host); err != nil {
		t.Errorf("host-measured fields gated: %v", err)
	}
	if err := Diff(host, f.fresh()); err != nil {
		t.Errorf("host-measured baseline fields gated: %v", err)
	}
	for _, d := range f.drifts {
		cur := f.fresh()
		d.edit(cur)
		err := Diff(f.fresh(), cur)
		if err == nil {
			t.Errorf("drift %q not detected", d.want)
		} else if !strings.Contains(err.Error(), d.want) {
			t.Errorf("drift report missing %q:\n%v", d.want, err)
		}
	}
}

// TestCompareArtifactsDetectsDrift: the gate on a BENCH artifact.
func TestCompareArtifactsDetectsDrift(t *testing.T) {
	checkDiff(t, artifactFamily{
		fresh: func() any {
			return &Artifact{
				SchemaVersion: ArtifactSchemaVersion, GeneratedAt: "2026-01-01T00:00:00Z",
				Scale: "quick", Seed: 5,
				Table1: []Table1Cell{{SizeBytes: 0, Column: "unicast", SimNS: 100}},
				Table2: []Table2Cell{{Op: "rpc", Impl: "user-space", BytesPerSec: 1000}},
				Table3: []Table3Cell{
					{App: "sor", Impl: "user-space", Procs: 1, SimNS: 900, Answer: 7},
					{App: "sor", Impl: "user-space", Procs: 4, SimNS: 200, Answer: 7},
				},
				Wall: WallStats{Workers: 2, TotalMS: 50, JobsPerSec: 4, PerJob: []JobWall{{Name: "t1", WallMS: 3}}},
			}
		},
		host: func(v any) {
			a := v.(*Artifact)
			a.GeneratedAt = "2026-02-02T00:00:00Z"
			a.Wall = WallStats{Workers: 8, TotalMS: 10_000, JobsPerSec: 0.1}
		},
		drifts: []artifactDrift{
			{func(v any) { v.(*Artifact).Table1[0].SimNS = 101 }, "table1[0].sim_ns: 101, baseline 100"},
			{func(v any) { v.(*Artifact).Table3[1].Answer = 8 }, "table3[1].answer: 8, baseline 7"},
			{func(v any) { v.(*Artifact).Seed = 6 }, "seed: 6, baseline 5"},
			{func(v any) { a := v.(*Artifact); a.Table3 = a.Table3[:1] }, "table3: 1 entries, baseline 2"},
			{func(v any) { v.(*Artifact).Table3 = nil }, "table3: null, baseline [2 entries]"},
			{func(v any) { v.(*Artifact).SchemaVersion++ }, "schema_version: 3, baseline 2"},
			// A section the baseline lacks is drift too.
			{func(v any) { v.(*Artifact).Workload = &WorkloadArtifact{} }, "workload: missing from baseline"},
		},
	})
}

// TestCompareWorkloadDetectsDrift: the gate on a WORKLOAD artifact.
func TestCompareWorkloadDetectsDrift(t *testing.T) {
	checkDiff(t, artifactFamily{
		fresh: func() any {
			return &Artifact{
				SchemaVersion: ArtifactSchemaVersion, GeneratedAt: "2026-01-01T00:00:00Z",
				Scale: "workload", Seed: 5,
				Workload: &WorkloadArtifact{
					Version: WorkloadSchemaVersion,
					Loop:    "open", Mix: "group", Dist: "fixed:256",
					Clients: 8, Procs: 4, WindowMS: 400, Seed: 7,
					Points: []WorkloadCell{
						{Impl: "kernel-space", OfferedOps: 400, AchievedOps: 398, Issued: 80, Completed: 80, P50US: 900, P99US: 2100},
						{Impl: "user-space", OfferedOps: 400, AchievedOps: 395, Issued: 80, Completed: 79, P50US: 1400, P99US: 3300,
							Fairness: 1, PerClass: []WorkloadClassCell{{Name: "a", Clients: 8, AchievedOps: 395, Issued: 80, Completed: 79}}},
					},
					Knees: []WorkloadKneeCell{
						{Impl: "kernel-space", OpsPerSec: 1650, Unsustained: 1700, Probes: 8},
						{Impl: "user-space", OpsPerSec: 1112, Unsustained: 1150, Probes: 8},
					},
				},
			}
		},
		host: func(v any) {
			a := v.(*Artifact)
			a.GeneratedAt = "2026-02-02T00:00:00Z"
			a.Wall.TotalMS = 10_000
		},
		drifts: []artifactDrift{
			{func(v any) { v.(*Artifact).Workload.Points[1].P99US = 3400 }, "workload.points[1].p99_us: 3400, baseline 3300"},
			{func(v any) { v.(*Artifact).Workload.Points[1].PerClass[0].Completed = 78 }, "workload.points[1].per_class[0].completed: 78, baseline 79"},
			{func(v any) { v.(*Artifact).Workload.Knees[0].OpsPerSec = 1600 }, "workload.knees[0].ops_per_sec: 1600, baseline 1650"},
			{func(v any) { v.(*Artifact).Workload.Mix = "rpc" }, `workload.mix: "rpc", baseline "group"`},
			{func(v any) { w := v.(*Artifact).Workload; w.Points = w.Points[1:] }, "workload.points: 1 entries, baseline 2"},
			{func(v any) { v.(*Artifact).Workload.Version++ }, "workload.version: 3, baseline 2"},
			{func(v any) { v.(*Artifact).SchemaVersion++ }, "schema_version: 3, baseline 2"},
			{func(v any) { v.(*Artifact).Workload = nil }, "workload: missing from current run"},
		},
	})
}

// TestScalabilityCompareDetectsDrift: the gate on a SCALE artifact.
func TestScalabilityCompareDetectsDrift(t *testing.T) {
	checkDiff(t, artifactFamily{
		fresh: func() any {
			return &ScalabilityArtifact{
				SchemaVersion: ScalabilitySchemaVersion, GeneratedAt: "2026-01-01T00:00:00Z",
				Seed: 5, Mix: "group", Dist: "fixed:256", WindowMS: 200, SwitchFanIn: 8,
				Cells: []ScalabilityCell{
					{Strategy: "single", Procs: 16, Shards: 1, Segments: 2, KneeOps: 1000, Unsustained: 1100, Probes: 7, Bracketed: true},
					{Strategy: "sharded", Procs: 16, Shards: 8, Segments: 2, KneeOps: 1500, Unsustained: 1600, Probes: 7, Bracketed: true},
				},
				Wall: WallStats{Workers: 2, TotalMS: 80},
			}
		},
		host: func(v any) {
			a := v.(*ScalabilityArtifact)
			a.GeneratedAt = "2026-02-02T00:00:00Z"
			a.Wall = WallStats{Workers: 4, TotalMS: 9000, PerJob: []JobWall{{Name: "x", WallMS: 1}}}
		},
		drifts: []artifactDrift{
			{func(v any) { v.(*ScalabilityArtifact).Cells[1].KneeOps = 1450 }, "cells[1].knee_ops_per_sec: 1450, baseline 1500"},
			{func(v any) { a := v.(*ScalabilityArtifact); a.Cells = a.Cells[:1] }, "cells: 1 entries, baseline 2"},
			{func(v any) { v.(*ScalabilityArtifact).Seed = 6 }, "seed: 6, baseline 5"},
			{func(v any) { v.(*ScalabilityArtifact).SchemaVersion++ }, "schema_version: 2, baseline 1"},
		},
	})
}

// TestComparePerfCatchesDrift: the gate on a PERF artifact.
func TestComparePerfCatchesDrift(t *testing.T) {
	checkDiff(t, artifactFamily{
		fresh: func() any {
			return &PerfArtifact{
				SchemaVersion: PerfSchemaVersion, GeneratedAt: "2026-01-01T00:00:00Z", Seed: 5,
				Cells: []PerfCell{
					{Name: "perf/32proc", Procs: 32, Segments: 4, WindowMS: 200,
						Ops: 100, Events: 5000, SimNS: 42, Checksum: 7,
						SetupMS: 3, WallMS: 12, EventsPerSec: 1e6},
					// A checksum above 2^53: a float64 diff would miss ±1.
					{Name: "perf/1000proc-128seg", Procs: 1000, Segments: 128, WindowMS: 250,
						Ops: 9000, Events: 800000, SimNS: 250000000, Checksum: 14926440533338159846,
						SetupMS: 300, WallMS: 900, EventsPerSec: 9e5},
				},
			}
		},
		host: func(v any) {
			a := v.(*PerfArtifact)
			a.GeneratedAt = "2026-02-02T00:00:00Z"
			for i := range a.Cells {
				a.Cells[i].SetupMS, a.Cells[i].WallMS, a.Cells[i].EventsPerSec = 5000, 99, 5e6
			}
		},
		drifts: []artifactDrift{
			{func(v any) { v.(*PerfArtifact).Cells[1].Checksum++ }, "cells[1].checksum: 14926440533338159847, baseline 14926440533338159846"},
			{func(v any) { v.(*PerfArtifact).Cells[0].Events++ }, "cells[0].events: 5001, baseline 5000"},
			{func(v any) { a := v.(*PerfArtifact); a.Cells = a.Cells[1:] }, "cells: 1 entries, baseline 2"},
			{func(v any) { v.(*PerfArtifact).SchemaVersion++ }, "schema_version: 2, baseline 1"},
		},
	})
}
