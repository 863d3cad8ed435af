package causal_test

import (
	"encoding/json"
	"strings"
	"testing"

	"amoebasim/internal/bench"
	"amoebasim/internal/causal"
)

// TestArtifactCompare: the zero-drift gate (bench.Diff) on a DECOMP
// artifact passes it against itself and its own JSON, ignores the
// informational GeneratedAt stamp, and names the path of every cell,
// workload-point and schema change.
func TestArtifactCompare(t *testing.T) {
	mk := func() *causal.Artifact {
		return &causal.Artifact{
			SchemaVersion: causal.SchemaVersion, GeneratedAt: "2026-01-01T00:00:00Z",
			Seed: 1, Rounds: 50, Procs: 2,
			Cells: []causal.Cell{
				{Impl: "kernel-space", Op: "rpc", Ops: 50, TotalNS: 1000, Phases: causal.PhasesNS{WireNS: 1000}},
				{Impl: "user-space", Op: "rpc", Ops: 50, TotalNS: 1500, Phases: causal.PhasesNS{WireNS: 1000, CrossingNS: 500}},
			},
			Workload: []causal.LoadCell{{Impl: "user-space", OfferedOps: 400, Op: "group",
				Ops: 10, TotalNS: 500, Phases: causal.PhasesNS{SeqServiceNS: 500}}},
		}
	}
	if err := bench.Diff(mk(), mk()); err != nil {
		t.Fatalf("identical artifacts drifted: %v", err)
	}
	raw, err := json.Marshal(mk())
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.Diff(json.RawMessage(raw), mk()); err != nil {
		t.Fatalf("artifact drifted against its own JSON: %v", err)
	}
	stamped := mk()
	stamped.GeneratedAt = "2026-02-02T00:00:00Z"
	if err := bench.Diff(mk(), stamped); err != nil {
		t.Errorf("generated_at gated: %v", err)
	}
	drifts := []struct {
		edit func(*causal.Artifact)
		want string
	}{
		{func(a *causal.Artifact) { a.Cells[0].TotalNS++ }, "cells[0].total_ns: 1001, baseline 1000"},
		{func(a *causal.Artifact) { a.Workload[0].Phases.SeqServiceNS-- }, "workload[0].phases.seq_service_ns: 499, baseline 500"},
		{func(a *causal.Artifact) { a.Cells = a.Cells[:1] }, "cells: 1 entries, baseline 2"},
		{func(a *causal.Artifact) { a.Cells[1].Phases.DoorbellNS = 3 }, "cells[1].phases.doorbell_ns: missing from baseline"},
		{func(a *causal.Artifact) { a.SchemaVersion++ }, "schema_version: 3, baseline 2"},
	}
	for _, d := range drifts {
		cur := mk()
		d.edit(cur)
		err := bench.Diff(mk(), cur)
		if err == nil {
			t.Errorf("drift %q not detected", d.want)
		} else if !strings.Contains(err.Error(), d.want) {
			t.Errorf("drift report missing %q:\n%v", d.want, err)
		}
	}
}
