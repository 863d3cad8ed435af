package bench

import (
	"strings"
	"testing"
	"time"
)

// TestComparePerfCatchesDrift: the gate flags a changed deterministic
// field and ignores the host-dependent ones, set-up time included.
func TestComparePerfCatchesDrift(t *testing.T) {
	mk := func() *PerfArtifact {
		return &PerfArtifact{
			SchemaVersion: PerfSchemaVersion, Seed: 5,
			Cells: []PerfCell{{
				Name: "perf/32proc", Procs: 32, Segments: 4, WindowMS: 200,
				Ops: 100, Events: 5000, SimNS: 42, Checksum: 7,
				SetupMS: 3, WallMS: 12, EventsPerSec: 1e6,
			}},
		}
	}
	base, cur := mk(), mk()
	cur.Cells[0].SetupMS = 5000
	cur.Cells[0].WallMS = 99
	cur.Cells[0].EventsPerSec = 5e6
	if err := ComparePerf(base, cur, 0); err != nil {
		t.Fatalf("host-dependent fields must not gate: %v", err)
	}
	// The wall budget covers set-up plus run: 5000+99ms fits 6s, not 5s.
	if err := ComparePerf(base, cur, 6*time.Second); err != nil {
		t.Fatalf("set-up plus wall within budget flagged: %v", err)
	}
	err := ComparePerf(base, cur, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "wall-clock") {
		t.Fatalf("set-up time not counted against the wall budget: %v", err)
	}
	cur.Cells[0].Events++
	err = ComparePerf(base, cur, 0)
	if err == nil || !strings.Contains(err.Error(), "events") {
		t.Fatalf("drifted event count not caught: %v", err)
	}
}

// BenchmarkBigRun1000Procs is the macro benchmark: the 1000-processor,
// 128-segment perf cell, reporting simulator
// throughput as scheduler events per second of host time.
func BenchmarkBigRun1000Procs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cell, err := runPerfCell("perf/1000proc-128seg", 1000, 128,
			250*time.Millisecond, PerfConfig{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell.EventsPerSec, "events/sec")
	}
}
