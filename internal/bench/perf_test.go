package bench

import (
	"testing"
	"time"
)

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
