package main

// Attribution of a CPU profile to the simulator's layers. The profile is
// written to a file and read back with `go tool pprof -traces`, which
// prints each sample's count and its stack from leaf to root.
//
// Each sample is charged, scanning its stack from the leaf, to the first
// of: Go's garbage collector (runtime.gc_share), goroutine park/resume
// and channel handoff (runtime.sched_share), or the innermost
// amoebasim/internal/<pkg> frame (<pkg>.self_share). Runtime helpers
// such as map or allocation calls are thus billed to the layer that made
// them. Samples matching none go to other.self_share.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// sharedLayers are the internal packages whose share is reported.
var sharedLayers = []string{
	"sim", "proc", "ether", "flip", "akernel", "panda", "bypass", "orca", "apps", "cluster",
}

// schedFuncs are the runtime functions of goroutine handoff: the channel
// operations a simulated thread switch makes and the scheduler they enter.
var schedFuncs = map[string]bool{
	"runtime.chansend": true, "runtime.chansend1": true,
	"runtime.chanrecv": true, "runtime.chanrecv1": true, "runtime.chanrecv2": true,
	"runtime.selectgo": true, "runtime.gopark": true, "runtime.goready": true,
	"runtime.ready": true, "runtime.mcall": true, "runtime.park_m": true,
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.wakep": true,
	"runtime.startm": true, "runtime.stopm": true, "runtime.notesleep": true,
	"runtime.notewakeup": true, "runtime.goexit0": true, "runtime.newproc": true,
}

// isGC reports whether a runtime function is collector work: background
// marking, mark assists, write-barrier flushes, sweeping and scavenging.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.markroot") ||
		strings.HasPrefix(fn, "runtime.scanobject") || strings.HasPrefix(fn, "runtime.wbBuf") ||
		strings.HasPrefix(fn, "runtime.bgsweep") || strings.HasPrefix(fn, "runtime.sweepone") ||
		strings.HasPrefix(fn, "runtime.bgscavenge") || fn == "runtime.GC"
}

// classify names the share a stack (leaf first) is charged to.
func classify(stack []string) string {
	const internal = "amoebasim/internal/"
	for _, fn := range stack {
		switch {
		case isGC(fn):
			return "runtime.gc_share"
		case schedFuncs[fn]:
			return "runtime.sched_share"
		case strings.HasPrefix(fn, internal):
			pkg := fn[len(internal):]
			if i := strings.IndexAny(pkg, "./"); i > 0 {
				pkg = pkg[:i]
			}
			for _, l := range sharedLayers {
				if pkg == l {
					return pkg + ".self_share"
				}
			}
			return "other.self_share"
		}
	}
	return "other.self_share"
}

// selfShares reads the CPU profile at path and returns each share's
// fraction of all samples, with every reported share present, and the
// sample count.
func selfShares(path string) (map[string]float64, int64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{"runtime.gc_share": 0, "runtime.sched_share": 0, "other.self_share": 0}
	for _, l := range sharedLayers {
		shares[l+".self_share"] = 0
	}
	var total, count int64
	var stack []string
	flush := func() {
		if count > 0 {
			shares[classify(stack)] += float64(count)
			total += count
		}
		count, stack = 0, stack[:0]
	}
	// The output is a header, then one block per distinct stack between
	// separator lines. A block's first line is the sample count and the
	// leaf function; each further line is one caller.
	sc := bufio.NewScanner(bytes.NewReader(out))
	inBlocks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlocks = true
			continue
		}
		f := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if !inBlocks || len(f) == 0 {
			continue
		}
		if len(stack) == 0 {
			n, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil || len(f) < 2 {
				return nil, 0, fmt.Errorf("go tool pprof: unexpected line %q", line)
			}
			count, f = n, f[1:]
		}
		stack = append(stack, f[0])
	}
	flush()
	if total == 0 {
		return nil, 0, errors.New("no samples")
	}
	for k := range shares {
		shares[k] /= float64(total)
	}
	return shares, total, nil
}
