// Command perfbench is the repository's host-performance benchmark. It
// runs one named workload of the simulator repeatedly for a fixed time,
// each repetition in a child process of its own, checks every output,
// and prints the medians of the end-to-end metrics (or, with --trace 1,
// of the per-layer metrics plus one traced repetition) as the last line
// of standard output. BENCHMARK.json at the repository root names the
// metrics and units; README.md says why each workload exists.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload rpc-512p --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Repetition limits: at least minReps untraced repetitions are measured
// even if they outlast --seconds, but none is started once maxElapsed has
// passed, which keeps a run inside its time limit.
const (
	minReps    = 3
	maxElapsed = 120 * time.Second
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: rpc-512p, group-256p or orca-32p")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 20, "how long to keep starting repetitions")
	trace := flag.Int("trace", 0, "1: report per-layer metrics and run one traced repetition")
	rep := flag.Bool("rep", false, "run one repetition in this process and print its raw result")
	traced := flag.Bool("traced", false, "with -rep: attach metrics and profile the CPU")
	flag.Parse()

	w, ok := workloadByName(*workloadName)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			*workloadName, *seconds, *trace)
		os.Exit(2)
	}
	if *rep {
		res, err := runRep(w, *seed, *traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			os.Exit(1)
		}
		return
	}
	if err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
}

// spec is the part of BENCHMARK.json this program reads.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench runs repetitions of w for the given time, checks them, and prints
// the result line.
func bench(w workload, seed uint64, measure time.Duration, trace bool) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var oracle map[string]int64
	if w.name == "orca-32p" {
		if oracle, err = oracleAnswers(seed); err != nil {
			return err
		}
	}

	out := result{Metrics: make(map[string]metricValue)}
	check := func(r repResult) {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for key, got := range r.Answers {
			app, _, _ := strings.Cut(key, "/")
			if want := oracle[app]; got != want {
				out.Failed++
				r.Problems = append(r.Problems, fmt.Sprintf("%s answer %d, oracle %d", key, got, want))
			}
		}
		for _, p := range r.Problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, p)
		}
	}

	var reps []repResult
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < measure {
		if len(reps) > 0 && time.Since(start) > maxElapsed {
			break
		}
		r, err := child(w, seed, false)
		if err != nil {
			return err
		}
		check(r)
		reps = append(reps, r)
		fmt.Fprintf(os.Stderr, "perfbench: %s rep %d: wall %.3fs setup %.3fs run %.3fs cpu %.3fs rss %.0fMB\n",
			w.name, len(reps), r.Values["wall_s"], r.Values["setup_s"], r.Values["run_s"],
			r.Values["cpu_s"], r.Values["peak_rss_mb"])
	}
	medians := make(map[string]float64)
	for name := range reps[0].Values {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = r.Values[name]
		}
		medians[name] = median(vals)
	}

	want := sp.EndToEnd
	if trace {
		want = sp.PerLayer
		tr, err := child(w, seed, true)
		if err != nil {
			return err
		}
		check(tr)
		for name, v := range tr.Values {
			if _, ok := medians[name]; !ok {
				medians[name] = v
			}
		}
		medians["trace.overhead_s"] = tr.Values["run_s"] - medians["run_s"]
	}
	for _, m := range want {
		v, ok := medians[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// child runs one repetition in a child process and adds the process's
// CPU time and peak resident set to its result.
func child(w workload, seed uint64, traced bool) (repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	args := []string{"-rep", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.Output()
	if err != nil {
		return repResult{}, fmt.Errorf("repetition: %w", err)
	}
	var r repResult
	if err := json.Unmarshal(stdout, &r); err != nil {
		return repResult{}, fmt.Errorf("repetition output: %w", err)
	}
	ps := cmd.ProcessState
	r.Values["cpu_s"] = (ps.UserTime() + ps.SystemTime()).Seconds()
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return repResult{}, errors.New("no resource usage for repetition")
	}
	r.Values["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return r, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
