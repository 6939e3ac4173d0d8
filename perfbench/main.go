// Command perfbench is the repository's end-to-end benchmark. It drives
// one seeded workload through the program's public surfaces — the hcserve
// HTTP API, pkg/hierclust and the exported functions of the internal
// layers — for a fixed time, checks every output against the reference
// evaluator in reference.go, and prints the metrics as one JSON line.
//
// perfbench/run.py builds it and hcserve from the checkout and runs it;
// see README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hierclust/pkg/hierclust"
)

// env is what a workload runs with.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	hcserve string // hcserve binary built from this tree
	work    string // scratch directory inside the checkout
	rng     *rand.Rand
	// props are the realized workload properties, printed before the
	// result line.
	props map[string]any
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	m                 metrics
}

// checkError marks a program output that failed a reference check.
type checkError struct{ err error }

func (c checkError) Error() string { return "check failed: " + c.err.Error() }

func checkFailed(format string, a ...any) error { return checkError{fmt.Errorf(format, a...)} }

type workload struct {
	name string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"serve-mixed", runServeMixed},
	{"sweep-grid", runSweepGrid},
	{"scale-1m", runScale1M},
	{"ft-protocol", runFTProtocol},
}

// endToEnd and perLayer name every metric a run prints, with its unit.
// A workload sets the ones it measures; the rest of the per-layer set
// reads 0, the layer being idle on that workload.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"evaluate_p50_ms", "ms"}, {"op_cpu_ms", "ms"}, {"peak_rss_mb", "MB"},
}

var perLayer = [][2]string{
	{"serve.hit_ms", "ms"}, {"serve.trace_hit_ms", "ms"}, {"serve.miss_ms", "ms"},
	{"serve.hit_ratio", "ratio"}, {"serve.trace_hit_ratio", "ratio"},
	{"serve.sweep_submit_ms", "ms"}, {"serve.sweep_results_ms", "ms"},
	{"hierclust.decode_ms", "ms"}, {"hierclust.plan_ms", "ms"},
	{"hierclust.trace_share_ratio", "ratio"}, {"hierclust.partition_share_ratio", "ratio"},
	{"diskstore.get_ms", "ms"}, {"diskstore.put_ms", "ms"}, {"diskstore.written_mb", "MB"},
	{"tsunami.trace_build_ms", "ms"}, {"tsunami.trace_builds", "count"}, {"simmpi.msgs_per_build", "count"},
	{"tsunami.step_ms", "ms"}, {"topology.place_ms", "ms"},
	{"trace.synthetic_ms", "ms"}, {"trace.node_graph_ms", "ms"}, {"trace.logged_fraction_ms", "ms"}, {"trace.alloc_mb", "MB"},
	{"graph.partition_ms", "ms"}, {"graph.alloc_mb", "MB"},
	{"core.strategy_ms", "ms"}, {"core.hierarchical_self_ms", "ms"}, {"core.validate_ms", "ms"},
	{"core.recovery_fraction_ms", "ms"}, {"core.alloc_mb", "MB"},
	{"reliability.group_build_ms", "ms"}, {"reliability.catastrophe_ms", "ms"}, {"reliability.calls", "count"},
	{"reliability.alloc_mb", "MB"},
	{"checkpoint.checkpoint_ms", "ms"}, {"checkpoint.restore_ms", "ms"}, {"checkpoint.ckpt_mb", "MB"},
	{"erasure.encode_mb_per_s", "MB/s"},
	{"hybrid.recovery_ms", "ms"}, {"hybrid.restarted_ranks", "count"}, {"msglog.logged_mb", "MB"},
	{"tracing.overhead_ratio", "ratio"}, {"tracing.uncovered_ratio", "ratio"}, {"tracing.spans", "count"},
}

func init() {
	for _, l := range tracedLayers {
		perLayer = append(perLayer, [2]string{l + ".self_ms", "ms"}, [2]string{l + ".spans", "count"})
	}
}

func main() {
	name := flag.String("workload", "", "workload: serve-mixed, sweep-grid, scale-1m or ft-protocol")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	hcserve := flag.String("hcserve", "", "path of the hcserve binary")
	work := flag.String("work", "", "scratch directory")
	probe := flag.Bool("probe", false, "run only the workload's in-process set-up and exit (timed by the parent as setup_s)")
	ftOp := flag.String("ft-op", "", "run one ft-protocol operation with these failures (JSON) and print its report")
	flag.Parse()
	if *ftOp != "" {
		if err := ftOperation(*ftOp); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: ft-op:", err)
			os.Exit(2)
		}
		return
	}
	if *probe {
		if err := probeSetup(*name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: probe:", err)
			os.Exit(2)
		}
		return
	}

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *work == "" || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -work and -seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*work, w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1,
		hcserve: *hcserve, work: dir, rng: rand.New(rand.NewSource(*seed)), props: map[string]any{}}

	out, err := w.run(e)
	var ce checkError
	if err != nil && !errors.As(err, &ce) {
		fmt.Fprintln(os.Stderr, "perfbench:", w.name+":", err)
		os.RemoveAll(dir)
		os.Exit(2)
	}
	props, _ := json.Marshal(e.props)
	fmt.Printf("workload %s seed %d: %s\n", w.name, *seed, props)
	if out == nil {
		out = &outcome{m: metrics{}}
	}
	want := endToEnd
	if e.traced {
		want = perLayer
	}
	printed := metrics{}
	for _, nu := range want {
		v, ok := out.m[nu[0]]
		if !ok {
			v = metric{Value: 0, Unit: nu[1]}
		}
		printed[nu[0]] = v
	}
	fmt.Print(printed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", w.name+":", err)
	}
	line, _ := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{err == nil, out.attempted, out.failed, printed})
	fmt.Println(string(line))
	if err != nil {
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	sort.Strings(n)
	return strings.Join(n, ", ")
}

// writeSpans stores a traced run's spans next to the build outputs.
func (e *env) writeSpans(tr *tracer, name string) error {
	return tr.write(filepath.Join(filepath.Dir(e.work), "spans"), fmt.Sprintf("%s-seed%d.jsonl", name, e.seed))
}

// peakRSSMB reads the peak resident set (VmHWM) of a process.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// opMetrics sets the per-operation metrics of a workload whose
// operations are not requests: op_cpu_ms is the median CPU time of an
// operation, and evaluate_p50_ms, a request's latency on serve-mixed,
// reads the same median.
func opMetrics(m metrics, cpuMs []float64) {
	m.set("op_cpu_ms", "ms", median(cpuMs))
	m.set("evaluate_p50_ms", "ms", median(cpuMs))
}

// probeSetup is the set-up of an in-process workload as a fresh process
// does it: program start-up, package initialisation and the decoding of
// the scenario document.
func probeSetup(name string) error {
	if name != "scale-1m" {
		return fmt.Errorf("no probe for workload %q", name)
	}
	_, err := hierclust.DecodeScenario([]byte(scaleDoc))
	hierclust.NewPipeline()
	return err
}

// probeSetupTime starts the benchmark binary in probe mode setupRepeats
// times and returns the median CPU time of a probe process, in seconds.
func probeSetupTime(e *env, name string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	return setupMedian(setupRepeats, func() (time.Duration, error) {
		cmd := exec.Command(self, "-probe", "-workload", name)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return 0, err
		}
		return cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(), nil
	})
}

// A workload's set-up is timed setupRepeats times, setupGap apart, and
// setup_s is the median of the CPU time each set-up used.
const (
	setupRepeats = 31
	setupGap     = 20 * time.Millisecond
)

// setupMedian runs fn n times, setupGap apart; fn returns the CPU time its
// set-up used. It returns the median in seconds.
func setupMedian(n int, fn func() (time.Duration, error)) (float64, error) {
	var v []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			time.Sleep(setupGap)
		}
		cpu, err := fn()
		if err != nil {
			return 0, err
		}
		v = append(v, cpu.Seconds())
	}
	return median(v), nil
}
