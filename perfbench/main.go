// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload in-process against the public entry points of
// internal/experiment and internal/serve, checks the outputs, and prints
// one JSON result line:
//
//	perfbench --workload repro|sim|serve-cold|serve-hot --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones listed in the
// repository's BENCHMARK.json; with --trace 1 the workload runs an
// untraced and a traced phase of half the length each, and the metrics
// are the per-layer ones. See
// METRICS.md beside this file for what each metric measures and which
// layer moves it. Run it through run.sh, which builds it from the
// checkout's sources.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// nproc bounds every worker pool, compute slot count and client count.
var nproc = runtime.NumCPU()

// setupProbes is how many child processes measure set-up time; the
// reported setup_s is their median.
const setupProbes = 9

// runner is a workload after set-up: measure runs one timed phase of
// about d and reports it. A nil tracer is the untraced phase.
type runner interface {
	measure(d time.Duration, tr *tracer) (*phase, error)
}

// phase is the outcome of one timed phase.
type phase struct {
	// opP50 is the median latency of the phase's operations, in seconds:
	// a scenario pass for the batch workloads, a request for the serve
	// workloads.
	opP50 float64
	// rssMB is the peak resident set of the timed part of the phase.
	rssMB             float64
	attempted, failed int64
	// problems lists output-check failures; any makes the run incorrect.
	problems []string
	// figures holds workload numbers under their own names (wall_s,
	// hot_rps, ...); layers holds the traced phase's per-layer numbers.
	figures map[string]float64
	layers  map[string]float64
	// cost is the figure trace.overhead compares between the untraced
	// and the traced phase (higher is slower).
	cost float64
	// claims are statistical results reported as values, never gated.
	claims []string
}

func (p *phase) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its set-up. phases is how many
// timed phases the run will measure, so inputs for all of them are
// generated before any is timed.
var workloads = map[string]func(seed int64, d time.Duration, phases int) (runner, error){
	"repro":      setupRepro,
	"sim":        setupSim,
	"serve-cold": setupCold,
	"serve-hot":  setupHot,
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
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

func main() {
	workload := flag.String("workload", "", "workload to run: repro, sim, serve-cold or serve-hot")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long the run measures, in seconds")
	trace := flag.Int("trace", 0, "1 splits the run into an untraced and a traced phase and reports per-layer metrics")
	probe := flag.Bool("setup-probe", false, "set the workload up and exit (used to time set-up in a fresh process)")
	flag.Parse()

	setup, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (repro, sim, serve-cold, serve-hot), --seconds ≥ 1 and --trace 0|1\n")
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	if *probe {
		if _, err := setup(*seed, d, 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(*workload, setup, *seed, d, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(name string, setup func(int64, time.Duration, int) (runner, error), seed int64, d time.Duration, traced bool) (*result, error) {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	phases := 1
	if traced {
		phases, d = 2, d/2
	}
	var setupS float64
	if !traced {
		if setupS, err = probeSetup(name, seed, d); err != nil {
			return nil, err
		}
	}
	r, err := setup(seed, d, phases)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain, err := r.measure(d, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: plain.attempted, Failed: plain.failed}
	problems := plain.problems
	got := map[string]float64{}
	specs := spec.EndToEnd
	if !traced {
		got["setup_s"] = setupS
		got["rss_peak_mb"] = plain.rssMB
		got["op_p50_ms"] = 1e3 * plain.opP50
	} else {
		tr := newTracer()
		tp, err := r.measure(d, tr)
		if err != nil {
			return nil, err
		}
		res.Attempted += tp.attempted
		res.Failed += tp.failed
		problems = append(problems, tp.problems...)
		for k, v := range plain.figures {
			got[k] = v
		}
		for k, v := range tp.layers {
			got[k] = v
		}
		got["trace.overhead"] = tp.cost / plain.cost
		if err := checkControls(name, got); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))); err != nil {
			return nil, err
		}
		specs = spec.PerLayer
	}
	for _, c := range plain.claims {
		fmt.Println("claim:", c)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: output check:", p)
	}
	res.Correct = len(problems) == 0
	res.Metrics = make(map[string]metricValue, len(specs))
	listed := map[string]bool{}
	for _, m := range specs {
		listed[m.Name] = true
		// A layer this workload does not load reads 0.
		res.Metrics[m.Name] = metricValue{Value: got[m.Name], Unit: m.Unit}
	}
	for k, v := range got {
		if !listed[k] {
			return nil, fmt.Errorf("metric %q is measured but not listed in BENCHMARK.json", k)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q measured as %v", k, v)
		}
	}
	return res, nil
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric list: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// probeSetup times set-up in fresh processes: each probe re-executes this
// binary with --setup-probe, so the figure covers process start, runtime
// and package initialisation, and the workload's own set-up. It returns
// the median over setupProbes probes.
func probeSetup(name string, seed int64, d time.Duration) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, "--setup-probe", "--workload", name,
			"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(int(d/time.Second)))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %v: %s", err, strings.TrimSpace(stderr.String()))
		}
		times = append(times, time.Since(start).Seconds())
	}
	return quantile(times, 0.5), nil
}

// checkControls fails the run when a prediction that defines a
// workload's shape breaks: a workload that should bypass a layer has
// started to load it, so its figures no longer mean what they say.
func checkControls(name string, got map[string]float64) error {
	var broken []string
	switch name {
	case "repro":
		if got["sim.runs"] != 0 {
			broken = append(broken, fmt.Sprintf("sim.runs = %g on repro, want 0 (repro is the control for simulator changes)", got["sim.runs"]))
		}
	case "serve-hot":
		if got["ga.runs"] != 0 {
			broken = append(broken, fmt.Sprintf("ga.runs = %g during the timed phase of serve-hot, want 0 (every request must hit a cache)", got["ga.runs"]))
		}
	case "serve-cold":
		if got["serve.l1.hit_ratio"] != 0 {
			broken = append(broken, fmt.Sprintf("serve.l1.hit_ratio = %g on serve-cold, want 0 (every body is unique)", got["serve.l1.hit_ratio"]))
		}
	}
	if len(broken) > 0 {
		return errors.New("workload control broken: " + strings.Join(broken, "; "))
	}
	return nil
}

// resetPeakRSS returns freed memory to the system and sets the process's
// peak resident set to its current one, so a later peakRSSMB covers only
// what follows.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It is NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
