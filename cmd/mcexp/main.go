// Command mcexp regenerates the paper's tables and figures.
//
// Usage:
//
//	mcexp -exp table1,table2,fig2,fig3,fig45,fig6,headline [-sets N] [-samples N] [-seed S] [-workers W]
//	      [-bound cantelli|chebyshev2|vp|moment4] [-cores 1,2,4,8,16] [-heuristic first-fit|best-fit|worst-fit]
//	      [-protocol system-drop|liu-degrade|task-level] [-release periodic|sporadic]
//	      [-csv|-json] [-plot] [-outdir DIR]
//	      [-checkpoint DIR] [-resume] [-progress]
//	      [-http ADDR] [-metrics] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// With -exp all (the default) every experiment runs; -exp list prints the
// registry. -sets and -samples scale the task-set counts and trace sample
// counts; the defaults are the paper-sized values (1000 sets, 20000
// samples), which take about 25 s on 2 vCPUs. -bound swaps the Eq. 10
// concentration inequality behind every scenario's scoring (default:
// the paper's Cantelli bound; see -exp bounds for the engines compared
// side by side). -workers fans the sweeps out over
// that many goroutines (default: one per CPU); results are bit-identical
// for every worker count. -checkpoint DIR persists each sweep point as it
// completes and -resume skips points already on disk — a resumed run's
// output is byte-identical to an uninterrupted one.
//
// -http ADDR serves live observability for the duration of the run:
// GET /metrics (Prometheus-style text), /debug/pprof/... and /debug/vars
// on ADDR (host:port; :0 picks a free port, announced on stderr).
// -metrics appends a "Run metrics" table of the run's counter deltas to
// the rendered artefacts and, with -outdir, writes a manifest.json run
// record (command, flags, seed, git revision, wall time, final counters).
//
// The command itself is a thin loop: internal/experiment's registry
// declares the scenarios, internal/engine runs the sweeps, and
// internal/artifact renders whatever each scenario returns.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"chebymc/internal/artifact"
	"chebymc/internal/engine"
	"chebymc/internal/experiment"
	"chebymc/internal/obs"
	"chebymc/internal/partition"
	"chebymc/internal/prof"
	"chebymc/internal/stats"
)

type options struct {
	exps          string
	sets, samples int
	seed          int64
	workers       int
	bound         string
	cores         string
	heuristic     string
	protocol      string
	release       string
	ciEps         float64
	csv, json     bool
	plot          bool
	outdir        string
	checkpoint    string
	resume        bool
	progress      bool
	httpAddr      string
	metrics       bool
	// progressSink overrides the default stderr sink (tests).
	progressSink engine.Sink
	// serveAddr receives the bound -http address once the server is up
	// (tests; -http :0 binds an unpredictable port).
	serveAddr func(addr string)
}

func main() {
	var o options
	flag.StringVar(&o.exps, "exp", "all", "comma-separated experiment names, all, or list")
	flag.IntVar(&o.sets, "sets", 0, "task sets per sweep point (0 = paper default 1000)")
	flag.IntVar(&o.samples, "samples", 0, "trace samples per benchmark (0 = paper default 20000)")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.IntVar(&o.workers, "workers", runtime.NumCPU(), "worker goroutines per sweep (results are identical for any value)")
	flag.StringVar(&o.bound, "bound", "", "concentration bound engine: "+strings.Join(stats.BoundNames(), ", ")+" (default cantelli)")
	flag.StringVar(&o.cores, "cores", "", "comma-separated core counts for the cores scenario (default 1,2,4,8,16)")
	flag.StringVar(&o.heuristic, "heuristic", "", "partitioning heuristic for the cores scenario: "+strings.Join(partition.HeuristicNames(), ", ")+" (default: compare all)")
	flag.StringVar(&o.protocol, "protocol", "", "mode-switch protocol for the modes scenario: system-drop, liu-degrade or task-level (default: compare all)")
	flag.StringVar(&o.release, "release", "", "release model for the modes scenario: periodic or sporadic (default: compare both)")
	flag.Float64Var(&o.ciEps, "ci-eps", 0, "adaptive sampling for simulating scenarios: stop replicating once the 95% CI half-width drops to this (0 = fixed budgets)")
	flag.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned tables")
	flag.BoolVar(&o.json, "json", false, "emit JSON lines instead of aligned tables")
	flag.BoolVar(&o.plot, "plot", true, "emit ASCII plots for figures")
	flag.StringVar(&o.outdir, "outdir", "", "also write each artefact's CSV (and, with -json, JSON) into this directory")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "persist per-point sweep checkpoints into this directory")
	flag.BoolVar(&o.resume, "resume", false, "skip sweep points already checkpointed (requires -checkpoint)")
	flag.BoolVar(&o.progress, "progress", false, "report sweep progress on stderr")
	flag.StringVar(&o.httpAddr, "http", "", "serve /metrics, /debug/pprof and /debug/vars on this address for the run's duration (e.g. :6060; :0 picks a free port)")
	flag.BoolVar(&o.metrics, "metrics", false, "append a run-metrics table to the output and, with -outdir, write a manifest.json run record")
	cpuprof := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprof := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	stop, err := prof.Start(*cpuprof, *memprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcexp:", err)
		os.Exit(1)
	}
	runErr := run(ctx, os.Stdout, o)
	if err := stop(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "mcexp:", runErr)
		os.Exit(1)
	}
}

// run resolves the requested scenarios against the registry and drives
// each one: evaluate, render to w, mirror files under -outdir.
func run(ctx context.Context, w io.Writer, o options) error {
	if strings.TrimSpace(o.exps) == "list" {
		return list(w)
	}
	selected, err := experiment.Resolve(strings.Split(o.exps, ","))
	if err != nil {
		return err
	}
	bound, err := stats.BoundByName(o.bound)
	if err != nil {
		return err
	}
	if _, err := partition.HeuristicByName(o.heuristic); err != nil {
		return err
	}
	cores, err := parseCores(o.cores)
	if err != nil {
		return err
	}
	if o.csv && o.json {
		return fmt.Errorf("-csv and -json are mutually exclusive")
	}
	if o.resume && o.checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint DIR")
	}
	for _, dir := range []string{o.outdir, o.checkpoint} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}

	// Observability: requesting either surface turns the clock-reading
	// instrumentation on; counters are live regardless. The start
	// snapshot makes every reported number a delta over this run, so the
	// manifest matches the rendered tables even inside a shared process
	// (tests).
	start := time.Now()
	var startSnap obs.Snapshot
	if o.httpAddr != "" || o.metrics {
		obs.SetEnabled(true)
		startSnap = obs.Default.Snapshot()
	}
	if o.httpAddr != "" {
		srv, err := obs.Serve(o.httpAddr, obs.Default, artifact.MetricsHandler(obs.Default))
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "mcexp: serving /metrics and /debug/pprof on http://%s\n", srv.Addr())
		if o.serveAddr != nil {
			o.serveAddr(srv.Addr())
		}
	}
	ropts := artifact.Options{Mode: artifact.ModeText, Plots: o.plot}
	switch {
	case o.csv:
		ropts.Mode = artifact.ModeCSV
	case o.json:
		ropts.Mode = artifact.ModeJSON
	}
	sink := o.progressSink
	if sink == nil && o.progress {
		sink = stderrSink
	}
	eopts := experiment.Options{
		Sets: o.sets, Samples: o.samples, Seed: o.seed, Workers: o.workers,
		Plot:  o.plot && !o.json,
		Bound: bound,
		Cores: cores, Heuristic: o.heuristic,
		Protocol: o.protocol, Release: o.release,
		CIEps: o.ciEps,
		Eng: experiment.EngOpts{
			Progress:      sink,
			CheckpointDir: o.checkpoint,
			Resume:        o.resume,
		},
		Session: experiment.NewSession(),
	}
	for _, sc := range experiment.Scenarios() {
		if !selected[sc.Name] {
			continue
		}
		arts, err := sc.Run(ctx, eopts)
		if err != nil {
			return err
		}
		if err := artifact.Render(w, ropts, arts...); err != nil {
			return err
		}
		if o.outdir != "" {
			if err := artifact.WriteFiles(o.outdir, ropts, arts...); err != nil {
				return err
			}
		}
	}

	if o.metrics {
		delta := obs.Default.Snapshot().DeltaSince(startSnap)
		tb := artifact.MetricsTable(delta)
		if err := artifact.Render(w, ropts, tb); err != nil {
			return err
		}
		if o.outdir != "" {
			if err := artifact.WriteFiles(o.outdir, ropts, tb); err != nil {
				return err
			}
			m := artifact.Manifest{
				Command: "mcexp",
				Flags: map[string]string{
					"exp":     o.exps,
					"sets":    fmt.Sprint(o.sets),
					"samples": fmt.Sprint(o.samples),
					"workers": fmt.Sprint(o.workers),
					"outdir":  o.outdir,
					"http":    o.httpAddr,
				},
				Seed:        o.seed,
				WallSeconds: time.Since(start).Seconds(),
				Metrics:     artifact.MetricsValues(delta),
			}
			if err := artifact.WriteManifest(o.outdir, m); err != nil {
				return err
			}
		}
	}
	return nil
}

// parseCores parses the -cores flag: a comma-separated list of core
// counts, each ≥ 1.
func parseCores(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var ms []int
	for _, f := range strings.Split(s, ",") {
		m, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || m < 1 {
			return nil, fmt.Errorf("-cores: %q is not a core count ≥ 1", f)
		}
		ms = append(ms, m)
	}
	return ms, nil
}

// list prints the scenario registry.
func list(w io.Writer) error {
	fmt.Fprintln(w, "experiments (run with -exp name[,name...] or -exp all):")
	for _, sc := range experiment.Scenarios() {
		name := sc.Name
		if len(sc.Aliases) > 0 {
			name += " (" + strings.Join(sc.Aliases, ", ") + ")"
		}
		desc := sc.Description
		if sc.OnDemand {
			desc += " [on demand: run by name, not part of all]"
		}
		fmt.Fprintf(w, "  %-22s %s\n", name, desc)
		if len(sc.Axis) > 0 {
			extra := ""
			if sc.Checkpointed {
				extra = ", checkpointable"
			}
			fmt.Fprintf(w, "  %-22s sweep %s over %v, %d sets/point%s\n",
				"", sc.AxisLabel, sc.Axis, sc.DefaultSets, extra)
		}
	}
	return nil
}

// stderrSink is the -progress reporter.
func stderrSink(e engine.Event) {
	status := fmt.Sprintf("eta %s", e.ETA.Round(1e9))
	if e.Restored {
		status = "restored from checkpoint"
	}
	fmt.Fprintf(os.Stderr, "mcexp: %s: point %d/%d (%s)\n", e.Scenario, e.Done, e.Total, status)
}
