package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"chebymc/internal/artifact"
	"chebymc/internal/experiment"
)

// Scale of the batch workloads: reduced from the paper's defaults so a
// pass takes seconds, fixed so every run does the same work per seed.
const (
	reproSets, reproSamples = 50, 2000
	simSets                 = 20
	// minPasses guarantees the repeat check has two passes to compare.
	// Past it, a pass starts only if at least half of it fits in the
	// phase, so a run overruns its length by at most half a pass.
	minPasses = 2
)

// batch runs a list of registry scenarios as one pass, with a fresh
// Session per pass, the way cmd/mcexp runs them.
type batch struct {
	scenarios []experiment.Scenario
	opts      experiment.Options
	// ref holds each scenario's rendered artefacts from the first pass;
	// every later pass at the same seed must render the same bytes.
	ref map[string][]byte
}

func setupRepro(seed int64, _ time.Duration, _ int) (runner, error) {
	return newBatch([]string{"all"}, experiment.Options{
		Sets: reproSets, Samples: reproSamples, Seed: seed, Workers: nproc, Plot: true,
	})
}

func setupSim(seed int64, _ time.Duration, _ int) (runner, error) {
	return newBatch([]string{"simval", "modes"}, experiment.Options{
		Sets: simSets, Seed: seed, Workers: nproc, Plot: true,
	})
}

func newBatch(names []string, opts experiment.Options) (*batch, error) {
	sel, err := experiment.Resolve(names)
	if err != nil {
		return nil, err
	}
	b := &batch{opts: opts, ref: map[string][]byte{}}
	for _, sc := range experiment.Scenarios() {
		if sel[sc.Name] {
			b.scenarios = append(b.scenarios, sc)
		}
	}
	return b, nil
}

func (b *batch) measure(d time.Duration, tr *tracer) (*phase, error) {
	ctx := context.Background()
	p := &phase{figures: map[string]float64{}, layers: map[string]float64{}}
	var passes []float64
	scenarioS := map[string][]float64{}
	var simvalRuns, simvalS float64
	first := len(b.ref) == 0
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	before := readCounters()
	start := time.Now()
	var last time.Duration
	for pass := 0; pass < minPasses || time.Since(start)+last/2 < d; pass++ {
		var root int64
		if tr != nil {
			root = tr.id()
		}
		passStart := time.Now()
		opts := b.opts
		opts.Session = experiment.NewSession()
		for _, sc := range b.scenarios {
			var c0 counters
			if tr != nil {
				c0 = readCounters()
			}
			t0 := time.Now()
			arts, err := sc.Run(ctx, opts)
			t1 := time.Now()
			p.attempted++
			if tr != nil {
				tr.add(tr.id(), root, "scenario."+sc.Name, -1, t0, t1)
				scenarioS[sc.Name] = append(scenarioS[sc.Name], t1.Sub(t0).Seconds())
				if sc.Name == "simval" {
					simvalRuns += readCounters().since(c0).get("sim_runs_total")
					simvalS += t1.Sub(t0).Seconds()
				}
			}
			if err != nil {
				p.failed++
				p.problem("scenario %s: %v", sc.Name, err)
				continue
			}
			var buf bytes.Buffer
			if err := artifact.Render(&buf, artifact.Options{Plots: opts.Plot}, arts...); err != nil {
				return nil, fmt.Errorf("rendering %s: %w", sc.Name, err)
			}
			if tr != nil {
				tr.add(tr.id(), root, "render."+sc.Name, -1, t1, time.Now())
			}
			if msg := b.check(sc.Name, arts, buf.Bytes()); msg != "" {
				p.failed++
				p.problem("scenario %s: %s", sc.Name, msg)
			}
			if first && pass == 0 {
				p.claims = append(p.claims, claims(sc.Name, arts)...)
			}
		}
		passEnd := time.Now()
		if tr != nil {
			tr.add(root, 0, "pass", -1, passStart, passEnd)
		}
		last = passEnd.Sub(passStart)
		passes = append(passes, last.Seconds())
	}
	p.rssMB = peakRSSMB()
	wall := quantile(passes, 0.5)
	p.opP50 = wall
	p.cost = wall
	p.figures["wall_s"] = wall
	p.figures["fail_ratio"] = ratio(float64(p.failed), float64(p.attempted))
	if tr != nil {
		runtimeLayers(readCounters().since(before), float64(len(passes)), p.layers)
		for name, xs := range scenarioS {
			p.layers["scenario."+name+".s"] = quantile(xs, 0.5)
		}
		p.layers["sim.simval_runs_per_s"] = ratio(simvalRuns, simvalS)
	}
	return p, nil
}

// check gates one scenario's output on what holds for any correct
// program at any seed: repeat passes render identical bytes, Theorem 1's
// bound holds on every measurement (Table II), and on the modes grid no
// admitted set misses an HC deadline and task-level degradation never
// completes fewer LC jobs than the system-level drop on a matched seed.
func (b *batch) check(name string, arts []artifact.Artifact, rendered []byte) string {
	if ref, ok := b.ref[name]; !ok {
		b.ref[name] = append([]byte(nil), rendered...)
	} else if !bytes.Equal(ref, rendered) {
		return "a repeat at the same seed rendered different artefacts"
	}
	switch name {
	case "table2":
		if v, ok := noteFlag(arts, "bound holds on all measurements:"); !ok || !v {
			return "Table II: Theorem 1 bound does not hold on every measurement"
		}
	case "modes":
		col, rows, ok := tableColumn(arts, "modes", "HC misses")
		if !ok {
			return "modes table has no HC misses column"
		}
		for i, row := range rows {
			if row[col] != "0" {
				return fmt.Sprintf("modes row %d: %s HC deadline misses on admitted sets", i, row[col])
			}
		}
		if v, ok := noteFlag(arts, "task-level completes at least as many LC jobs as system-level at every grid point:"); !ok || !v {
			return "task-level completed fewer LC jobs than system-level on a matched seed"
		}
	}
	return ""
}

// claims reports the statistical results a small scale may legitimately
// miss, as values: they are printed, never gated.
func claims(name string, arts []artifact.Artifact) []string {
	var out []string
	flag := func(label, prefix string) {
		if v, ok := noteFlag(arts, prefix); ok {
			out = append(out, fmt.Sprintf("%s = %v", label, v))
		}
	}
	switch name {
	case "fig45":
		out = append(out, fmt.Sprintf("fig5_dominance = %v", fig5Dominance(arts)))
	case "simval":
		flag("simval_predictions_hold", "simulated P_sys^MS stays at or below the claim at every n:")
	case "modes":
		flag("dbf_superset_holds", "demand-bound admission accepts every Eq. 8 set plus extras on the sporadic column:")
	}
	return out
}

// fig5Dominance reports whether the proposed scheme's mean objective is
// at least every baseline's at every utilisation of the Fig. 4/5 table
// (to the table's four printed decimals).
func fig5Dominance(arts []artifact.Artifact) bool {
	col, rows, ok := tableColumn(arts, "fig45", "objective")
	if !ok || len(rows) == 0 {
		return false
	}
	proposed := rows[0][0]
	ours := map[string]float64{}
	for _, row := range rows {
		if row[0] == proposed {
			ours[row[1]], _ = strconv.ParseFloat(row[col], 64)
		}
	}
	for _, row := range rows {
		v, _ := strconv.ParseFloat(row[col], 64)
		if v > ours[row[1]]+5e-5 {
			return false
		}
	}
	return true
}

// noteFlag finds the note containing prefix and parses the boolean that
// follows it.
func noteFlag(arts []artifact.Artifact, prefix string) (value, found bool) {
	for _, a := range arts {
		n, ok := a.(artifact.Note)
		if !ok {
			continue
		}
		if i := strings.Index(n.Text, prefix); i >= 0 {
			f := strings.Fields(n.Text[i+len(prefix):])
			if len(f) == 0 {
				return false, false
			}
			v, err := strconv.ParseBool(f[0])
			return v, err == nil
		}
	}
	return false, false
}

// tableColumn finds the named table and the index of one of its columns.
func tableColumn(arts []artifact.Artifact, table, column string) (int, [][]string, bool) {
	for _, a := range arts {
		t, ok := a.(artifact.Table)
		if !ok || t.Name != table {
			continue
		}
		for i, h := range t.Body.Header() {
			if h == column {
				return i, t.Body.Rows(), true
			}
		}
	}
	return 0, nil, false
}
