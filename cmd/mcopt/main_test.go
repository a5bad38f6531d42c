package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"chebymc/internal/mc"
	"chebymc/internal/sim"
)

func writeTaskSet(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ts.json")
	data := `{"tasks":[
  {"id":1,"name":"ctl","crit":"HC","c_lo":20,"c_hi":60,"period":100,"profile":{"acet":15,"sigma":2.5}},
  {"id":2,"name":"log","crit":"LC","c_lo":10,"c_hi":10,"period":50}
]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPolicies(t *testing.T) {
	path := writeTaskSet(t)
	for _, pol := range []string{"ga", "uniform", "lambda"} {
		for _, bound := range []string{"", "vp"} {
			if err := run(context.Background(), path, pol, 5, 0.25, bound, 1, "", "", "", "", 1, 2, 0, 1, 0, 0); err != nil {
				t.Fatalf("%s (bound %q): %v", pol, bound, err)
			}
		}
	}
}

func TestRunWithSimulationAndOutput(t *testing.T) {
	in := writeTaskSet(t)
	out := filepath.Join(t.TempDir(), "opt.json")
	if err := run(context.Background(), in, "uniform", 4, 0.25, "", 1, "", "", "", out, 1, 2, 20000, 3, 0, 0); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ts, err := mc.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	hc := ts.ByCrit(mc.HC)[0]
	// C^LO rewritten to ACET + 4σ = 25.
	if hc.CLO != 25 {
		t.Errorf("optimised C^LO = %g, want 25", hc.CLO)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTaskSet(t)
	if err := run(context.Background(), "", "ga", 5, 0.25, "", 1, "", "", "", "", 1, 2, 0, 1, 0, 0); err == nil {
		t.Error("missing -in must error")
	}
	if err := run(context.Background(), path, "bogus", 5, 0.25, "", 1, "", "", "", "", 1, 2, 0, 1, 0, 0); err == nil {
		t.Error("unknown policy must error")
	}
	if err := run(context.Background(), path+"x", "ga", 5, 0.25, "", 1, "", "", "", "", 1, 2, 0, 1, 0, 0); err == nil {
		t.Error("missing file must error")
	}
	if err := run(context.Background(), path, "ga", 5, 0.25, "bogus", 1, "", "", "", "", 1, 2, 0, 1, 0, 0); err == nil {
		t.Error("unknown bound must error")
	}
	if err := run(context.Background(), path, "ga", 5, 0.25, "", 1, "", "per-task", "", "", 1, 2, 0, 1, 0, 0); err == nil {
		t.Error("unknown protocol must error")
	}
	if err := run(context.Background(), path, "ga", 5, 0.25, "", 1, "", "", "bursty", "", 1, 2, 0, 1, 0, 0); err == nil {
		t.Error("unknown release model must error")
	}
}

func TestRunMulticore(t *testing.T) {
	in := writeTaskSet(t)
	out := filepath.Join(t.TempDir(), "opt.json")
	// Two cores with worst-fit, simulated, with the optimised set written
	// out: the full multicore CLI surface.
	if err := run(context.Background(), in, "uniform", 4, 0.25, "", 2, "wf", "", "", out, 1, 2, 5000, 3, 0, 0); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ts, err := mc.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if hc := ts.ByCrit(mc.HC)[0]; hc.CLO != 25 {
		t.Errorf("optimised C^LO = %g, want 25", hc.CLO)
	}
	if err := run(context.Background(), in, "uniform", 4, 0.25, "", 0, "", "", "", "", 1, 2, 0, 1, 0, 0); err == nil {
		t.Error("cores=0 must error")
	}
	if err := run(context.Background(), in, "uniform", 4, 0.25, "", 2, "bogus", "", "", "", 1, 2, 0, 1, 0, 0); err == nil {
		t.Error("unknown heuristic must error")
	}
}

// captureStdout runs f with os.Stdout redirected and returns its output.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	text := string(<-out)
	if ferr != nil {
		t.Fatal(ferr)
	}
	return text
}

// TestRunEventsReplaysFirstReplication drives -simulate -runs 1 -events N:
// exactly N events are printed, and the per-task table's totals are the
// replicated run's own metrics, so the replay is replication 0.
func TestRunEventsReplaysFirstReplication(t *testing.T) {
	in := writeTaskSet(t)
	out := filepath.Join(t.TempDir(), "opt.json")
	const horizon, events = 5000.0, 15
	text := captureStdout(t, func() error {
		return run(context.Background(), in, "uniform", 1, 0.25, "", 1, "", "", "", out, 7, 2, horizon, 1, events, 0)
	})

	tot := map[string]*[3]int{"HC": {}, "LC": {}} // released, completed, misses
	printed, section, summary := 0, "", ""
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		switch {
		case line == "Per-task metrics (replication 0)", line == fmt.Sprintf("First %d schedule events:", events):
			section = line
		case strings.HasPrefix(line, "Simulated "):
			summary = line
		case strings.HasPrefix(section, "First") && strings.HasPrefix(line, "  t="):
			printed++
		case strings.HasPrefix(section, "Per-task") && len(f) == 9 && tot[f[1]] != nil:
			for k := range 3 {
				v, err := strconv.Atoi(f[2+k])
				if err != nil {
					t.Fatalf("per-task row %q: %v", line, err)
				}
				tot[f[1]][k] += v
			}
		}
	}
	hc, lc := *tot["HC"], *tot["LC"]
	if printed != events {
		t.Fatalf("printed %d events, want %d:\n%s", printed, events, text)
	}
	if want := fmt.Sprintf("HC-misses=%d LC-service=%.3f", hc[2], float64(lc[1])/float64(lc[0])); !strings.Contains(summary, want) {
		t.Errorf("per-task totals give %q, summary line is %q", want, summary)
	}

	// The replicated run's own metrics, recomputed from the written set.
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := mc.ReadJSON(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := sim.ReplicateBatchCtx(context.Background(), ts, simConfig(ts, horizon, 7, sim.SystemLevel, sim.Periodic{}), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	if hc != [3]int{m.HCReleased, m.HCCompleted, m.HCMisses} || lc != [3]int{m.LCReleased, m.LCCompleted, m.LCMisses} {
		t.Errorf("per-task totals HC %v LC %v, replication 0 %+v", hc, lc, m)
	}
	if m.LCCompleted == m.LCReleased {
		t.Error("fixture never drops an LC job; the replay check is too weak")
	}
}

func TestRunEventsErrors(t *testing.T) {
	in := writeTaskSet(t)
	// {cores, events, simulate}: a negative count, a replay without
	// -simulate, and a multicore replay.
	for _, c := range [][3]float64{{1, -1, 1000}, {1, 5, 0}, {2, 5, 1000}} {
		if err := run(context.Background(), in, "uniform", 4, 0.25, "", int(c[0]), "", "", "", "", 1, 2, c[2], 1, int(c[1]), 0); err == nil {
			t.Errorf("cores=%g events=%g simulate=%g must error", c[0], c[1], c[2])
		}
	}
}
