package experiment

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chebymc/internal/artifact"
)

// smoke-scale simval sizing shared by the tests below.
func simValSmoke() SimValConfig {
	return SimValConfig{
		Ns:   []float64{2, 4},
		Sets: 3, Runs: 200, Seed: 3, Workers: 2,
	}
}

// TestSimVal pins the scenario's shape and its structural claim: the
// simulated mode-switch probability never exceeds the distribution-free
// prediction, and the bound tightens along the n axis.
func TestSimVal(t *testing.T) {
	cfg := simValSmoke()
	res, err := RunSimVal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(cfg.Ns) {
		t.Fatalf("got %d rows, want %d", len(res.Rows), len(cfg.Ns))
	}
	if !res.PredictionsHold() {
		t.Errorf("a simulated P_sys^MS exceeds its claim: %+v", res.Rows)
	}
	for i, row := range res.Rows {
		if row.N != cfg.Ns[i] {
			t.Errorf("row %d axis %g, want %g", i, row.N, cfg.Ns[i])
		}
		if row.PredPMS <= 0 || row.PredPMS > 1 {
			t.Errorf("n=%g: claim %g out of (0, 1]", row.N, row.PredPMS)
		}
		if row.MeanRuns != float64(cfg.Runs) || row.MeanSaved != 0 {
			t.Errorf("n=%g: fixed mode spent %g/saved %g, want %d/0",
				row.N, row.MeanRuns, row.MeanSaved, cfg.Runs)
		}
	}
	if res.Rows[1].PredPMS >= res.Rows[0].PredPMS {
		t.Errorf("claim not tightening in n: %+v", res.Rows)
	}
	if res.SavedFraction() != 0 {
		t.Errorf("fixed mode saved %g", res.SavedFraction())
	}

	again, err := RunSimVal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		if res.Rows[i] != again.Rows[i] {
			t.Errorf("row %d not deterministic: %+v vs %+v", i, res.Rows[i], again.Rows[i])
		}
	}
}

// TestSimValCheckpointKeys pins the key discipline: the adaptive
// tolerance folds into the checkpoint key only when enabled (so
// historical eps-less keys stay valid), and the worker count never does.
func TestSimValCheckpointKeys(t *testing.T) {
	dir := t.TempDir()
	cfg := simValSmoke()
	if _, err := RunSimValCtx(context.Background(), cfg, EngOpts{CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	plain := t.TempDir()
	cfg.Workers = 1
	if _, err := RunSimValCtx(context.Background(), cfg, EngOpts{CheckpointDir: plain}); err != nil {
		t.Fatal(err)
	}
	keyOf := func(d string) string {
		b, err := os.ReadFile(filepath.Join(d, "simval.checkpoint.json"))
		if err != nil {
			t.Fatal(err)
		}
		var f struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(b, &f); err != nil {
			t.Fatal(err)
		}
		return f.Key
	}
	if a, b := keyOf(dir), keyOf(plain); a != b {
		t.Errorf("worker count leaked into the checkpoint key: %q vs %q", a, b)
	}

	eps := t.TempDir()
	cfg.CIEps = 0.05
	res, err := RunSimValCtx(context.Background(), cfg, EngOpts{CheckpointDir: eps})
	if err != nil {
		t.Fatal(err)
	}
	if res.SavedFraction() <= 0 {
		t.Errorf("adaptive mode saved nothing (eps likely too tight for the fixture)")
	}
	if a, b := keyOf(dir), keyOf(eps); a == b {
		t.Errorf("adaptive tolerance missing from the checkpoint key: both %q", a)
	}
}

// TestSimValScenario runs the registered on-demand scenario end to end
// and checks the verification note.
func TestSimValScenario(t *testing.T) {
	var sc *Scenario
	for i := range registry {
		if registry[i].Name == "simval" {
			sc = &registry[i]
		}
	}
	if sc == nil {
		t.Fatal("simval scenario missing from registry")
	}
	if !sc.OnDemand || !sc.Checkpointed {
		t.Fatalf("simval scenario flags: OnDemand=%v Checkpointed=%v", sc.OnDemand, sc.Checkpointed)
	}
	arts, err := sc.Run(context.Background(), Options{Sets: 2, Seed: 1, Workers: 4, CIEps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 3 {
		t.Fatalf("got %d artefacts, want 3 (table + claim note + savings note)", len(arts))
	}
	tb, ok := arts[0].(artifact.Table)
	if !ok || tb.Name != "simval" {
		t.Fatalf("artefact 0 is %T, want Table simval", arts[0])
	}
	note, ok := arts[1].(artifact.Note)
	if !ok {
		t.Fatalf("artefact 1 is %T, want Note", arts[1])
	}
	if !strings.Contains(note.Text, "true") {
		t.Errorf("verification note not true: %q", note.Text)
	}
	if sav, ok := arts[2].(artifact.Note); !ok || !strings.Contains(sav.Text, "skipped") {
		t.Errorf("savings note missing: %+v", arts[2])
	}
}
