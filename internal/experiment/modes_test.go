package experiment

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"chebymc/internal/ga"
	"chebymc/internal/sim"
)

// smoke-scale modes sizing shared by the tests below.
func modesSmoke() ModesConfig {
	return ModesConfig{
		Sets: 12, Runs: 5, Horizon: 4000,
		Seed: 1, Workers: 2,
		GA: ga.Config{PopSize: 8, Generations: 4},
	}
}

func TestModes(t *testing.T) {
	cfg := modesSmoke()
	res, err := RunModes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	np, nr := len(res.cfg.Protocols), len(res.cfg.Releases)
	if np != 3 || nr != 2 {
		t.Fatalf("default grid %d×%d, want 3×2", np, nr)
	}
	if len(res.Axes) != np*nr {
		t.Fatalf("got %d axis points, want %d", len(res.Axes), np*nr)
	}

	// Admission depends on (set, release) only: every protocol row of one
	// release column must admit the identical sets.
	for ri := 0; ri < nr; ri++ {
		for pi := 1; pi < np; pi++ {
			if !reflect.DeepEqual(res.axis(pi, ri).Admitted, res.axis(0, ri).Admitted) {
				t.Errorf("release %d: admitted sets differ between protocols 0 and %d", ri, pi)
			}
		}
	}

	// Matched seeds: LC releases are identical between the two DropAll
	// protocols of one release column — only completions may differ.
	ti := res.protoIndex(sim.DropAll, sim.TaskLevel)
	si := res.protoIndex(sim.DropAll, sim.SystemLevel)
	for ri := 0; ri < nr; ri++ {
		task, sys := res.axis(ti, ri), res.axis(si, ri)
		if !reflect.DeepEqual(task.LCRel, sys.LCRel) {
			t.Errorf("release %d: LC release counts differ across protocols", ri)
		}
	}

	// The headline claims at smoke scale, and per-set dominance strictly.
	if err := res.Verify(); err != nil {
		t.Error(err)
	}

	// The sweep is deterministic end to end.
	again, err := RunModes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Axes, again.Axes) {
		t.Error("modes sweep not deterministic")
	}
	if res.Table() == nil {
		t.Error("missing table")
	}
}

func TestModesWorkerInvariance(t *testing.T) {
	cfg := modesSmoke()
	base, err := RunModes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 7
	other, err := RunModes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Axes, other.Axes) {
		t.Error("modes sweep depends on worker count")
	}
}

// TestModesCheckpointResume pins the -resume contract: a second run over
// an existing checkpoint directory reuses every point and reproduces both
// the result and the checkpoint bytes exactly.
func TestModesCheckpointResume(t *testing.T) {
	cfg := modesSmoke()
	dir := t.TempDir()

	read := func() map[string]string {
		files := map[string]string{}
		err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(dir, path)
			files[rel] = string(b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}

	first, err := RunModesCtx(context.Background(), cfg, EngOpts{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ck := read()
	if len(ck) == 0 {
		t.Fatal("no checkpoints written")
	}

	second, err := RunModesCtx(context.Background(), cfg, EngOpts{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Axes, second.Axes) {
		t.Error("resumed run differs from original")
	}
	if ck2 := read(); !reflect.DeepEqual(ck, ck2) {
		t.Error("resume rewrote checkpoint bytes")
	}

	// A different seed must key differently — stale state must not be
	// resumed into a changed sweep.
	cfg.Seed = 2
	third, err := RunModesCtx(context.Background(), cfg, EngOpts{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first.Axes, third.Axes) {
		t.Error("seed change resumed stale checkpoints")
	}
}

func TestModesFilters(t *testing.T) {
	if _, err := modesProtocolFilter("nope"); err == nil {
		t.Error("unknown protocol filter must error")
	}
	ps, err := modesProtocolFilter(" task-level ")
	if err != nil || len(ps) != 1 || ps[0].Protocol != sim.TaskLevel {
		t.Errorf("modesProtocolFilter(task-level) = %v, %v", ps, err)
	}
	if ps, err := modesProtocolFilter(""); err != nil || ps != nil {
		t.Errorf("empty protocol filter = %v, %v, want nil, nil", ps, err)
	}
	if _, err := modesReleaseFilter("nope"); err == nil {
		t.Error("unknown release filter must error")
	}
	rs, err := modesReleaseFilter("sporadic")
	if err != nil || len(rs) != 1 || !rs[0].Demand {
		t.Errorf("modesReleaseFilter(sporadic) = %v, %v", rs, err)
	}
	if rs, err := modesReleaseFilter(""); err != nil || rs != nil {
		t.Errorf("empty release filter = %v, %v, want nil, nil", rs, err)
	}
}
