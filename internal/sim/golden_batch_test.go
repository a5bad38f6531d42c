package sim

// Batch-equivalence suite: ReplicateBatchCtx must reproduce ReplicateCtx
// byte for byte — every Metrics field of every replication — at every
// batch width, across the full golden configuration matrix (task-set
// shapes × policies × X × jitter × seeds). Jitter and event-logging
// configurations take the engine's scalar delegation path and must match
// just the same; width invariance (any B gives identical results) is
// pinned separately as a property in its own right, since the adaptive
// allocator and the CI checkpoint-identity assertion both build on it.

import (
	"context"
	"fmt"
	"testing"

	"chebymc/internal/dist"
	"chebymc/internal/mc"
)

// batchGoldenExec builds the golden matrix's execution distributions: a
// TruncNormal with a tail well past C^LO so overruns and mode switches
// occur.
func batchGoldenExec(t *testing.T, ts *mc.TaskSet) map[int]dist.Dist {
	t.Helper()
	exec := map[int]dist.Dist{}
	for _, task := range ts.Tasks {
		hi := task.CHI
		if task.Crit == mc.LC {
			hi = task.CLO
		}
		d, err := dist.NewTruncNormal(0.9*task.CLO, 0.25*task.CLO, 0, 1.2*hi)
		if err != nil {
			t.Fatal(err)
		}
		exec[task.ID] = d
	}
	return exec
}

// assertBatchEqual compares ReplicateBatchCtx against ReplicateCtx for
// one configuration at several widths, including width 1 (pure lockstep
// overhead), a width that does not divide runs, and widths at and past
// runs.
func assertBatchEqual(t *testing.T, ts *mc.TaskSet, cfg Config, runs int) {
	t.Helper()
	ctx := context.Background()
	want, err := ReplicateCtx(ctx, ts, cfg, runs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 4, 32, runs} {
		got, err := replicateBatch(ctx, ts, cfg, runs, 4, batch)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch=%d run=%d diverges:\n got  %+v\n want %+v",
					batch, i, got[i], want[i])
			}
		}
	}
}

// TestBatchEquivalenceMatrix sweeps the golden matrix through the batch
// engine. Jitter variants exercise the scalar delegation path (the
// lockstep skeleton cannot model desynchronised releases); the rest run
// the SoA fast path.
func TestBatchEquivalenceMatrix(t *testing.T) {
	uni, err := dist.NewUniform(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	jitters := map[string]func(*mc.TaskSet) map[int]dist.Dist{
		"none": func(*mc.TaskSet) map[int]dist.Dist { return nil },
		"uniform": func(ts *mc.TaskSet) map[int]dist.Dist {
			j := map[int]dist.Dist{}
			for i, task := range ts.Tasks {
				if i%2 == 0 {
					j[task.ID] = uni
				}
			}
			return j
		},
	}
	for setName, ts := range goldenSets(t) {
		exec := batchGoldenExec(t, ts)
		for jitName, mkJitter := range jitters {
			for _, pol := range []Policy{DropAll, Degrade} {
				for _, x := range []float64{0, 0.9} {
					if x == 0 && setName == "all-LC" {
						continue // EDF-VD X is undefined without HC tasks
					}
					cfg := Config{
						Horizon: 20000,
						Policy:  pol,
						Exec:    exec,
						Jitter:  mkJitter(ts),
						X:       x,
						Seed:    1,
					}
					name := fmt.Sprintf("%s/%s/%v/x=%g", setName, jitName, pol, x)
					t.Run(name, func(t *testing.T) {
						assertBatchEqual(t, ts, cfg, 33)
					})
				}
			}
		}
	}
}

// TestBatchEquivalenceDegenerate covers the corner configurations: tiny
// horizons that cut the first jobs, no execution distributions (zero
// RNG draws), custom degrade factors, the 20-task benchmark workload,
// and event logging (which must delegate to the scalar path).
func TestBatchEquivalenceDegenerate(t *testing.T) {
	sets := goldenSets(t)

	t.Run("horizon-shorter-than-first-period", func(t *testing.T) {
		assertBatchEqual(t, sets["two-task"], Config{Horizon: 30, Seed: 1}, 17)
	})
	t.Run("horizon-cuts-running-job", func(t *testing.T) {
		assertBatchEqual(t, sets["two-task"], Config{Horizon: 15, Seed: 1}, 17)
	})
	t.Run("no-exec-dists", func(t *testing.T) {
		assertBatchEqual(t, sets["heavy"], Config{Horizon: 20000, Seed: 4}, 9)
	})
	t.Run("degrade-factor-custom", func(t *testing.T) {
		assertBatchEqual(t, sets["heavy"], Config{
			Horizon: 20000, Policy: Degrade, DegradeFactor: 0.3,
			Exec: batchGoldenExec(t, sets["heavy"]), Seed: 5,
		}, 33)
	})
	t.Run("event-logging-delegates", func(t *testing.T) {
		assertBatchEqual(t, sets["heavy"], Config{
			Horizon: 20000, Exec: batchGoldenExec(t, sets["heavy"]),
			Seed: 6, MaxEvents: 1 << 10,
		}, 9)
	})
	t.Run("twenty-task-bench-config", func(t *testing.T) {
		ts, cfg := benchSet(t, 20)
		cfg.Jitter = nil // keep the fast path; jitter is covered above
		assertBatchEqual(t, ts, cfg, 17)
		cfg.Policy = Degrade
		assertBatchEqual(t, ts, cfg, 17)
	})
}

// TestBatchWidthInvariance pins the property the adaptive allocator and
// the CI checkpoint-identity check rely on: replication i depends only
// on (cfg, i) — never on the batch width, the worker count, or which
// range it was computed in.
func TestBatchWidthInvariance(t *testing.T) {
	ts := goldenSets(t)["heavy"]
	cfg := Config{Horizon: 20000, Exec: batchGoldenExec(t, ts), Seed: 42}
	ctx := context.Background()
	const runs = 37
	want, err := replicateBatch(ctx, ts, cfg, runs, 1, runs)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 2, 3, 5, 8, 16, 64} {
		for _, workers := range []int{1, 3} {
			got, err := replicateBatch(ctx, ts, cfg, runs, workers, batch)
			if err != nil {
				t.Fatalf("batch=%d workers=%d: %v", batch, workers, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("batch=%d workers=%d run=%d diverges", batch, workers, i)
				}
			}
		}
	}
	// Default width (batch ≤ 0) is the same computation.
	got, err := replicateBatch(ctx, ts, cfg, runs, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("default width run=%d diverges", i)
		}
	}
}

// TestReplicateInto pins the fold contract: run order, the global run
// index space (an extension [n, m) reproduces the same replications a
// full [0, m) pass computes), and range validation.
func TestReplicateInto(t *testing.T) {
	ts := goldenSets(t)["heavy"]
	cfg := Config{Horizon: 20000, Exec: batchGoldenExec(t, ts), Seed: 7}
	ctx := context.Background()
	want, err := ReplicateCtx(ctx, ts, cfg, 24, 4)
	if err != nil {
		t.Fatal(err)
	}

	next := 5
	err = replicateInto(ctx, ts, cfg, 5, 24, 3, 7, func(run int, m Metrics) {
		if run != next {
			t.Fatalf("fold out of order: got run %d, want %d", run, next)
		}
		next++
		if m != want[run] {
			t.Fatalf("run %d diverges:\n got  %+v\n want %+v", run, m, want[run])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != 24 {
		t.Fatalf("fold stopped at run %d, want 24", next)
	}

	if err := replicateInto(ctx, ts, cfg, 3, 3, 1, 1, func(int, Metrics) {
		t.Fatal("fold called on empty range")
	}); err != nil {
		t.Fatalf("empty range: %v", err)
	}
	if err := replicateInto(ctx, ts, cfg, -1, 3, 1, 1, nil); err == nil {
		t.Fatal("negative from accepted")
	}
	if err := replicateInto(ctx, ts, cfg, 5, 4, 1, 1, nil); err == nil {
		t.Fatal("inverted range accepted")
	}
}
