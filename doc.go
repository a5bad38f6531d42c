// Package chebymc reproduces "Improving the Timing Behaviour of
// Mixed-Criticality Systems Using Chebyshev's Theorem" (Ranjbar et al.,
// DATE 2021).
//
// The library determines the optimistic worst-case execution times
// (WCET^opt) of high-criticality tasks in a dual-criticality EDF-VD system
// from their measured execution-time statistics: C^LO = ACET + n·σ, with
// the one-sided Chebyshev (Cantelli) inequality bounding the per-job
// overrun probability by 1/(1+n²) for any distribution. A genetic
// algorithm picks per-task n_i maximising (1 − P^MS_sys) · max(U^LO_LC).
//
// Packages:
//
//   - internal/core       — the paper's contribution (Theorem 1, Eqs. 6–13)
//   - internal/mc         — the mixed-criticality task model
//   - internal/edfvd      — EDF-VD schedulability analysis (Eq. 8)
//   - internal/policy     — assignment policies incl. λ baselines and GA
//   - internal/sim        — discrete-event EDF-VD runtime simulator
//   - internal/vmcpu      — cost-model CPU (MEET substitute)
//   - internal/ipet       — structural WCET analysis (OTAWA substitute)
//   - internal/trace      — execution-time traces and diagnostics
//   - internal/stats      — statistics, Cantelli bounds, bootstrap CIs
//   - internal/dist       — execution-time distributions
//   - internal/fit        — pWCET/EVT fitting (bounds ablation)
//   - internal/dbf        — demand-bound functions, exact QPA EDF test
//   - internal/ga         — genetic algorithm substrate
//   - internal/taskgen    — synthetic dual-criticality task sets
//   - internal/experiment — one harness per paper table/figure
//
// Extensions beyond the paper:
//
//   - internal/mlmc       — >2 criticality levels (the stated future work)
//   - internal/partition  — partitioned multiprocessors (per-core Eq. 8)
//
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
package chebymc
