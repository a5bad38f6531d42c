package sim

// Batch-lockstep replication engine. ReplicateCtx simulates each Monte
// Carlo replication in isolation: every run builds a Simulator (task
// validation, dense map resolution, EDF-VD analysis), allocates its job
// records through the arena, and walks its own release heap — even
// though, without release jitter, every replication releases exactly the
// same jobs at exactly the same instants and differs only in the
// execution times it draws.
//
// The batch engine exploits that: it advances B replications in lockstep
// over a single shared release skeleton. One release heap is walked once
// per batch, emitting release *epochs* (an instant plus the dense task
// indices releasing then, in task order — the same (time, index) order
// the scalar loop drains). At each epoch every replication is advanced
// from the previous epoch to the new instant and handed the epoch's
// releases; between epochs no releases exist, so the per-replication
// inner loop degenerates to "run the EDF-VD front job to its next
// milestone" with no heap-against-heap comparisons.
//
// Per-replication job state lives in flat structure-of-arrays slices
// (jobTask, jobVirtDL, jobRemaining, ...) indexed by int32 slots from a
// shared free-list pool sized width×tasks up front, so a batch allocates
// nothing in steady state and the hot loop walks contiguous float64
// arrays instead of pointer-linked job structs. Each replication keeps
// its own RNG stream — seeded rng.Derive(cfg.Seed, runIndex), exactly
// the scalar derivation — its own ready heap and insertion-order view
// (both slices of slots), and its own Metrics.
//
// Equivalence contract: for every configuration and every batch width,
// ReplicateBatchCtx returns bit-identical Metrics to ReplicateCtx
// (golden_batch_test.go pins it). The fast path reproduces the scalar
// event loop's decisions literally — same milestone arithmetic, same
// tie-breaks, same RNG draw order per replication — and configurations
// it does not model (release jitter, whose draws interleave with
// execution draws and desynchronise the release skeleton across
// replications; event logging) are delegated to the scalar Simulator
// per replication, which is identical by definition.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"chebymc/internal/dist"
	"chebymc/internal/mc"
	"chebymc/internal/par"
	"chebymc/internal/rng"
)

// defaultBatchWidth is the lockstep width of ReplicateBatchCtx and
// ReplicateInto. Wide enough to amortise the shared skeleton walk, small
// enough that a batch's SoA working set stays cache-resident for
// paper-sized task sets. Results are identical at every width, so it is
// not a caller's choice; the tests and benchmarks vary it through
// replicateBatch and replicateInto.
const defaultBatchWidth = 32

// ReplicateBatchCtx is ReplicateCtx on the batch-lockstep engine: the
// same task set and configuration simulated runs times with per-run
// derived seeds, returning metrics in run order, bit-identical to
// ReplicateCtx for every workers value.
func ReplicateBatchCtx(ctx context.Context, ts *mc.TaskSet, cfg Config, runs, workers int) ([]Metrics, error) {
	return replicateBatch(ctx, ts, cfg, runs, workers, defaultBatchWidth)
}

// replicateBatch is ReplicateBatchCtx at lockstep width batch (≤ 0 for
// defaultBatchWidth).
func replicateBatch(ctx context.Context, ts *mc.TaskSet, cfg Config, runs, workers, batch int) ([]Metrics, error) {
	if runs < 1 {
		return nil, fmt.Errorf("sim: need runs ≥ 1, got %d", runs)
	}
	out := make([]Metrics, runs)
	if err := replicateInto(ctx, ts, cfg, 0, runs, workers, batch, func(run int, m Metrics) {
		out[run] = m
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ReplicateInto folds the metrics of replications [from, to) — numbered
// in the same global run index space as ReplicateCtx, so replication i
// is identical regardless of the range it is computed in — through fold
// in run order, without retaining more than one worker wave of results.
// It is the aggregation form: sweeps that only reduce (Summarize, CI
// accumulation) never materialise a runs-sized []Metrics, and adaptive
// allocators extend a prefix [0, n) incrementally by calling it again
// with from = n.
func ReplicateInto(ctx context.Context, ts *mc.TaskSet, cfg Config, from, to, workers int, fold func(run int, m Metrics)) error {
	return replicateInto(ctx, ts, cfg, from, to, workers, defaultBatchWidth, fold)
}

// replicateInto is ReplicateInto at lockstep width batch (≤ 0 for
// defaultBatchWidth).
func replicateInto(ctx context.Context, ts *mc.TaskSet, cfg Config, from, to, workers, batch int, fold func(run int, m Metrics)) error {
	if from < 0 || to < from {
		return fmt.Errorf("sim: bad replication range [%d, %d)", from, to)
	}
	if to == from {
		return nil
	}
	// Resolve the configuration once (validation, EDF-VD X) exactly like
	// ReplicateCtx, and reuse its dense distribution tables.
	probe, err := New(ts, cfg)
	if err != nil {
		return err
	}
	base := probe.cfg
	// The lockstep engine models the system-level protocol over a shared
	// periodic release skeleton; task-level groups and sporadic gaps are
	// per-replication state, so those configurations delegate to the
	// scalar path chunk-by-chunk (still bit-identical to ReplicateCtx).
	fast := base.MaxEvents == 0 && base.Protocol == SystemLevel && releaseIsPeriodic(base.Release)
	for _, d := range probe.jitter {
		if d != nil {
			fast = false
			break
		}
	}
	width := batch
	if width <= 0 {
		width = defaultBatchWidth
	}
	if n := to - from; width > n {
		width = n
	}
	type chunk struct{ lo, hi int }
	chunks := make([]chunk, 0, (to-from+width-1)/width)
	for lo := from; lo < to; lo += width {
		hi := lo + width
		if hi > to {
			hi = to
		}
		chunks = append(chunks, chunk{lo, hi})
	}
	if workers < 1 {
		workers = 1
	}
	// Waves of one chunk per worker: results fold in run order after
	// each wave, bounding retained metrics at workers × width.
	for w := 0; w < len(chunks); w += workers {
		n := len(chunks) - w
		if n > workers {
			n = workers
		}
		res, err := par.MapCtx(ctx, workers, n, func(k int) ([]Metrics, error) {
			c := chunks[w+k]
			if !fast {
				return scalarChunk(ts, base, cfg.Seed, c.lo, c.hi)
			}
			b := batchPool.Get().(*batchSim)
			ms := b.run(probe, cfg.Seed, c.lo, c.hi)
			batchPool.Put(b)
			return ms, nil
		})
		if err != nil {
			return err
		}
		for k, ms := range res {
			for i, m := range ms {
				fold(chunks[w+k].lo+i, m)
			}
		}
	}
	return nil
}

// scalarChunk runs replications [lo, hi) through the scalar Simulator —
// the delegation path for configurations the lockstep engine does not
// model. Seeds derive exactly as in ReplicateCtx.
func scalarChunk(ts *mc.TaskSet, base Config, root int64, lo, hi int) ([]Metrics, error) {
	out := make([]Metrics, hi-lo)
	for i := lo; i < hi; i++ {
		c := base
		c.Seed = rng.Derive(root, int64(i))
		s, err := New(ts, c)
		if err != nil {
			return nil, err
		}
		out[i-lo] = s.Run()
	}
	return out, nil
}

// batchPool recycles batch engines (their SoA arrays and per-replication
// scratch) across chunks and calls, like the scalar arenaPool.
var batchPool = sync.Pool{New: func() any { return new(batchSim) }}

// batchSim is one lockstep batch in flight. All job state is
// structure-of-arrays, indexed by int32 slots from a free-list pool; all
// per-replication state is parallel slices indexed by the replication's
// position in the batch.
type batchSim struct {
	cfg   Config
	tasks []mc.Task
	exec  []dist.Dist // dense per-task execution dists (shared with the probe)

	// Job pool (SoA). Slots are allocated at release and freed at
	// completion or drop; the pool is pre-grown to width×tasks — the
	// steady-state ready population — and extends only under deadline
	// backlog.
	jobTask      []int32
	jobRelease   []float64
	jobAbsDL     []float64
	jobVirtDL    []float64
	jobRemaining []float64
	jobConsumed  []float64
	jobDegraded  []bool
	jobHeapIdx   []int32
	jobOrderIdx  []int32
	freeJobs     []int32

	// Per-replication state.
	rngs        []*rand.Rand
	mode        []mc.Mode
	hcReady     []int32
	now         []float64
	lastHIEnter []float64
	interrupted []int32 // job slot preempted by the last epoch, or −1
	preempts    []uint64
	mets        []Metrics
	heaps       [][]int32 // EDF-VD ready heap per replication
	orders      [][]int32 // ready jobs in insertion order per replication

	// Shared release-skeleton walker.
	relHeap releaseHeap
	epoch   []int32
}

// run simulates replications [lo, hi) (global run indices) in lockstep
// and returns their metrics in run order.
func (b *batchSim) run(probe *Simulator, root int64, lo, hi int) []Metrics {
	B := hi - lo
	b.setup(probe, B)
	horizon := b.cfg.Horizon
	for r := 0; r < B; r++ {
		b.rngs[r].Seed(rng.Derive(root, int64(lo+r)))
	}

	// Walk the shared release skeleton: the heap holds each task's next
	// release; an epoch pops every task due at the minimum instant in
	// dense-index order — the exact (time, index) drain order of the
	// scalar loop — and re-pushes the follow-up release when it lands
	// inside the horizon.
	b.relHeap.reset(len(b.tasks))
	for i := range b.tasks {
		b.relHeap.push(i, 0)
	}
	for b.relHeap.len() > 0 {
		t0 := b.relHeap.time[b.relHeap.minIdx()]
		b.epoch = b.epoch[:0]
		for b.relHeap.len() > 0 && b.relHeap.time[b.relHeap.minIdx()] == t0 {
			i := b.relHeap.pop()
			b.epoch = append(b.epoch, int32(i))
			if next := t0 + b.tasks[i].Period; next < horizon {
				b.relHeap.push(i, next)
			}
		}
		for r := 0; r < B; r++ {
			b.advance(r, t0, false)
			for _, ti := range b.epoch {
				b.release(r, int(ti), t0)
			}
		}
	}

	out := make([]Metrics, B)
	for r := 0; r < B; r++ {
		b.advance(r, horizon, true)
		m := &b.mets[r]
		if b.mode[r] == mc.HI {
			m.TimeInHI += horizon - b.lastHIEnter[r]
		}
		recordRun(*m, b.preempts[r])
		out[r] = *m
	}
	obsBatchRuns.Add(uint64(B))
	obsBatchWidth.Observe(float64(B))
	return out
}

// setup points the engine at the probe's resolved configuration and
// resets pool and per-replication state for a batch of the given width.
func (b *batchSim) setup(probe *Simulator, width int) {
	b.cfg = probe.cfg
	b.tasks = probe.ts.Tasks
	b.exec = probe.exec

	b.jobTask = b.jobTask[:0]
	b.jobRelease = b.jobRelease[:0]
	b.jobAbsDL = b.jobAbsDL[:0]
	b.jobVirtDL = b.jobVirtDL[:0]
	b.jobRemaining = b.jobRemaining[:0]
	b.jobConsumed = b.jobConsumed[:0]
	b.jobDegraded = b.jobDegraded[:0]
	b.jobHeapIdx = b.jobHeapIdx[:0]
	b.jobOrderIdx = b.jobOrderIdx[:0]
	b.freeJobs = b.freeJobs[:0]

	for len(b.rngs) < width {
		b.rngs = append(b.rngs, rand.New(rand.NewSource(0)))
	}
	grow := func(n int) {
		for len(b.heaps) < n {
			b.heaps = append(b.heaps, nil)
			b.orders = append(b.orders, nil)
		}
	}
	grow(width)
	if cap(b.mode) < width {
		b.mode = make([]mc.Mode, width)
		b.hcReady = make([]int32, width)
		b.now = make([]float64, width)
		b.lastHIEnter = make([]float64, width)
		b.interrupted = make([]int32, width)
		b.preempts = make([]uint64, width)
		b.mets = make([]Metrics, width)
	}
	b.mode = b.mode[:width]
	b.hcReady = b.hcReady[:width]
	b.now = b.now[:width]
	b.lastHIEnter = b.lastHIEnter[:width]
	b.interrupted = b.interrupted[:width]
	b.preempts = b.preempts[:width]
	b.mets = b.mets[:width]
	for r := 0; r < width; r++ {
		b.mode[r] = mc.LO
		b.hcReady[r] = 0
		b.now[r] = 0
		b.lastHIEnter[r] = 0
		b.interrupted[r] = -1
		b.preempts[r] = 0
		b.mets[r] = Metrics{Time: b.cfg.Horizon}
		b.heaps[r] = b.heaps[r][:0]
		b.orders[r] = b.orders[r][:0]
	}
	// Pre-grow the slot pool to the steady-state ready population and
	// place every slot on the free list (lowest slot on top).
	n := width * len(b.tasks)
	for len(b.jobTask) < n {
		b.extend()
	}
	for s := n - 1; s >= 0; s-- {
		b.freeJobs = append(b.freeJobs, int32(s))
	}
}

// alloc returns a free job slot, extending the SoA arrays when the pool
// is dry (deadline backlog). Fields are fully rewritten at release, so
// recycled slots need no zeroing.
func (b *batchSim) alloc() int32 {
	if n := len(b.freeJobs); n > 0 {
		s := b.freeJobs[n-1]
		b.freeJobs = b.freeJobs[:n-1]
		return s
	}
	return b.extend()
}

// extend appends one zeroed slot to every SoA array.
func (b *batchSim) extend() int32 {
	s := int32(len(b.jobTask))
	b.jobTask = append(b.jobTask, 0)
	b.jobRelease = append(b.jobRelease, 0)
	b.jobAbsDL = append(b.jobAbsDL, 0)
	b.jobVirtDL = append(b.jobVirtDL, 0)
	b.jobRemaining = append(b.jobRemaining, 0)
	b.jobConsumed = append(b.jobConsumed, 0)
	b.jobDegraded = append(b.jobDegraded, false)
	b.jobHeapIdx = append(b.jobHeapIdx, 0)
	b.jobOrderIdx = append(b.jobOrderIdx, 0)
	return s
}

// advance runs replication r's scheduler from its current instant to
// until — an epoch boundary, or the horizon when final is true. It is
// the scalar event loop between releases: pick the EDF-VD front job, run
// it to its next milestone (completion, C^LO exhaustion, or the
// boundary), handle mode switches and completions, repeat.
func (b *batchSim) advance(r int, until float64, final bool) {
	m := &b.mets[r]
	for {
		run := int32(-1)
		if h := b.heaps[r]; len(h) > 0 {
			run = h[0]
		}
		if itr := b.interrupted[r]; itr >= 0 {
			// The interrupted job is still ready, so slot identity is
			// stable: a different front job means the epoch's releases
			// preempted it.
			if run != itr {
				b.preempts[r]++
			}
			b.interrupted[r] = -1
		}
		if run < 0 {
			b.now[r] = until
			return
		}
		ti := int(b.jobTask[run])
		milestone := b.jobRemaining[run]
		budgetSwitch := false
		if b.mode[r] == mc.LO && b.tasks[ti].Crit == mc.HC {
			if budgetLeft := b.tasks[ti].CLO - b.jobConsumed[run]; budgetLeft < milestone {
				milestone = budgetLeft
				budgetSwitch = true
			}
		}
		end := b.now[r] + milestone
		if end > until {
			delta := until - b.now[r]
			b.jobRemaining[run] -= delta
			b.jobConsumed[run] += delta
			m.BusyTime += delta
			b.now[r] = until
			if !final {
				b.interrupted[r] = run
			}
			return
		}
		b.jobRemaining[run] -= milestone
		b.jobConsumed[run] += milestone
		m.BusyTime += milestone
		b.now[r] = end
		if budgetSwitch && b.jobRemaining[run] > 0 {
			b.enterHI(r)
			continue
		}
		if b.jobRemaining[run] <= 1e-12 {
			b.removeReady(r, run)
			missed := b.now[r] > b.jobAbsDL[run]+1e-9
			if b.tasks[ti].Crit == mc.HC {
				m.HCCompleted++
				if missed {
					m.HCMisses++
				}
			} else {
				m.LCCompleted++
				if missed {
					m.LCMisses++
				}
			}
			b.freeJobs = append(b.freeJobs, run)
			if b.mode[r] == mc.HI && b.hcReady[r] == 0 {
				b.mode[r] = mc.LO
				m.TimeInHI += b.now[r] - b.lastHIEnter[r]
			}
		}
	}
}

// release hands replication r one job of task i at instant at —
// the scalar release() minus the next-release push (the shared skeleton
// owns that) and the jitter draw (jitter configs never reach this path).
func (b *batchSim) release(r, i int, at float64) {
	t := &b.tasks[i]
	m := &b.mets[r]
	// The execution draw happens before any drop decision, exactly like
	// the scalar path: dropped LC jobs still consume their draw.
	exec := b.drawExec(r, i, t)
	degraded := false
	if t.Crit == mc.HC {
		m.HCReleased++
		if exec > t.CLO {
			m.Overruns++
		}
	} else {
		m.LCReleased++
		if b.mode[r] == mc.HI {
			switch b.cfg.Policy {
			case DropAll:
				m.LCDropped++
				return
			case Degrade:
				degraded = true
				m.LCDegraded++
				exec *= b.cfg.DegradeFactor
			}
		}
	}
	j := b.alloc()
	b.jobTask[j] = int32(i)
	b.jobRelease[j] = at
	b.jobAbsDL[j] = at + t.Period
	b.jobVirtDL[j] = at + t.Period
	b.jobRemaining[j] = exec
	b.jobConsumed[j] = 0
	b.jobDegraded[j] = degraded
	if t.Crit == mc.HC && b.mode[r] == mc.LO {
		b.jobVirtDL[j] = at + b.cfg.X*t.Period
	}
	b.addReady(r, j)
}

func (b *batchSim) drawExec(r, i int, t *mc.Task) float64 {
	d := b.exec[i]
	if d == nil {
		return t.CLO
	}
	x := d.Sample(b.rngs[r])
	if x < 0 {
		x = 0
	}
	limit := t.CHI
	if t.Crit == mc.LC {
		limit = t.CLO
	}
	if x > limit {
		x = limit
	}
	return x
}

// enterHI switches replication r to HI mode: HC jobs regain their real
// deadlines, LC jobs are dropped or degraded in insertion order (the
// scalar drop order), and the ready heap is rebuilt in O(n).
func (b *batchSim) enterHI(r int) {
	m := &b.mets[r]
	b.mode[r] = mc.HI
	m.ModeSwitches++
	b.lastHIEnter[r] = b.now[r]
	order := b.orders[r]
	kept := order[:0]
	for _, j := range order {
		if b.tasks[b.jobTask[j]].Crit == mc.HC {
			b.jobVirtDL[j] = b.jobAbsDL[j]
			b.jobOrderIdx[j] = int32(len(kept))
			kept = append(kept, j)
			continue
		}
		switch b.cfg.Policy {
		case DropAll:
			m.LCDropped++
			b.freeJobs = append(b.freeJobs, j)
		case Degrade:
			if !b.jobDegraded[j] {
				b.jobDegraded[j] = true
				m.LCDegraded++
				b.jobRemaining[j] *= b.cfg.DegradeFactor
			}
			b.jobOrderIdx[j] = int32(len(kept))
			kept = append(kept, j)
		}
	}
	b.orders[r] = kept
	h := append(b.heaps[r][:0], kept...)
	for idx, j := range h {
		b.jobHeapIdx[j] = int32(idx)
	}
	for idx := len(h)/2 - 1; idx >= 0; idx-- {
		b.down(h, idx)
	}
	b.heaps[r] = h
}

func (b *batchSim) addReady(r int, j int32) {
	b.jobOrderIdx[j] = int32(len(b.orders[r]))
	b.orders[r] = append(b.orders[r], j)
	h := append(b.heaps[r], j)
	b.jobHeapIdx[j] = int32(len(h) - 1)
	b.up(h, len(h)-1)
	b.heaps[r] = h
	if b.tasks[b.jobTask[j]].Crit == mc.HC {
		b.hcReady[r]++
	}
}

func (b *batchSim) removeReady(r int, j int32) {
	o := b.orders[r]
	last := len(o) - 1
	moved := o[last]
	o[b.jobOrderIdx[j]] = moved
	b.jobOrderIdx[moved] = b.jobOrderIdx[j]
	b.orders[r] = o[:last]
	h := b.heaps[r]
	i := int(b.jobHeapIdx[j])
	n := len(h) - 1
	lastJ := h[n]
	h = h[:n]
	b.heaps[r] = h
	if i != n {
		h[i] = lastJ
		b.jobHeapIdx[lastJ] = int32(i)
		if !b.down(h, i) {
			b.up(h, i)
		}
	}
	if b.tasks[b.jobTask[j]].Crit == mc.HC {
		b.hcReady[r]--
	}
}

// less is the EDF-VD priority over job slots: earliest virtual deadline,
// ties broken by task ID — jobLess on the SoA layout.
func (b *batchSim) less(x, y int32) bool {
	if b.jobVirtDL[x] != b.jobVirtDL[y] {
		return b.jobVirtDL[x] < b.jobVirtDL[y]
	}
	return b.tasks[b.jobTask[x]].ID < b.tasks[b.jobTask[y]].ID
}

func (b *batchSim) up(h []int32, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !b.less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		b.jobHeapIdx[h[i]] = int32(i)
		b.jobHeapIdx[h[p]] = int32(p)
		i = p
	}
}

func (b *batchSim) down(h []int32, i int) bool {
	i0 := i
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if rt := l + 1; rt < n && b.less(h[rt], h[l]) {
			m = rt
		}
		if !b.less(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		b.jobHeapIdx[h[i]] = int32(i)
		b.jobHeapIdx[h[m]] = int32(m)
		i = m
	}
	return i > i0
}
