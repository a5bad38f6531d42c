package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"chebymc/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Times are nanoseconds since the tracer started; Parent is 0
// for a root span and Req is -1 outside a request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span id, so a parent's id can be handed to its children
// before the parent ends.
func (t *tracer) id() int64 { return t.next.Add(1) }

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent int64, name string, req int64, start, end time.Time) {
	s := span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write dumps the spans as JSON lines, in id order of completion.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters is a reading of the program's own obs counters and of the Go
// runtime's allocation and GC counts, taken at a layer boundary.
type counters struct {
	obs                  obs.Snapshot
	gcCycles             uint64
	allocBytes, allocObj uint64
}

var runtimeSamples = []string{"/gc/cycles/total:gc-cycles", "/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"}

func readCounters() counters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return counters{
		obs:        obs.Default.Snapshot(),
		gcCycles:   s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		allocObj:   s[2].Value.Uint64(),
	}
}

// delta is the change between two readings.
type delta struct {
	obs                  obs.Snapshot
	gcCycles             float64
	allocBytes, allocObj float64
}

func (c counters) since(prev counters) delta {
	return delta{
		obs:        c.obs.DeltaSince(prev.obs),
		gcCycles:   float64(c.gcCycles - prev.gcCycles),
		allocBytes: float64(c.allocBytes - prev.allocBytes),
		allocObj:   float64(c.allocObj - prev.allocObj),
	}
}

// get returns the change of one obs counter (0 if it is not registered).
func (d delta) get(name string) float64 {
	m, _ := d.obs.Get(name)
	return m.Value
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeLayers reports the counters every workload shares, normalised
// per operation so they do not depend on how many operations fitted in
// the phase: GA search, DES, and the Go runtime.
func runtimeLayers(d delta, ops float64, into map[string]float64) {
	evals := d.get("ga_fitness_evals_total")
	full, deltaEvals := d.get("ga_full_evals_total"), d.get("ga_delta_evals_total")
	into["ga.runs"] = ratio(d.get("ga_runs_total"), ops)
	into["ga.fitness_evals"] = ratio(evals, ops)
	into["ga.memo_hit_ratio"] = ratio(d.get("ga_memo_hits_total"), evals)
	into["ga.delta_ratio"] = ratio(deltaEvals, full+deltaEvals)
	runs := d.get("sim_runs_total")
	into["sim.runs"] = ratio(runs, ops)
	into["sim.batch_share"] = ratio(d.get("sim_batch_runs_total"), runs)
	into["sim.preemptions"] = ratio(d.get("sim_preemptions_total"), ops)
	into["sim.mode_switches"] = ratio(d.get("sim_mode_switches_total"), ops)
	into["multicore.partition_rejected"] = ratio(d.get("multicore_partition_rejected_total"), ops)
	into["go.gc_cycles"] = ratio(d.gcCycles, ops)
	into["go.alloc_mb"] = ratio(d.allocBytes/(1<<20), ops)
}
