package serve

import (
	"math"

	"chebymc/internal/mc"
	"chebymc/internal/partition"
	"chebymc/internal/stats"
)

// Cache lookups are verified, never trusted: a cache key is the full
// canonical byte string (fixed-width numbers, length-prefixed strings —
// unambiguous by construction), and the 64-bit FNV-1a over those bytes
// only picks the shard and map slot. A hit additionally compares the
// stored key bytes, so an FNV collision — trivially constructible for a
// 64-bit non-cryptographic hash — degrades to a cache miss, never to
// serving another request's assignment or schedulability verdict.
//
// The canonical key is the L2 identity: every decoded request value the
// response depends on. Two requests whose JSON bodies differ only in
// formatting — field order, whitespace, "1e1" vs "10" — decode to the
// same values and therefore share one key; that is the "near-repeat"
// class the L1 exact-bytes key misses.
//
// What goes in, and why:
//
//   - policy name and its knobs (n, λ range, GA budget, RequireLC, NCap),
//     the seed, and stats.BoundDigest of the resolved bound — everything
//     that steers the search;
//   - per task: ID, name, criticality, period, C^HI, ACET, σ — and C^LO
//     for LC tasks only. An HC task's C^LO is the *output* of the
//     service (the assignment overwrites it), so two queries differing
//     only there are the same query — the common resubmit-an-optimised-
//     set case hits the cache. An LC task's C^LO, by contrast, feeds
//     U^LO_LC and the schedulability verdict, and IDs and names are
//     echoed in the response task set, so all of those must split
//     entries.
//
// Floats are folded as their raw IEEE bits: the cache must distinguish
// what the computation distinguishes, no more, no less.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// digester accumulates canonical key bytes. Numbers are fixed-width
// little-endian and strings are length-prefixed, so distinct value
// sequences can never serialise to the same bytes.
type digester struct {
	buf []byte
}

func (d *digester) byte(b byte) { d.buf = append(d.buf, b) }

func (d *digester) u64(v uint64) {
	d.buf = append(d.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func (d *digester) i64(v int64)   { d.u64(uint64(v)) }
func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digester) boolean(v bool) {
	if v {
		d.byte(1)
	} else {
		d.byte(0)
	}
}

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.buf = append(d.buf, s...)
}

// assignKey builds the canonical key of a decoded, validated assign
// request. bound is the resolved engine (its BoundDigest covers name and
// parameters); cores and heur are the resolved multicore knobs. Those
// two are folded only when cores > 1, as a suffix after the task loop:
// single-core keys keep their historical bytes (cached entries survive
// the multicore feature), and the key stays unambiguous — the task-count
// prefix fixes where the records end, so "ends here" (cores = 1) and
// "0xfe suffix follows" (cores > 1) can never serialise identically.
func assignKey(req *assignRequest, ts *mc.TaskSet, bound stats.Bound, cores int, heur partition.Heuristic, axes modeAxes) []byte {
	d := digester{buf: make([]byte, 0, 64+72*len(ts.Tasks))}
	d.str(req.Policy)
	d.f64(req.N)
	d.f64(req.Lambda)
	d.f64(req.LambdaLo)
	d.f64(req.LambdaHi)
	d.i64(req.Seed)
	d.boolean(req.RequireLC)
	if req.GA != nil {
		d.i64(int64(req.GA.PopSize))
		d.i64(int64(req.GA.Generations))
		d.i64(int64(req.GA.Elites))
		d.f64(req.GA.NCap)
	} else {
		d.byte(0xff) // distinguish "no GA block" from an all-zero one
	}
	d.u64(stats.BoundDigest(bound))
	d.u64(uint64(len(ts.Tasks)))
	for _, t := range ts.Tasks {
		d.i64(int64(t.ID))
		d.str(t.Name)
		d.byte(byte(t.Crit))
		d.f64(t.Period)
		d.f64(t.CHI)
		d.f64(t.Profile.ACET)
		d.f64(t.Profile.Sigma)
		if t.Crit == mc.LC {
			d.f64(t.CLO)
		}
	}
	if cores > 1 {
		d.byte(0xfe)
		d.i64(int64(cores))
		d.str(heur.String())
	}
	// The mode axes follow the same suffix discipline as the multicore
	// knobs: folded only when non-default (tag 0xfd, after any 0xfe
	// suffix), so every historical key — and with it every cached entry
	// and response byte — survives the feature. Canonical spellings go
	// in, so "task" and "task-level" share one entry.
	if !axes.isDefault() {
		d.byte(0xfd)
		d.str(axes.protocol)
		d.str(axes.release)
	}
	return d.buf
}

// fnv64 is FNV-1a over b: the L2 cache's shard-and-slot selector over
// the canonical key from assignKey, and the digest every response
// envelope prints, so it must stay stable across restarts and builds.
// It is only a locator — the hit path compares the stored key bytes.
// (The L1 locates raw bodies by hash/maphash instead: its keys never
// leave the process.)
func fnv64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// digestHex renders a digest as fixed-width lowercase hex, the form the
// response envelope carries.
func digestHex(d uint64) string {
	const hexdigits = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = hexdigits[d&0xf]
		d >>= 4
	}
	return string(buf[:])
}
