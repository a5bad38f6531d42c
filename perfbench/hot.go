package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"chebymc/internal/serve"
)

// The serve-hot corpus: hotCorpus logical requests drawn with a zipf law
// of skew hotZipfS, each also encoded as hotVariants byte-variants. The
// corpus size and skew are examples/loadtest's, the shape that harness
// takes for an admission-control cache: a few standard configurations
// dominate and a long tail stays cold. The corpus splits into the classes
// in serve-cold's shares, so both serve workloads carry one mix.
//
// A share hotVariantShare of requests sends a variant. That share is an
// assumption, not a measurement: it puts a fifth of the load on the L2
// path, enough for that path to move the figures. Variants are reused
// round-robin, and there are far more of them than L1 entries, so a
// variant has left L1 before it comes round again: variants miss L1 and
// hit L2, canonical bodies hit L1.
const (
	hotCorpus       = 64
	hotZipfS        = 1.3
	hotVariants     = 128
	hotVariantShare = 0.2
	hotL1, hotL2    = 256, 4096
	// hotSeqLen is the length of each client's pre-drawn request
	// sequence, replayed cyclically.
	hotSeqLen = 1 << 16
	// One request in hotSampleEvery keeps its latency, and its span when
	// traced.
	hotSampleEvery = 64
	// hotRateCap bounds one client's requests per second for sizing the
	// latency store in set-up; it is several times the rate measured on
	// a two-vCPU machine. A faster client overwrites its oldest samples.
	hotRateCap = 400_000
)

type hot struct {
	handler http.Handler
	bodies  [][]byte // canonical bodies first, then every variant
	logical []int    // logical request of each body
	want    [][]byte // expected hit response per logical request
	seqs    [][]int  // per client: body indices
	// kept is each client's latency store, written through in set-up so
	// the timed phase neither allocates nor faults to fill it.
	kept [][]uint32
}

func setupHot(seed int64, d time.Duration, _ int) (runner, error) {
	h := &hot{handler: newService(serve.Config{CacheEntries: hotL2, L1Entries: hotL1, Concurrency: nproc})}
	r := rand.New(rand.NewSource(seed))
	var reqs []request
	var mix [numClasses]int
	for class := classGA; class < numClasses; class++ {
		mix[class] = int(coldShare[class]*hotCorpus + 0.5)
	}
	mix[classUniform] = hotCorpus - mix[classGA] - mix[classGA4]
	for class, n := range mix {
		for i := 0; i < n; i++ {
			q, err := newRequest(r, class, int64(len(reqs)))
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, q)
		}
	}
	rec := newRecorder()
	for i := range reqs {
		body, err := reqs[i].encode(0)
		if err != nil {
			return nil, err
		}
		// Warm both levels: the first call computes (L2 and L1 insert),
		// the second must be an L1 hit with the same assignment bytes.
		rec.reset()
		h.handler.ServeHTTP(rec, post(body))
		if rec.status != http.StatusOK {
			return nil, fmt.Errorf("warm-up request %d answered %d: %s", i, rec.status, rec.body.Bytes())
		}
		if err := checkResponse(&reqs[i], rec.body.Bytes()); err != nil {
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
		want, ok := bytes.CutPrefix(rec.body.Bytes(), []byte(`{"cache":"miss"`))
		if !ok {
			return nil, fmt.Errorf("warm-up request %d was not a miss: %.40s", i, rec.body.Bytes())
		}
		want = append([]byte(`{"cache":"hit"`), want...)
		rec.reset()
		h.handler.ServeHTTP(rec, post(body))
		if !bytes.Equal(rec.body.Bytes(), want) {
			return nil, fmt.Errorf("warm-up request %d: the cached answer differs from the cold one", i)
		}
		h.bodies = append(h.bodies, body)
		h.logical = append(h.logical, i)
		h.want = append(h.want, want)
	}
	seen := map[string]bool{}
	for i := range reqs {
		for v := 1; v <= hotVariants; v++ {
			body, err := reqs[i].encode(v)
			if err != nil {
				return nil, err
			}
			if seen[string(body)] {
				return nil, fmt.Errorf("variant %d of request %d repeats another body", v, i)
			}
			seen[string(body)] = true
			h.bodies = append(h.bodies, body)
			h.logical = append(h.logical, i)
		}
	}
	zipf := rand.NewZipf(r, hotZipfS, 1, uint64(len(reqs)-1))
	for c := 0; c < nproc; c++ {
		used := make([]int, len(reqs)) // variants of each request this client sent
		seq := make([]int, hotSeqLen)
		for j := range seq {
			l := int(zipf.Uint64())
			seq[j] = l
			if r.Float64() < hotVariantShare {
				// Clients take disjoint variants, so a variant's reuse
				// distance is a full cycle of the whole pool.
				v := (c + nproc*used[l]) % hotVariants
				used[l]++
				seq[j] = len(reqs) + l*hotVariants + v
			}
		}
		h.seqs = append(h.seqs, seq)
		kept := make([]uint32, int(d.Seconds()*hotRateCap/hotSampleEvery)+1)
		for i := range kept {
			kept[i] = 0
		}
		h.kept = append(h.kept, kept)
	}
	return h, nil
}

// bodyReader is a request body that can be rewound, so one http.Request
// serves every call of a client.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

type hotClient struct {
	n       int64    // requests sent
	kept    []uint32 // latency in ns of every hotSampleEvery-th request
	failed  int64
	problem string
	end     time.Time
}

func (h *hot) measure(d time.Duration, tr *tracer) (*phase, error) {
	clients := make([]hotClient, nproc)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	before := readCounters()
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h.client(c, &clients[c], deadline, tr)
		}(c)
	}
	wg.Wait()
	after := readCounters()

	p := &phase{rssMB: peakRSSMB(), figures: map[string]float64{}, layers: map[string]float64{}}
	var kept []uint32
	var end time.Time
	for c := range clients {
		cl := &clients[c]
		p.attempted += cl.n
		p.failed += cl.failed
		if cl.problem != "" {
			p.problem("serve-hot client %d: %s", c, cl.problem)
		}
		kept = append(kept, cl.kept...)
		if cl.end.After(end) {
			end = cl.end
		}
	}
	slices.Sort(kept)
	us := func(q float64) float64 { return float64(kept[int(q*float64(len(kept)-1))]) / 1e3 }
	rps := float64(p.attempted) / end.Sub(t0).Seconds()
	p.opP50 = us(0.5) / 1e6
	p.cost = 1 / rps
	p.figures["fail_ratio"] = ratio(float64(p.failed), float64(p.attempted))
	p.figures["hot_rps"] = rps
	p.figures["hot_p50_us"] = us(0.5)
	p.figures["hot_p99_us"] = us(0.99)
	if tr != nil {
		dl := after.since(before)
		n := float64(p.attempted)
		runtimeLayers(dl, n, p.layers)
		serveLayers(dl, n, p.layers)
		p.layers["serve.hit.handler_us"] = us(0.5)
		p.layers["serve.hit.handler_p99_us"] = us(0.99)
	}
	return p, nil
}

// client is one closed-loop client: it sends its sequence cyclically,
// each request after the previous answer, until the deadline, and checks
// every answer byte for byte against the cold answer.
func (h *hot) client(c int, cl *hotClient, deadline time.Time, tr *tracer) {
	var body bodyReader
	req := post(nil)
	req.Body = &body
	rec := newRecorder()
	seq := h.seqs[c]
	store := h.kept[c]
	for j := 0; ; j++ {
		b := seq[j%len(seq)]
		body.Reset(h.bodies[b])
		rec.reset()
		start := time.Now()
		h.handler.ServeHTTP(rec, req)
		end := time.Now()
		cl.n++
		if rec.status != http.StatusOK {
			cl.failed++
			if cl.problem == "" {
				cl.problem = fmt.Sprintf("body %d answered %d: %.120s", b, rec.status, rec.body.Bytes())
			}
		} else if !bytes.Equal(rec.body.Bytes(), h.want[h.logical[b]]) {
			cl.failed++
			if cl.problem == "" {
				cl.problem = fmt.Sprintf("body %d: the cached answer differs from the cold one: %.80s", b, rec.body.Bytes())
			}
		}
		if j%hotSampleEvery == 0 {
			store[(j/hotSampleEvery)%len(store)] = uint32(end.Sub(start).Nanoseconds())
		}
		if tr != nil && j%hotSampleEvery == 0 {
			tr.add(tr.id(), 0, "serve.assign.hit", int64(c)<<40|int64(j), start, end)
		}
		if end.After(deadline) {
			cl.end = end
			cl.kept = store[:min(j/hotSampleEvery+1, len(store))]
			return
		}
	}
}
