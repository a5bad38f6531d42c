package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"syscall"
	"time"

	"chebymc/internal/ga"
	"chebymc/internal/mc"
	"chebymc/internal/multicore"
	"chebymc/internal/obs"
	"chebymc/internal/partition"
	"chebymc/internal/policy"
	"chebymc/internal/serve"
)

// The serve-cold offered load: coldRate requests per second on a Poisson
// schedule, in classes of fixed shares. The count per phase and per class
// is fixed (arrival times are then uniform order statistics, which is the
// Poisson process given its count), so a phase's work does not vary with
// the seed beyond the task sets themselves.
//
// Neither the rate nor the shares come from measured traffic; no traffic
// of this service has been recorded. They are assumptions chosen for the
// measurement: at this rate and mix the service is busy about a seventh
// of the time, so the queue does not grow on a two-vCPU machine, and a
// 25-second run holds about 340 ga and 225 ga4 requests, enough for a p99
// with three or more samples beyond it. Uniform requests, the cheap path
// the cache write path dominates, make up the rest.
const coldRate = 150.0

var coldShare = [numClasses]float64{0.85, 0.09, 0.06}

const (
	// coldCache is the entry bound of both cache levels; coldPrefill
	// unique requests fill every shard before the timed phase, so each
	// timed request inserts an entry and evicts another.
	coldCache, coldPrefill = 256, 1024
	// replayPerClass is how many traced requests per class are replayed
	// through the policy alone to measure compute time.
	replayPerClass = 64
	// coldRespBytes is the response space reserved per request in set-up
	// (answers average about 1.7 KiB, ga4 answers about 3.7 KiB), so the
	// timed phase keeps every answer for the check without allocating.
	coldRespBytes = 2560
)

type coldReq struct {
	request
	at   time.Duration // scheduled send time from the phase start
	body []byte

	// The outcome, filled in by the timed phase.
	pickup, start, end time.Duration // from the phase start
	status             int
	resp               []byte
}

type cold struct {
	handler http.Handler
	plans   [][]coldReq
	// arena holds the answers of one phase (see mapArena).
	arena []byte
}

func newService(cfg serve.Config) http.Handler {
	obs.SetEnabled(true) // as cmd/mcserve sets it
	mux := http.NewServeMux()
	serve.New(cfg).Mount(mux)
	return mux
}

func setupCold(seed int64, d time.Duration, phases int) (runner, error) {
	c := &cold{handler: newService(serve.Config{
		CacheEntries: coldCache, L1Entries: coldCache, Concurrency: nproc,
	})}
	r := rand.New(rand.NewSource(seed))
	rec := newRecorder()
	for i := 0; i < coldPrefill; i++ {
		q, err := newRequest(r, classUniform, int64(i))
		if err != nil {
			return nil, err
		}
		body, err := q.encode(0)
		if err != nil {
			return nil, err
		}
		rec.reset()
		c.handler.ServeHTTP(rec, post(body))
		if rec.status != http.StatusOK {
			return nil, fmt.Errorf("prefill request answered %d: %s", rec.status, rec.body.Bytes())
		}
	}
	n := int(coldRate * d.Seconds())
	for p := 0; p < phases; p++ {
		classes := make([]int, 0, n)
		for class, share := range coldShare {
			for k := 0; k < int(share*float64(n)+0.5) && len(classes) < n; k++ {
				classes = append(classes, class)
			}
		}
		r.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		at := make([]float64, len(classes))
		for i := range at {
			at[i] = r.Float64() * d.Seconds()
		}
		sort.Float64s(at)
		plan := make([]coldReq, len(classes))
		for i, class := range classes {
			// Seeds are unique across the prefill and every phase, so
			// every body is unique.
			q, err := newRequest(r, class, int64(p+1)<<32|int64(i))
			if err != nil {
				return nil, err
			}
			body, err := q.encode(0)
			if err != nil {
				return nil, err
			}
			plan[i] = coldReq{request: q, at: time.Duration(at[i] * float64(time.Second)), body: body}
		}
		c.plans = append(c.plans, plan)
	}
	arena, err := mapArena(n * coldRespBytes)
	if err != nil {
		return nil, err
	}
	c.arena = arena
	return c, nil
}

// mapArena returns n bytes of anonymous memory outside the Go heap with
// every page written, so the timed phase neither allocates nor faults to
// keep answers for the check. Kept there, they add a constant to the
// resident set but nothing to the live heap the garbage collector sizes
// the program's heap from.
func mapArena(n int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the answer arena: %w", err)
	}
	for i := range b {
		b[i] = 0
	}
	return b, nil
}

func post(body []byte) *http.Request {
	req, _ := http.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(body)) // a constant method and path cannot fail
	return req
}

func (c *cold) measure(_ time.Duration, tr *tracer) (*phase, error) {
	if len(c.plans) == 0 {
		return nil, fmt.Errorf("serve-cold: no request plan left for another phase")
	}
	plan := c.plans[0]
	c.plans = c.plans[1:]
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	before := readCounters()
	t0 := time.Now()
	// One sender, so one request is in flight and the queueing is set by
	// the schedule alone: on a machine whose vCPUs share one core's worth
	// of time, two senders would make every overlap a contest for the
	// hypervisor's time slices.
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The thread exits with the goroutine, taking its timer slack
		// setting with it.
		runtime.LockOSThread()
		syscall.RawSyscall(syscall.SYS_PRCTL, 29 /* PR_SET_TIMERSLACK */, 1, 0) //nolint:errcheck // coarser sleeps only make the generator later, which gen.late_p99_ms reports
		rec := newRecorder()
		arena := c.arena
		for i := range plan {
			q := &plan[i]
			req := post(q.body)
			clear(rec.header)
			rec.status, rec.body = 0, *bytes.NewBuffer(arena[:0:len(arena)])
			q.pickup = time.Since(t0)
			sleepUntil(t0.Add(q.at))
			start := time.Now()
			c.handler.ServeHTTP(rec, req)
			end := time.Now()
			q.start, q.end = start.Sub(t0), end.Sub(t0)
			q.status, q.resp = rec.status, rec.body.Bytes()
			if len(q.resp) <= len(arena) { // else the buffer moved off the arena
				arena = arena[len(q.resp):]
			}
			if tr != nil {
				root := tr.id()
				tr.add(tr.id(), root, "serve.assign", int64(i), start, end)
				tr.add(root, 0, "request."+classNames[q.class], int64(i), t0.Add(q.at), end)
			}
		}
	}()
	<-done
	after := readCounters()

	p := &phase{rssMB: peakRSSMB(), figures: map[string]float64{}, layers: map[string]float64{}}
	var lat, handler, wait [numClasses][]float64
	var all, late []float64
	var last time.Duration
	for i := range plan {
		q := &plan[i]
		p.attempted++
		if q.status != http.StatusOK {
			// Every set is built to be admitted, so any other answer,
			// 422 included, is a fault of the program.
			p.failed++
			p.problem("serve-cold request %d (%s) answered %d: %.120s", i, classNames[q.class], q.status, q.resp)
			continue
		}
		if err := checkResponse(&q.request, q.resp); err != nil {
			p.failed++
			p.problem("serve-cold request %d (%s): %v", i, classNames[q.class], err)
			continue
		}
		l := (q.end - q.at).Seconds()
		all = append(all, l)
		lat[q.class] = append(lat[q.class], l)
		handler[q.class] = append(handler[q.class], (q.end - q.start).Seconds())
		wait[q.class] = append(wait[q.class], (q.start - q.at).Seconds())
		late = append(late, (q.start - max(q.at, q.pickup)).Seconds())
		last = max(last, q.end)
	}
	p.opP50 = quantile(all, 0.5)
	p.cost = mean(all)
	p.figures["fail_ratio"] = ratio(float64(p.failed), float64(p.attempted))
	p.figures["uniform_p50_us"] = 1e6 * quantile(lat[classUniform], 0.5)
	p.figures["uniform_p99_us"] = 1e6 * quantile(lat[classUniform], 0.99)
	p.figures["ga_p50_ms"] = 1e3 * quantile(lat[classGA], 0.5)
	p.figures["ga_p99_ms"] = 1e3 * quantile(lat[classGA], 0.99)
	p.figures["ga4_p50_ms"] = 1e3 * quantile(lat[classGA4], 0.5)
	p.figures["ga4_p99_ms"] = 1e3 * quantile(lat[classGA4], 0.99)
	if tr == nil {
		return p, nil
	}
	d := after.since(before)
	n := float64(len(plan))
	runtimeLayers(d, n, p.layers)
	serveLayers(d, n, p.layers)
	p.layers["gen.late_p99_ms"] = 1e3 * quantile(late, 0.99)
	p.layers["gen.achieved_rps"] = ratio(float64(len(all)), last.Seconds())
	for class, name := range classNames {
		compute, err := replay(plan, class, tr)
		if err != nil {
			return nil, err
		}
		h := 1e6 * quantile(handler[class], 0.5)
		p.layers["serve."+name+".handler_us"] = h
		p.layers["serve."+name+".wait_us"] = 1e6 * quantile(wait[class], 0.5)
		p.layers["compute."+name+".us"] = compute
		p.layers["serve."+name+".overhead_us"] = h - compute
	}
	return p, nil
}

// serveLayers reports the service's cache and admission-gate counters,
// normalised per request.
func serveLayers(d delta, n float64, into map[string]float64) {
	l1h, l1m := d.get("serve_l1cache_hits_total"), d.get("serve_l1cache_misses_total")
	l2h, l2m := d.get("serve_cache_hits_total"), d.get("serve_cache_misses_total")
	into["serve.l1.hit_ratio"] = ratio(l1h, l1h+l1m)
	into["serve.l2.hit_ratio"] = ratio(l2h, l2h+l2m)
	into["serve.l2.evictions"] = ratio(d.get("serve_cache_evictions_total"), n)
	into["serve.queue_rejected"] = ratio(d.get("serve_queue_rejected_total"), n)
	into["serve.flight_shared"] = ratio(d.get("serve_flight_shared_total"), n)
	into["serve.errors"] = ratio(d.get("serve_errors_total"), n)
	into["alloc.bytes_per_req"] = ratio(d.allocBytes, n)
	into["alloc.objs_per_req"] = ratio(d.allocObj, n)
}

// replay runs the first replayPerClass requests of one class through the
// policy alone — policy.AssignCtx, or multicore.System.AssignCtx for ga4,
// seeded as the service seeds them — and returns the median call time in
// microseconds.
func replay(plan []coldReq, class int, tr *tracer) (float64, error) {
	ctx := context.Background()
	gaPol := policy.ChebyshevGA{Config: ga.Config{Workers: 1}}
	sys, err := multicore.New(multicore.Config{Cores: 4, Heuristic: partition.WorstFit, Policy: gaPol, Workers: 1})
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := range plan {
		q := &plan[i]
		if q.class != class {
			continue
		}
		if len(times) == replayPerClass {
			break
		}
		ts, err := mc.NewTaskSet(q.tasks)
		if err != nil {
			return 0, err
		}
		r := rand.New(rand.NewSource(q.seed))
		start := time.Now()
		switch class {
		case classUniform:
			_, err = policy.AssignCtx(ctx, policy.ChebyshevUniform{N: q.n}, ts, r)
		case classGA:
			_, err = policy.AssignCtx(ctx, gaPol, ts, r)
		default:
			_, err = sys.AssignCtx(ctx, ts, r)
		}
		end := time.Now()
		if err != nil {
			return 0, fmt.Errorf("replaying %s request %d: %w", classNames[class], i, err)
		}
		tr.add(tr.id(), 0, "compute."+classNames[class], int64(i), start, end)
		times = append(times, end.Sub(start).Seconds())
	}
	return 1e6 * quantile(times, 0.5), nil
}

// sleepUntil blocks the calling thread until t. time.Sleep wakes up to a
// millisecond late here, so it sleeps with nanosleep to just short of t
// and spins the rest, which also keeps the vCPU awake for the request.
func sleepUntil(t time.Time) {
	const spin = 200 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up only spins longer
	}
	for time.Now().Before(t) {
	}
}
