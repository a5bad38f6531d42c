// Package serve is the WCET-assignment-as-a-service core behind
// cmd/mcserve: HTTP/JSON handlers that turn the paper's offline pipeline
// — task set in, Chebyshev/GA C^LO assignment + EDF-VD verdict +
// predicted P_sys^MS out — into an admission-control endpoint a fleet
// scheduler can hit millions of times.
//
// The performance core is a two-level cross-request result cache:
//
//   - L1 keys the raw request bytes. The handler is a pure function of
//     the body given fixed server configuration, so identical bytes
//     answer without even decoding JSON — the sub-microsecond path that
//     serves repeat traffic at ≥100k/s on one box.
//   - L2 keys the canonical byte string of the decoded request (see
//     digest.go): re-serialised, re-ordered or re-formatted repeats of
//     the same logical query collide here after one decode.
//
// Either level addresses its entries by a 64-bit hash (L1 by
// hash/maphash under a per-Service seed, L2 by FNV-1a, whose digest
// every response envelope prints) but verifies every hit against the
// stored key bytes, so a hash collision is a miss — never another
// request's cached verdict.
//
// Both levels are sharded, size-bounded LRUs storing the *marshaled*
// assignment bytes, so a hit never re-encodes — and a cold, cached or
// post-restart response carries byte-identical assignment JSON, because
// the compute path is deterministic in (task set, policy, bound, seed)
// and the bytes are marshaled exactly once per digest.
//
// Cold requests pass a bounded admission gate (compute slots + a finite
// wait queue; saturation answers 429 with Retry-After) under a
// per-request deadline whose context cancels the GA mid-search, and
// concurrent misses of the same digest collapse to one compute
// (single-flight). Drain flips the service to 503 for new work and waits
// for in-flight requests — nothing accepted is ever dropped.
package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chebymc/internal/obs"
)

// Config tunes a Service. The zero value of any field selects its
// default.
type Config struct {
	// CacheEntries bounds the L2 canonical-digest cache; default 65536.
	// Negative disables the cache (every request computes).
	CacheEntries int
	// L1Entries bounds the L1 exact-bytes cache; default CacheEntries.
	L1Entries int
	// Concurrency is the number of concurrent compute slots (cold-path
	// assignments and fits); default NumCPU.
	Concurrency int
	// QueueDepth is how many requests may wait for a slot beyond the
	// ones holding slots; default 256. Saturation answers 429.
	QueueDepth int
	// Deadline bounds one request's compute (queue wait + GA search);
	// default 10s. The expiring context cancels the GA mid-generation.
	Deadline time.Duration
	// GAWorkers is the fitness-evaluation fan-out within one GA request;
	// default 1 (request-level parallelism is the daemon's axis — one
	// core per request keeps 100 concurrent searches from thrashing).
	GAWorkers int
	// MaxBodyBytes caps a request body; default 1 MiB.
	MaxBodyBytes int64
	// Cores is the core count an assign request that omits "cores" is
	// partitioned onto; default 1 (the single-core paper pipeline, with
	// every historical response and cache key byte-identical).
	Cores int
	// Heuristic names the default partitioning rule for multicore
	// assignments (partition.HeuristicByName); empty selects worst-fit.
	// Requests may override both knobs per call.
	Heuristic string
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 65536
	}
	if c.L1Entries == 0 {
		c.L1Entries = c.CacheEntries
	}
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.NumCPU()
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 0 // explicit "no waiting": reject the moment slots are taken
	}
	if c.Deadline == 0 {
		c.Deadline = 10 * time.Second
	}
	if c.GAWorkers <= 0 {
		c.GAWorkers = 1
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Cores <= 0 {
		c.Cores = 1
	}
	return c
}

// Service carries the handlers and their shared state. Create with New,
// mount with Mount, retire with Drain.
type Service struct {
	cfg     Config
	l1, l2  *cache       // nil when caching is disabled
	l1seed  maphash.Seed // keys the L1 locator; the L1 never outlives the process
	flights *flightGroup
	gate    *gate

	draining atomic.Bool
	// inflightN counts requests inside a handler. A plain atomic rather
	// than a WaitGroup: handlers Add concurrently with Drain's wait, the
	// one interleaving WaitGroup documents as misuse.
	inflightN atomic.Int64

	bufs sync.Pool // *[]byte request/response scratch

	assignReqs    *obs.Counter
	fitReqs       *obs.Counter
	errsTotal     *obs.Counter
	queueRejects  *obs.Counter
	flightShared  *obs.Counter
	inflightGauge *obs.Gauge
	assignSeconds *obs.Histogram
	fitSeconds    *obs.Histogram
}

// latencyBuckets spans the service's dynamic range: µs-scale cache hits
// to second-scale cold GA searches.
var latencyBuckets = []float64{
	1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
	1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5,
}

// New builds a Service.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		l1seed:  maphash.MakeSeed(),
		flights: newFlightGroup(),
		gate:    newGate(cfg.Concurrency, cfg.QueueDepth),

		assignReqs:    obs.Default.Counter("serve_assign_requests_total", "POST /v1/assign requests received"),
		fitReqs:       obs.Default.Counter("serve_fit_requests_total", "POST /v1/fit requests received"),
		errsTotal:     obs.Default.Counter("serve_errors_total", "requests answered with an error envelope"),
		queueRejects:  obs.Default.Counter("serve_queue_rejected_total", "requests rejected 429 by the saturated admission queue"),
		flightShared:  obs.Default.Counter("serve_flight_shared_total", "requests served from another request's in-flight compute (stampede dedup)"),
		inflightGauge: obs.Default.Gauge("serve_inflight_requests", "requests currently inside a handler"),
		assignSeconds: obs.Default.Histogram("serve_assign_seconds", "assign request latency", latencyBuckets),
		fitSeconds:    obs.Default.Histogram("serve_fit_seconds", "fit request latency", latencyBuckets),
	}
	if cfg.CacheEntries > 0 {
		s.l2 = newCache(cfg.CacheEntries, "serve_cache")
		s.l1 = newCache(cfg.L1Entries, "serve_l1cache")
	}
	s.bufs.New = func() any {
		b := make([]byte, 0, 4096)
		return &b
	}
	return s
}

// Mount registers the service's routes on mux — the hook shape
// obs.ServeWith takes, so the daemon shares one listener between the API
// and the diagnostics endpoints.
func (s *Service) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/v1/assign", s.handleAssign)
	mux.HandleFunc("/v1/fit", s.handleFit)
	mux.HandleFunc("/healthz", s.handleHealthz)
}

// Drain retires the service: new requests are answered 503 (the load
// balancer's signal to look elsewhere) while every request already
// inside a handler runs to completion. It returns once the service is
// empty, or ctx's error if the deadline passes first — in-flight
// requests keep running either way; an accepted request is never
// abandoned by the drain itself.
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Store(true)
	// Poll the in-flight count. The flag is set before the first check,
	// so any request that increments afterwards observes it and leaves
	// promptly with 503; requests counted before it complete their work.
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for {
		if s.inflightN.Load() == 0 {
			return nil
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return fmt.Errorf("serve: drain deadline with %d requests still in flight: %w",
				s.inflightN.Load(), ctx.Err())
		}
	}
}

// Draining reports whether Drain has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n")) //nolint:errcheck
		return
	}
	w.Write([]byte("ok\n")) //nolint:errcheck
}

// enter performs the shared handler prologue: in-flight accounting plus
// the method and draining gates. It reports whether the request may
// proceed; on a true return the caller owes one `defer s.exit()` (enter
// pairs its own exit on rejection).
func (s *Service) enter(w http.ResponseWriter, r *http.Request) bool {
	s.inflightN.Add(1)
	s.inflightGauge.Add(1)
	if r.Method != http.MethodPost {
		s.fail(w, errMethod(r.Method))
		s.exit()
		return false
	}
	if s.draining.Load() {
		s.fail(w, errDraining())
		s.exit()
		return false
	}
	return true
}

func (s *Service) exit() {
	s.inflightGauge.Add(-1)
	s.inflightN.Add(-1)
}

// fail writes the structured error envelope and counts it.
func (s *Service) fail(w http.ResponseWriter, err error) {
	s.errsTotal.Inc()
	writeError(w, err)
}

func (s *Service) getBuf() *[]byte  { return s.bufs.Get().(*[]byte) }
func (s *Service) putBuf(b *[]byte) { *b = (*b)[:0]; s.bufs.Put(b) }

// readBody reads the request body into pooled scratch, enforcing the
// size cap. The returned slice aliases the pool buffer — callers must
// finish with it before putBuf.
func (s *Service) readBody(r *http.Request, scratch *[]byte) ([]byte, *apiError) {
	b := *scratch
	limit := s.cfg.MaxBodyBytes
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		// The cap check must follow the append: a final Read may deliver
		// the overflowing bytes together with io.EOF, and buffer-capacity
		// slack would otherwise let bodies approaching 2× the limit slip
		// through.
		if int64(len(b)) > limit {
			*scratch = b
			return nil, &apiError{status: http.StatusRequestEntityTooLarge, code: CodeBadRequest,
				msg: fmt.Sprintf("request body exceeds %d bytes", limit)}
		}
		if err != nil {
			*scratch = b
			if errors.Is(err, io.EOF) {
				return b, nil
			}
			return nil, errBadRequest("reading body: %v", err)
		}
	}
}

// gate is the bounded admission queue in front of the compute slots:
// `concurrency` requests compute at once, up to `queueDepth` more wait
// for a slot, and anything beyond that is rejected immediately with 429
// — the fail-fast backpressure a closed-loop client can act on. One
// atomic counts everything admitted (holders + waiters); the channel is
// the slot semaphore.
type gate struct {
	slots    chan struct{}
	admitted atomic.Int64
	limit    int64
}

func newGate(concurrency, queueDepth int) *gate {
	return &gate{
		slots: make(chan struct{}, concurrency),
		limit: int64(concurrency + queueDepth),
	}
}

// acquire admits the caller or fails fast. A successful acquire must be
// paired with release.
func (g *gate) acquire(ctx context.Context) error {
	if g.admitted.Add(1) > g.limit {
		g.admitted.Add(-1)
		return errQueueFull()
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		g.admitted.Add(-1)
		return ctx.Err()
	}
}

func (g *gate) release() {
	<-g.slots
	g.admitted.Add(-1)
}
