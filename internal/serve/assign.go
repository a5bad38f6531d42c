package serve

import (
	"context"
	"encoding/json"
	"errors"
	"hash/maphash"
	"math"
	"math/rand"
	"net/http"
	"strings"

	"chebymc/internal/core"
	"chebymc/internal/dbf"
	"chebymc/internal/edfvd"
	"chebymc/internal/ga"
	"chebymc/internal/mc"
	"chebymc/internal/multicore"
	"chebymc/internal/obs"
	"chebymc/internal/partition"
	"chebymc/internal/policy"
	"chebymc/internal/sim"
	"chebymc/internal/stats"
)

// assignRequest is the POST /v1/assign body. Tasks reuse mc.Task's JSON
// shape directly, so a task set round-trips between the experiment
// artifacts and the API without translation. Every knob that steers the
// computation is part of the canonical digest (digest.go); NoCache is
// deliberately not — it changes where the answer comes from, never what
// it is. decode.go's fast decoder names every member by hand: a member
// it does not know sends the body to json.Unmarshal, so a new field is
// decoded correctly before it is added there, only more slowly.
type assignRequest struct {
	Tasks []mc.Task `json:"tasks"`
	// Policy selects the assignment scheme: "ga" (default), "uniform",
	// "lambda", "lambda-range" or "acet".
	Policy string `json:"policy"`
	// N is the shared Chebyshev parameter for policy "uniform".
	N float64 `json:"n"`
	// Lambda is the C^LO = λ·C^HI fraction for policy "lambda".
	Lambda float64 `json:"lambda"`
	// LambdaLo/LambdaHi bound the per-task draw for "lambda-range".
	LambdaLo float64 `json:"lambda_lo"`
	LambdaHi float64 `json:"lambda_hi"`
	// Bound names the concentration inequality (stats.BoundByName);
	// empty keeps the paper's Cantelli default.
	Bound string `json:"bound"`
	// Seed fixes the randomness of stochastic policies; the same seed
	// (with the same task set, policy and bound) yields byte-identical
	// assignment JSON.
	Seed int64 `json:"seed"`
	// RequireLC makes GA assignments that cannot schedule the set's
	// actual LC load infeasible (Fig. 6's configuration).
	RequireLC bool `json:"require_lc"`
	// GA overrides the search budget; nil keeps the paper's defaults.
	GA *gaKnobs `json:"ga"`
	// Cores partitions the set onto this many cores with one independent
	// search per core (internal/multicore); 0 keeps the server default
	// (1 unless mcserve -cores says otherwise). The response then carries
	// a per-core breakdown and the composed system verdicts.
	Cores int `json:"cores"`
	// Heuristic names the partitioning rule (partition.HeuristicByName);
	// empty keeps the server default (worst-fit). Ignored when the
	// resolved core count is 1.
	Heuristic string `json:"heuristic"`
	// Protocol names the mode-switch protocol the assignment is meant to
	// run under ("system-level" default, or "task-level"). The analysis
	// is protocol-independent — EDF-VD's test covers both — so this is
	// echoed (and keyed) rather than recomputed; non-default values get
	// their own cache entries.
	Protocol string `json:"protocol"`
	// Release names the release model ("periodic" default, or
	// "sporadic"). Sporadic requests swap the Eq. 8 verdict for the
	// demand-bound test — periods as minimum inter-arrival times — which
	// admits a strict superset of Eq. 8's sets.
	Release string `json:"release"`
	// NoCache bypasses the result cache for this request — the loadtest's
	// cold path, and an operator's way to force a recompute.
	NoCache bool `json:"no_cache"`
}

// gaKnobs is the subset of the GA budget a client may size per request.
// Zero fields keep the paper's defaults (population 60, 120 generations,
// 1 elite; NCap 50).
type gaKnobs struct {
	PopSize     int     `json:"pop_size"`
	Generations int     `json:"generations"`
	Elites      int     `json:"elites"`
	NCap        float64 `json:"n_cap"`
}

// jsonFloat marshals like float64 but renders the non-finite values JSON
// has no literal for as strings. The n vector legitimately contains +Inf
// (a σ = 0 task under a λ policy: any budget above the deterministic ACET
// can never be overrun), so the response encoder must not reject it.
// The assign responses go through encode.go, which renders jsonFloat the
// same way; MarshalJSON serves /v1/fit and the encoder's reference test.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// edfvdJSON is the Eq. 8 verdict in the response.
type edfvdJSON struct {
	Schedulable bool      `json:"schedulable"`
	X           jsonFloat `json:"x"`
	CondLO      bool      `json:"cond_lo"`
	CondHI      bool      `json:"cond_hi"`
}

// assignmentJSON is the cached unit: the assignment and its analysis,
// marshaled once per digest and spliced verbatim into every response
// envelope — which is what makes cold, cached and post-restart responses
// byte-identical. Cores is only present for multicore assignments, so
// single-core responses keep their historical byte layout. encode.go
// renders this type and coreJSON by hand, as json.Marshal would; a new
// field goes in both places (TestEncodeAssignmentMatchesMarshal).
type assignmentJSON struct {
	Policy    string      `json:"policy"`
	NS        []jsonFloat `json:"ns"`
	TaskSet   *mc.TaskSet `json:"task_set"`
	PMS       float64     `json:"p_ms"`
	MaxULCLO  float64     `json:"max_u_lc_lo"`
	Objective float64     `json:"objective"`
	EDFVD     edfvdJSON   `json:"edfvd"`
	Cores     []coreJSON  `json:"cores,omitempty"`
	// Protocol and Release echo the request's non-default mode axes;
	// Test names the schedulability test behind EDFVD when it is not
	// Eq. 8. All omitted on default requests, keeping historical
	// response bytes frozen.
	Protocol string `json:"protocol,omitempty"`
	Release  string `json:"release,omitempty"`
	Test     string `json:"test,omitempty"`
}

// coreJSON is one core's slice of a multicore assignment: which tasks it
// carries, its own n vector and Eq. 10–13 metrics, and its Eq. 8
// verdict.
type coreJSON struct {
	Core      int         `json:"core"`
	Tasks     []int       `json:"tasks,omitempty"`
	NS        []jsonFloat `json:"ns,omitempty"`
	PMS       float64     `json:"p_ms"`
	MaxULCLO  float64     `json:"max_u_lc_lo"`
	Objective float64     `json:"objective"`
	EDFVD     edfvdJSON   `json:"edfvd"`
	Empty     bool        `json:"empty,omitempty"`
}

// modeAxes is a request's resolved protocol/release pair, held as the
// canonical spellings so echo and digest agree ("task" and "task-level"
// are one cache entry).
type modeAxes struct {
	protocol string
	release  string
}

func (m modeAxes) isDefault() bool { return m.protocol == "system-level" && m.release == "periodic" }
func (m modeAxes) sporadic() bool  { return m.release == "sporadic" }

// resolveModes validates and canonicalises the request's protocol and
// release spellings; unknown values answer 400 before any compute.
func resolveModes(req *assignRequest) (modeAxes, *apiError) {
	p, err := sim.ProtocolByName(strings.TrimSpace(req.Protocol))
	if err != nil {
		return modeAxes{}, errBadRequest("%v", err)
	}
	rel, err := sim.ReleaseByName(strings.TrimSpace(req.Release))
	if err != nil {
		return modeAxes{}, errBadRequest("%v", err)
	}
	return modeAxes{protocol: p.String(), release: rel.String()}, nil
}

// stamp echoes the non-default axes into the response, leaving default
// responses byte-identical to their historical form.
func (m modeAxes) stamp(aj *assignmentJSON) {
	if m.protocol != "system-level" {
		aj.Protocol = m.protocol
	}
	if m.sporadic() {
		aj.Release = m.release
		aj.Test = dbf.DemandTest{}.Name()
	}
}

func marshalAssignment(policyName string, a core.Assignment, an edfvd.Analysis, axes modeAxes) ([]byte, error) {
	ns := make([]jsonFloat, len(a.NS))
	for i, v := range a.NS {
		ns[i] = jsonFloat(v)
	}
	aj := assignmentJSON{
		Policy:    policyName,
		NS:        ns,
		TaskSet:   a.TaskSet,
		PMS:       a.PMS,
		MaxULCLO:  a.MaxULCLO,
		Objective: a.Objective,
		EDFVD: edfvdJSON{
			Schedulable: an.Schedulable,
			X:           jsonFloat(an.X),
			CondLO:      an.CondLO,
			CondHI:      an.CondHI,
		},
	}
	axes.stamp(&aj)
	return encodeAssignment(&aj)
}

// marshalSystemAssignment renders a multicore assignment. The top level
// keeps assignmentJSON's shape — NS in the merged set's HC order, the
// composed P_sys^MS / summed max U_LC^LO / objective, and an EDF-VD
// verdict folded across cores (X is the tightest per-core factor) — so
// clients read single- and multicore responses uniformly; the per-core
// breakdown rides in "cores".
func marshalSystemAssignment(policyName string, a *multicore.Assignment, axes modeAxes) ([]byte, error) {
	nsByID := make(map[int]float64)
	cores := make([]coreJSON, len(a.Cores))
	sys := edfvdJSON{Schedulable: a.Schedulable, X: 1, CondLO: true, CondHI: true}
	if axes.sporadic() {
		// Per-core verdicts come from the demand-bound test below; the
		// system verdict is their conjunction, refolded in the loop.
		sys.Schedulable = true
	}
	for i, ca := range a.Cores {
		an := ca.EDFVD
		if axes.sporadic() && !ca.Empty {
			an = dbf.DemandTest{}.Analyze(ca.Assignment.TaskSet)
		}
		cj := coreJSON{
			Core: ca.Core, Tasks: ca.Tasks,
			PMS: ca.Assignment.PMS, MaxULCLO: ca.Assignment.MaxULCLO,
			Objective: ca.Assignment.Objective,
			EDFVD: edfvdJSON{
				Schedulable: an.Schedulable,
				X:           jsonFloat(an.X),
				CondLO:      an.CondLO,
				CondHI:      an.CondHI,
			},
			Empty: ca.Empty,
		}
		if axes.sporadic() && !ca.Empty {
			sys.Schedulable = sys.Schedulable && an.Schedulable
		}
		if !ca.Empty {
			hcs := ca.Assignment.TaskSet.ByCrit(mc.HC)
			cj.NS = make([]jsonFloat, len(ca.Assignment.NS))
			for k, v := range ca.Assignment.NS {
				cj.NS[k] = jsonFloat(v)
				nsByID[hcs[k].ID] = v
			}
		}
		if float64(cj.EDFVD.X) < float64(sys.X) {
			sys.X = cj.EDFVD.X
		}
		sys.CondLO = sys.CondLO && cj.EDFVD.CondLO
		sys.CondHI = sys.CondHI && cj.EDFVD.CondHI
		cores[i] = cj
	}
	hcs := a.TaskSet.ByCrit(mc.HC)
	ns := make([]jsonFloat, len(hcs))
	for i, t := range hcs {
		ns[i] = jsonFloat(nsByID[t.ID])
	}
	aj := assignmentJSON{
		Policy: policyName, NS: ns, TaskSet: a.TaskSet,
		PMS: a.PMS, MaxULCLO: a.MaxULCLO, Objective: a.Objective,
		EDFVD: sys, Cores: cores,
	}
	axes.stamp(&aj)
	return encodeAssignment(&aj)
}

// normalizeTasks fills the request-side conveniences: an HC task's C^LO
// is this service's *output*, so clients may omit it (0 → C^HI, a valid
// placeholder the assignment overwrites); an LC task may spell only c_lo
// (C^HI = C^LO by the model's convention).
func normalizeTasks(tasks []mc.Task) {
	for i := range tasks {
		t := &tasks[i]
		if t.Crit == mc.HC && t.CLO == 0 {
			t.CLO = t.CHI
		}
		if t.Crit == mc.LC && t.CHI == 0 {
			t.CHI = t.CLO
		}
	}
}

// resolvePolicy maps the request's policy selector and knobs onto a
// policy.Policy, validating field domains up front so configuration
// mistakes answer 400 before any compute is admitted.
func (s *Service) resolvePolicy(req *assignRequest, bound stats.Bound) (policy.Policy, *apiError) {
	switch req.Policy {
	case "", "ga":
		var cfg ga.Config
		var nCap float64
		if g := req.GA; g != nil {
			if g.PopSize < 0 || g.PopSize == 1 {
				return nil, errBadRequest("ga.pop_size %d must be ≥ 2 (or 0 for the default)", g.PopSize)
			}
			if g.Generations < 0 {
				return nil, errBadRequest("ga.generations %d must be ≥ 1 (or 0 for the default)", g.Generations)
			}
			if g.Elites < 0 {
				return nil, errBadRequest("ga.elites %d must be ≥ 0", g.Elites)
			}
			if g.NCap < 0 || math.IsNaN(g.NCap) {
				return nil, errBadRequest("ga.n_cap %g must be ≥ 0", g.NCap)
			}
			cfg.PopSize = g.PopSize
			cfg.Generations = g.Generations
			cfg.Elites = g.Elites
			nCap = g.NCap
		}
		cfg.Workers = s.cfg.GAWorkers
		return policy.ChebyshevGA{Config: cfg, NCap: nCap, RequireLC: req.RequireLC, Bound: bound}, nil
	case "uniform":
		if req.N < 0 || math.IsNaN(req.N) || math.IsInf(req.N, 0) {
			return nil, errBadRequest("n %g must be finite and ≥ 0", req.N)
		}
		return policy.ChebyshevUniform{N: req.N, Bound: bound}, nil
	case "lambda":
		if !(req.Lambda > 0 && req.Lambda <= 1) {
			return nil, errBadRequest("lambda %g out of (0, 1]", req.Lambda)
		}
		return policy.LambdaFixed{Lambda: req.Lambda, Bound: bound}, nil
	case "lambda-range":
		if !(0 < req.LambdaLo && req.LambdaLo <= req.LambdaHi && req.LambdaHi <= 1) {
			return nil, errBadRequest("lambda range [%g, %g] must satisfy 0 < lo ≤ hi ≤ 1", req.LambdaLo, req.LambdaHi)
		}
		return policy.LambdaRange{Lo: req.LambdaLo, Hi: req.LambdaHi, Bound: bound}, nil
	case "acet":
		return policy.ACETOnly{}, nil
	}
	return nil, errUnknownPolicy(req.Policy)
}

// maxAssignCores caps the per-request core count: far above any real
// platform, low enough that a hostile body cannot make the partitioner
// allocate per-core state without bound.
const maxAssignCores = 4096

// resolveCores maps the request's multicore knobs onto their resolved
// values, falling back to the server configuration where the body is
// silent.
func (s *Service) resolveCores(req *assignRequest) (int, partition.Heuristic, *apiError) {
	cores := req.Cores
	if cores == 0 {
		cores = s.cfg.Cores
	}
	if cores < 0 || cores > maxAssignCores {
		return 0, 0, errBadRequest("cores %d out of [1, %d]", cores, maxAssignCores)
	}
	name := req.Heuristic
	if strings.TrimSpace(name) == "" {
		name = s.cfg.Heuristic
	}
	h, err := partition.HeuristicByName(name)
	if err != nil {
		return 0, 0, errUnknownHeuristic(err)
	}
	return cores, h, nil
}

// assignCall is a decoded, validated assign request: the request, its
// task set and resolved knobs, and its canonical L2 key.
type assignCall struct {
	req   assignRequest
	ts    *mc.TaskSet
	pol   policy.Policy
	cores int
	heur  partition.Heuristic
	axes  modeAxes
	key   []byte
}

// parseAssign decodes and validates an assign body. Bodies inside
// decodeAssignFast's subset skip encoding/json; every other body is
// decoded by json.Unmarshal, which decides its value or its 400, so
// both paths answer identically.
func (s *Service) parseAssign(body []byte) (assignCall, *apiError) {
	var c assignCall
	req := &c.req
	if !decodeAssignFast(body, req) {
		*req = assignRequest{}
		if err := json.Unmarshal(body, req); err != nil {
			return c, errBadJSON(err)
		}
	}
	normalizeTasks(req.Tasks)
	ts, err := mc.NewTaskSet(req.Tasks)
	if err != nil {
		return c, errInvalidTaskSet(err)
	}
	bound, err := stats.BoundByName(req.Bound)
	if err != nil {
		return c, errUnknownBound(err)
	}
	pol, aerr := s.resolvePolicy(req, bound)
	if aerr != nil {
		return c, aerr
	}
	cores, heur, aerr := s.resolveCores(req)
	if aerr != nil {
		return c, aerr
	}
	axes, aerr := resolveModes(req)
	if aerr != nil {
		return c, aerr
	}
	c.ts, c.pol, c.cores, c.heur, c.axes = ts, pol, cores, heur, axes
	c.key = assignKey(req, ts, bound, cores, heur, axes)
	return c, nil
}

// handleAssign is POST /v1/assign. The path ordering is the performance
// story: L1 (raw bytes) before decoding, L2 (canonical digest) after, the
// admission gate and single-flight only in front of actual compute.
func (s *Service) handleAssign(w http.ResponseWriter, r *http.Request) {
	if !s.enter(w, r) {
		return
	}
	defer s.exit()
	span := obs.StartSpan()
	s.assignReqs.Inc()

	scratch := s.getBuf()
	defer s.putBuf(scratch)
	body, aerr := s.readBody(r, scratch)
	if aerr != nil {
		s.fail(w, aerr)
		return
	}

	var l1hash uint64
	if s.l1 != nil {
		l1hash = maphash.Bytes(s.l1seed, body)
		if e, ok := s.l1.get(l1hash, body); ok {
			s.respondAssign(w, e, "hit", span)
			return
		}
	}

	c, aerr := s.parseAssign(body)
	if aerr != nil {
		s.fail(w, aerr)
		return
	}

	hash := fnv64(c.key)
	cached := !c.req.NoCache && s.l2 != nil
	if cached {
		if e, ok := s.l2.get(hash, c.key); ok {
			s.l1.put(l1hash, body, e)
			s.respondAssign(w, e, "hit", span)
			return
		}
	}

	var e *entry
	var shared bool
	var err error
	if cached {
		// Single-flight only matters when the result will be shared — and
		// a shared compute must not inherit the leader's request context:
		// if the leader's client disconnects, its cancellation would abort
		// the GA and answer every waiting follower 503 though their own
		// deadlines never expired. Detach (keeping request values), and
		// let computeAssign's own deadline bound the work; the finished
		// result lands in the cache either way.
		cctx := context.WithoutCancel(r.Context())
		e, shared, err = s.flights.do(c.key, func() (*entry, error) {
			return s.computeAssign(cctx, &c, hash, true)
		})
	} else {
		e, err = s.computeAssign(r.Context(), &c, hash, false)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	state := "miss"
	if shared {
		state = "hit"
		s.flightShared.Inc()
	}
	if cached {
		s.l1.put(l1hash, body, e)
	}
	s.respondAssign(w, e, state, span)
}

// computeAssign is the cold path: admission gate, per-request deadline,
// the (deterministically seeded) policy run, EDF-VD analysis, and one
// marshal of the result. The deadline context reaches the GA through
// policy.AssignCtx, so an expired request abandons its search within one
// generation instead of burning a slot to completion. store puts the
// result in the L2 cache under (hash, c.key).
func (s *Service) computeAssign(ctx context.Context, c *assignCall, hash uint64, store bool) (*entry, error) {
	cctx, cancel := context.WithTimeout(ctx, s.cfg.Deadline)
	defer cancel()
	if err := s.gate.acquire(cctx); err != nil {
		var ae *apiError
		if errors.As(err, &ae) {
			s.queueRejects.Inc()
			return nil, ae
		}
		return nil, errDeadline() // queue wait outlived the deadline
	}
	defer s.gate.release()

	var body []byte
	if c.cores <= 1 {
		// The single-core path calls the policy exactly as it always has,
		// so every historical response stays byte-identical.
		a, err := policy.AssignCtx(cctx, c.pol, c.ts, rand.New(&lazySource{seed: c.req.Seed}))
		if err != nil {
			if cctx.Err() != nil {
				return nil, errDeadline()
			}
			return nil, errInfeasible(err)
		}
		an := edfvd.Schedulable(a.TaskSet)
		if c.axes.sporadic() {
			// Sporadic verdict: the demand-bound test, a strict superset
			// of Eq. 8 (never rejects a set Eq. 8 accepts).
			an = dbf.DemandTest{}.Analyze(a.TaskSet)
		}
		body, err = marshalAssignment(c.pol.Name(), a, an, c.axes)
		if err != nil {
			return nil, err
		}
	} else {
		sys, err := multicore.New(multicore.Config{Cores: c.cores, Heuristic: c.heur, Policy: c.pol, Workers: 1})
		if err != nil {
			return nil, err
		}
		a, err := sys.AssignCtx(cctx, c.ts, rand.New(&lazySource{seed: c.req.Seed}))
		if err != nil {
			if cctx.Err() != nil {
				return nil, errDeadline()
			}
			// Partitioning failures (no core can take a task) and per-core
			// search failures are both "valid request, no assignment".
			return nil, errInfeasible(err)
		}
		body, err = marshalSystemAssignment(c.pol.Name(), &a, c.axes)
		if err != nil {
			return nil, err
		}
	}
	e := &entry{digestHex: digestHex(hash), body: body}
	if store {
		s.l2.put(hash, c.key, e)
	}
	return e, nil
}

// lazySource is the request's math/rand source, seeded on its first
// draw. Seeding rand.NewSource fills a 607-word state, which costs more
// than a whole uniform-policy assignment — and the uniform, lambda and
// acet policies never draw. A policy that does draw sees the sequence
// rand.NewSource(seed) yields.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (l *lazySource) source() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64    { return l.source().Int63() }
func (l *lazySource) Uint64() uint64  { return l.source().Uint64() }
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }

// respondAssign splices the envelope around the cached assignment bytes
// from pooled scratch — the hit path allocates nothing per request beyond
// what net/http itself needs.
func (s *Service) respondAssign(w http.ResponseWriter, e *entry, cacheState string, span obs.Span) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Cache", cacheState)
	out := s.getBuf()
	b := *out
	b = append(b, `{"cache":"`...)
	b = append(b, cacheState...)
	b = append(b, `","digest":"`...)
	b = append(b, e.digestHex...)
	b = append(b, `","assignment":`...)
	b = append(b, e.body...)
	b = append(b, "}\n"...)
	w.Write(b) //nolint:errcheck // client gone
	*out = b[:0]
	s.bufs.Put(out)
	span.ObserveInto(s.assignSeconds)
}
