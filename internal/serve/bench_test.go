package serve

import (
	"encoding/json"
	"hash/maphash"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"chebymc/internal/taskgen"
)

// benchWriter discards the response body, keeping only what the
// benchmark asserts on — the status and the X-Cache header.
type benchWriter struct {
	h      http.Header
	status int
}

func (w *benchWriter) Header() http.Header { return w.h }
func (w *benchWriter) WriteHeader(c int)   { w.status = c }
func (w *benchWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

// BenchmarkServeAssignHot is the issue's headline number: one repeat
// request through the full handler (L1 exact-bytes cache hit). The
// inverse of ns/op is the cached assignments/s one core sustains;
// ≥100k/s needs ≤10µs/op.
func BenchmarkServeAssignHot(b *testing.B) {
	_, mux := newTestMux(b, Config{})
	w := &benchWriter{h: make(http.Header, 4)}
	var rdr strings.Reader
	run := func() {
		rdr.Reset(testBody)
		r, _ := http.NewRequest(http.MethodPost, "/v1/assign", &rdr)
		clear(w.h)
		w.status = 0
		mux.ServeHTTP(w, r)
	}
	// Warm the cache with the one cold compute.
	run()
	if w.status != http.StatusOK || w.h.Get("X-Cache") != "hit" && w.h.Get("X-Cache") != "miss" {
		b.Fatalf("warmup failed: %d %q", w.status, w.h.Get("X-Cache"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	if w.h.Get("X-Cache") != "hit" {
		b.Fatalf("hot path was not a cache hit: %q", w.h.Get("X-Cache"))
	}
}

// BenchmarkServeAssignCold measures the uncached path end to end for the
// uniform policy: body decode, validation, digest, admission, Eq. 6
// assignment, EDF-VD analysis, marshal. no_cache keeps every iteration
// cold without growing the corpus.
func BenchmarkServeAssignCold(b *testing.B) {
	_, mux := newTestMux(b, Config{})
	body := strings.Replace(testBody, `"seed":42`, `"seed":42,"no_cache":true`, 1)
	w := &benchWriter{h: make(http.Header, 4)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := http.NewRequest(http.MethodPost, "/v1/assign", strings.NewReader(body))
		clear(w.h)
		w.status = 0
		mux.ServeHTTP(w, r)
	}
	b.StopTimer()
	if w.status != http.StatusOK || w.h.Get("X-Cache") != "miss" {
		b.Fatalf("cold path broken: %d %q", w.status, w.h.Get("X-Cache"))
	}
}

// BenchmarkServeCacheGet isolates the sharded LRU itself, including the
// stored-key comparison a verified hit pays.
func BenchmarkServeCacheGet(b *testing.B) {
	c := newCache(1024, "serve_bench_cache")
	e := &entry{digestHex: "x", body: []byte("{}")}
	keys := make([][]byte, 1024)
	hashes := make([]uint64, 1024)
	for i := range keys {
		keys[i] = []byte(strings.Repeat("k", 16) + string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i/676)))
		hashes[i] = fnv64(keys[i])
		c.put(hashes[i], keys[i], e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % 1024
		c.get(hashes[j], keys[j])
	}
}

// BenchmarkServeBodyDigest isolates the L1 locator: hash/maphash over a
// realistic request body.
func BenchmarkServeBodyDigest(b *testing.B) {
	body := []byte(testBody)
	seed := maphash.MakeSeed()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		maphash.Bytes(seed, body)
	}
}

// typicalColdBody is a uniform-policy no_cache request over an 8-task
// taskgen.Mixed set (U_bound 0.8), the size and shape of a serve-cold
// benchmark request: about 1.2 KB, where testBody's three tasks
// under-weigh decode and encode.
func typicalColdBody(t testing.TB) string {
	t.Helper()
	for seed := int64(1); ; seed++ {
		ts, err := taskgen.Mixed(rand.New(rand.NewSource(seed)), taskgen.Config{}, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		if len(ts.Tasks) != 8 {
			continue
		}
		tasks, err := json.Marshal(ts.Tasks)
		if err != nil {
			t.Fatal(err)
		}
		return `{"policy":"uniform","n":3,"seed":` + strconv.FormatInt(seed, 10) + `,"no_cache":true,"tasks":` + string(tasks) + `}`
	}
}

// BenchmarkServeAssignColdTypical is BenchmarkServeAssignCold on
// typicalColdBody.
func BenchmarkServeAssignColdTypical(b *testing.B) {
	_, mux := newTestMux(b, Config{})
	body := typicalColdBody(b)
	w := &benchWriter{h: make(http.Header, 4)}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := http.NewRequest(http.MethodPost, "/v1/assign", strings.NewReader(body))
		clear(w.h)
		w.status = 0
		mux.ServeHTTP(w, r)
	}
	b.StopTimer()
	if w.status != http.StatusOK || w.h.Get("X-Cache") != "miss" {
		b.Fatalf("cold path broken: %d %q", w.status, w.h.Get("X-Cache"))
	}
}

// coldAllocCeiling bounds the allocations of one cold uniform-policy
// assign through the handler (typicalColdBody: 8 tasks, no_cache). It
// was set from the measured value with go1.24: 38, and 39 under -race,
// where sync.Pool drops a share of its puts (the json.Unmarshal and
// json.Marshal path it replaced measured 98). A change that needs more
// must say why.
const coldAllocCeiling = 40

// TestColdAssignAllocs guards the reflection-free cold path: decode,
// validation, canonical key, the policy run on a lazily seeded source,
// and the append encoder. The request and writer are built once, so
// only the handler's own allocations count.
func TestColdAssignAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard skipped with -short")
	}
	svc := New(Config{})
	body := typicalColdBody(t)
	rdr := strings.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/assign", nil)
	req.Body = io.NopCloser(rdr)
	w := &benchWriter{h: make(http.Header, 4)}
	run := func() {
		rdr.Reset(body)
		w.status = 0
		svc.handleAssign(w, req)
	}
	run()
	if w.status != http.StatusOK || w.h.Get("X-Cache") != "miss" {
		t.Fatalf("cold path broken: %d %q", w.status, w.h.Get("X-Cache"))
	}
	allocs := testing.AllocsPerRun(200, run)
	t.Logf("%.0f allocs per cold assign", allocs)
	if allocs > coldAllocCeiling {
		t.Fatalf("%.0f allocs per cold assign, ceiling %d", allocs, coldAllocCeiling)
	}
}
