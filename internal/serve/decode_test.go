package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// decodeSeeds is FuzzAssignDecode's seed corpus and the table of
// TestDecodeAssignFastSubset: bodies inside the fast decoder's subset
// (accept = true) and bodies it must leave to encoding/json.
var decodeSeeds = []struct {
	body   string
	accept bool
}{
	{testBody, true},
	{multicoreBody, true},
	{`{"seed":42,"n":5.0,"policy":"uniform","tasks":[
	  {"period":100,"id":0,"name":"nav","crit":"HC","c_hi":30,"profile":{"sigma":2,"acet":10}},
	  {"id":1,"crit":"HC","c_hi":12,"period":40,"profile":{"acet":4,"sigma":1}},
	  {"id":2,"crit":"LC","c_lo":5,"period":50}]}`, true},
	{"{\r\n\t\"policy\" : \"uniform\" ,\n \"n\" : 5 , \"seed\" : 42 ,\n \"tasks\" : [ ]\n}\n", true},
	{`{"policy":"ga","seed":-7,"require_lc":true,"no_cache":false,"ga":{"pop_size":8,"generations":6,"elites":1,"n_cap":2.5e1},"tasks":[]}`, true},
	{`{"policy":"lambda-range","lambda_lo":0.25,"lambda_hi":1E0,"bound":"vp","cores":2,"heuristic":"bf","protocol":"task","release":"sporadic","tasks":[{"id":-0,"crit":"LC","c_lo":1e-7,"period":1e21,"profile":{}}]}`, true},
	{`{"ga":{},"tasks":[{}]}`, true},
	// The sorted variant re-escapes '<', so it takes the fallback decoder.
	{strings.Replace(testBody, `"name":"nav"`, `"name":"a<b"`, 1), true},
	{`{}`, true},
	{strings.Replace(testBody, `"tasks"`, `"Tasks"`, 1), false},
	{strings.Replace(testBody, `"seed":42`, `"seed":1,"seed":42`, 1), false},
	{strings.Replace(testBody, `"acet":10,"sigma":2`, `"acet":10,"acet":11,"sigma":2`, 1), false},
	{strings.Replace(testBody, `"n":5`, `"n":null`, 1), false},
	{strings.Replace(testBody, `"seed":42`, `"seed":42,"ga":null`, 1), false},
	{strings.Replace(testBody, `"id":0`, `"id":1.0`, 1), false},
	{strings.Replace(testBody, `"id":0`, `"id":1e2`, 1), false},
	{strings.Replace(testBody, `"seed":42`, `"seed":9223372036854775808`, 1), false},
	{strings.Replace(testBody, `"n":5`, `"n":1e400`, 1), false},
	{strings.Replace(testBody, `"n":5`, `"n":05`, 1), false},
	{strings.Replace(testBody, `"n":5`, `"n":"5"`, 1), false},
	{strings.Replace(testBody, `"name":"nav"`, `"name":"n\u0061v"`, 1), false},
	{strings.Replace(testBody, `"name":"nav"`, `"name":"n\"av"`, 1), false},
	{strings.Replace(testBody, `"name":"nav"`, `"name":"τ-nav"`, 1), false},
	{strings.Replace(testBody, `"name":"nav"`, "\"name\":\"n\tav\"", 1), false},
	{strings.Replace(testBody, `"crit":"LC"`, `"crit":"lc"`, 1), false},
	{strings.Replace(testBody, `"seed":42`, `"seed":42,"comment":"x"`, 1), false},
	{testBody + ` x`, false},
	{testBody + `}`, false},
	{`{"tasks":[],}`, false},
	{`{"tasks":[{},]}`, false},
	{`null`, false},
	{`[]`, false},
	{``, false},
	{"\ufeff{}", false},
}

func TestDecodeAssignFastSubset(t *testing.T) {
	for _, s := range decodeSeeds {
		var got assignRequest
		if ok := decodeAssignFast([]byte(s.body), &got); ok != s.accept {
			t.Errorf("decodeAssignFast = %v, want %v for %q", ok, s.accept, s.body)
			continue
		}
		if s.accept {
			checkDecodeAgrees(t, []byte(s.body), &got)
		}
	}
}

// checkDecodeAgrees asserts the fast decoder's contract for a body it
// accepted: json.Unmarshal succeeds and yields the identical value.
func checkDecodeAgrees(t *testing.T, body []byte, fast *assignRequest) {
	t.Helper()
	var std assignRequest
	if err := json.Unmarshal(body, &std); err != nil {
		t.Fatalf("fast path accepted a body encoding/json rejects (%v): %q", err, body)
	}
	if !reflect.DeepEqual(*fast, std) {
		t.Fatalf("decoded values differ for %q:\nfast %+v\nstd  %+v", body, *fast, std)
	}
}

// FuzzAssignDecode checks the one-way property the handler relies on:
// whenever decodeAssignFast accepts a body, json.Unmarshal accepts it
// too and decodes the identical value. For such a body it also checks
// the canonical key: a member-reordered, re-escaped variant and an
// indented one (decoded by whichever path takes them) must validate the
// same way and share its L2 key.
func FuzzAssignDecode(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s.body))
	}
	svc := New(Config{CacheEntries: -1})
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast assignRequest
		if !decodeAssignFast(body, &fast) {
			return
		}
		checkDecodeAgrees(t, body, &fast)
		want, werr := svc.parseAssign(body)
		for _, variant := range assignVariants(t, body) {
			got, gerr := svc.parseAssign(variant)
			switch {
			case (werr == nil) != (gerr == nil):
				t.Fatalf("variant validates differently (%v vs %v):\n%s\n%s", werr, gerr, body, variant)
			case werr != nil:
				if werr.code != gerr.code {
					t.Fatalf("variant fails with %s, original with %s", gerr.code, werr.code)
				}
			case !bytes.Equal(want.key, got.key):
				t.Fatalf("variant has another L2 key:\n%s\n%s", body, variant)
			}
		}
	})
}

// assignVariants returns body with every object's members sorted by
// name and its strings re-escaped by encoding/json (which sends any
// name holding <, > or & to the fallback decoder), and that form
// indented. Numbers keep their literal spelling.
func assignVariants(t *testing.T, body []byte) [][]byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("re-decoding %q: %v", body, err)
	}
	sorted, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, sorted, "", "\t"); err != nil {
		t.Fatal(err)
	}
	return [][]byte{sorted, indented.Bytes()}
}

// TestLazySourceSequence: the lazily seeded source draws the sequence
// rand.NewSource(seed) draws, through every rand.Rand method the
// policies use, and after a reseed.
func TestLazySourceSequence(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(&lazySource{seed: seed})
		for i := 0; i < 200; i++ {
			if a, b := want.Int63(), got.Int63(); a != b {
				t.Fatalf("seed %d draw %d: Int63 %d vs %d", seed, i, b, a)
			}
			if a, b := want.Uint64(), got.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: Uint64 %d vs %d", seed, i, b, a)
			}
			if a, b := want.Float64(), got.Float64(); a != b {
				t.Fatalf("seed %d draw %d: Float64 %v vs %v", seed, i, b, a)
			}
			if a, b := want.Intn(1000), got.Intn(1000); a != b {
				t.Fatalf("seed %d draw %d: Intn %d vs %d", seed, i, b, a)
			}
		}
		want.Seed(seed + 1)
		got.Seed(seed + 1)
		if a, b := want.Int63(), got.Int63(); a != b {
			t.Fatalf("seed %d after reseed: %d vs %d", seed, b, a)
		}
	}
}
