package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenCase is one pinned /v1/assign exchange: the exact request bytes,
// and the status and exact response bytes a fresh service answers.
type goldenCase struct {
	Name     string `json:"name"`
	Request  string `json:"request"`
	Status   int    `json:"status"`
	Response string `json:"response"`
}

// TestAssignGolden pins absolute response bytes. testdata/assign_golden.json
// was captured from the handler as it stood when the request decode and
// the response encode both went through encoding/json; the corpus covers
// every policy (ga on a small budget, uniform, lambda with a +Inf n,
// lambda-range, acet), a non-default bound, cores=4 under each
// heuristic, the task-level and sporadic echoes, names that need
// escaping (<>&, control bytes, U+2028/2029, a lone surrogate, non-ASCII),
// floats on both sides of the 1e-6 and 1e21 exponent switches, the
// bodies only the encoding/json fallback accepts (case-folded keys,
// duplicates, nulls, escapes, unknown members), and the error envelopes
// of malformed bodies. Codec changes must pass it without regenerating
// the file: that is the byte-identity contract of cold, cached and
// post-restart responses.
func TestAssignGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "assign_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty golden corpus")
	}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			_, mux := newTestMux(t, Config{})
			w := post(mux, "/v1/assign", c.Request)
			if w.Code != c.Status || w.Body.String() != c.Response {
				t.Fatalf("got %d\n%s\nwant %d\n%s", w.Code, w.Body.String(), c.Status, c.Response)
			}
			if c.Status != http.StatusOK {
				return
			}
			// A replay of the same bytes answers from the cache (or, under
			// no_cache, recomputes) with the same assignment bytes.
			want := strings.Replace(c.Response, `{"cache":"miss"`, `{"cache":"hit"`, 1)
			again := post(mux, "/v1/assign", c.Request)
			if again.Code != http.StatusOK || again.Body.String() != want && again.Body.String() != c.Response {
				t.Fatalf("replay: %d\n%s", again.Code, again.Body.String())
			}
		})
	}
}
