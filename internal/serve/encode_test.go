package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"chebymc/internal/mc"
)

// edgeFloats are the float64 values whose encoding/json rendering has a
// special case: signed zeros, both sides of the 1e-6 and 1e21 exponent
// switches, one-digit negative exponents, subnormals and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999999999999e-7, 1e-7, -1e-7,
	1.03e-7, 2.222221852088424e-7, 1e-9, 1e-10, 1e-100, 5e-324, math.SmallestNonzeroFloat64,
	1e20, 1e21, -1e21, 9.999999999999999e20, 1.5e21, 1e100, math.MaxFloat64, -math.MaxFloat64,
	1 << 53, 123456789012345678, 0.07544378698224852,
}

// edgeStrings exercise every branch of encoding/json's HTML-escaping
// string encoder.
var edgeStrings = []string{
	"", "nav", "a<b>&c", `"quoted"`, `back\slash`, "\b\f\n\r\t", "\x00\x01\x1f\x7f",
	"line\u2028para\u2029", "τ-logger ü", "😀", "\xff", "bad\xe2\x80", "\xed\xa0\x80", "ok\ufffd",
}

func randFloat(r *rand.Rand) float64 {
	switch r.Intn(4) {
	case 0:
		return edgeFloats[r.Intn(len(edgeFloats))]
	case 1:
		return math.Float64frombits(r.Uint64()) // any bit pattern, finite or not
	case 2:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
	}
	return float64(r.Intn(200))
}

func randFinite(r *rand.Rand) float64 {
	for {
		if f := randFloat(r); !math.IsInf(f, 0) && !math.IsNaN(f) {
			return f
		}
	}
}

func randJSONFloat(r *rand.Rand) jsonFloat {
	switch r.Intn(8) {
	case 0:
		return jsonFloat(math.Inf(1))
	case 1:
		return jsonFloat(math.Inf(-1))
	case 2:
		return jsonFloat(math.NaN())
	}
	return jsonFloat(randFinite(r))
}

func randString(r *rand.Rand) string {
	var b strings.Builder
	for n := r.Intn(4); n > 0; n-- {
		b.WriteString(edgeStrings[r.Intn(len(edgeStrings))])
	}
	return b.String()
}

func randJSONFloats(r *rand.Rand) []jsonFloat {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return []jsonFloat{}
	}
	out := make([]jsonFloat, 1+r.Intn(4))
	for i := range out {
		out[i] = randJSONFloat(r)
	}
	return out
}

func randEDFVD(r *rand.Rand) edfvdJSON {
	return edfvdJSON{Schedulable: r.Intn(2) == 0, X: randJSONFloat(r), CondLO: r.Intn(2) == 0, CondHI: r.Intn(2) == 0}
}

func randAssignment(r *rand.Rand, finite func(*rand.Rand) float64) assignmentJSON {
	aj := assignmentJSON{
		Policy: randString(r), NS: randJSONFloats(r),
		PMS: finite(r), MaxULCLO: finite(r), Objective: finite(r), EDFVD: randEDFVD(r),
	}
	if r.Intn(5) > 0 {
		aj.TaskSet = &mc.TaskSet{}
		if r.Intn(5) > 0 {
			aj.TaskSet.Tasks = make([]mc.Task, r.Intn(4))
		}
		for i := range aj.TaskSet.Tasks {
			aj.TaskSet.Tasks[i] = mc.Task{
				ID: r.Intn(2000) - 1000, Name: randString(r), Crit: mc.Crit(r.Intn(3)),
				CLO: finite(r), CHI: finite(r), Period: finite(r),
				Profile: mc.Profile{ACET: finite(r), Sigma: finite(r)},
			}
		}
	}
	switch r.Intn(3) {
	case 0:
		aj.Cores = []coreJSON{}
	case 1:
		aj.Cores = make([]coreJSON, 1+r.Intn(3))
		for i := range aj.Cores {
			c := coreJSON{Core: r.Intn(8), NS: randJSONFloats(r), PMS: finite(r), MaxULCLO: finite(r),
				Objective: finite(r), EDFVD: randEDFVD(r), Empty: r.Intn(2) == 0}
			switch r.Intn(3) {
			case 0:
				c.Tasks = []int{}
			case 1:
				c.Tasks = []int{r.Intn(100), -r.Intn(100)}
			}
			aj.Cores[i] = c
		}
	}
	if r.Intn(2) == 0 {
		aj.Protocol = randString(r)
	}
	if r.Intn(2) == 0 {
		aj.Release = randString(r)
	}
	if r.Intn(2) == 0 {
		aj.Test = randString(r)
	}
	return aj
}

// TestEncodeAssignmentMatchesMarshal is the encoder's property test:
// over random assignmentJSON values — single-core and multicore, with
// the string and float edge cases above — encodeAssignment returns
// json.Marshal's bytes, or json.Marshal's error when a plain float64
// field is non-finite.
func TestEncodeAssignmentMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		finite := randFinite
		if i%4 == 3 {
			finite = randFloat // some plain float64 fields non-finite
		}
		aj := randAssignment(r, finite)
		want, werr := json.Marshal(aj)
		got, gerr := encodeAssignment(&aj)
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("case %d: error %v, want %v", i, gerr, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d:\ngot  %s\nwant %s", i, got, want)
		}
	}
}
