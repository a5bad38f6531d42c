package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"

	"chebymc/internal/mc"
)

// The response encoder renders assignmentJSON and coreJSON by appending
// to one byte slice, with no reflection and no per-element marshaler
// calls. Its contract is json.Marshal's output, byte for byte, for these
// two types (TestEncodeAssignmentMatchesMarshal checks it over random
// values, TestAssignGolden over real responses):
//
//   - members in struct order under their tag names, omitempty members
//     left out when empty, nil slices and pointers as null;
//   - floats as encoding/json formats them: 'f', or 'e' when the
//     magnitude is below 1e-6 or at least 1e21, with a one-digit
//     negative exponent unpadded (1e-7, not 1e-07);
//   - jsonFloat's +Inf, -Inf and NaN as those quoted strings, while a
//     non-finite plain float64 fails with encoding/json's
//     *json.UnsupportedValueError;
//   - strings HTML-escaped as encoding/json escapes them: <, > and &,
//     control bytes, invalid UTF-8 as \ufffd, and U+2028/U+2029.

// encoder appends JSON to buf. The first unsupported value sets err and
// the rest of the output is discarded with it.
type encoder struct {
	buf []byte
	err error
}

// encodeAssignment returns the JSON encoding of aj.
func encodeAssignment(aj *assignmentJSON) ([]byte, error) {
	tasks := 0
	if aj.TaskSet != nil {
		tasks = len(aj.TaskSet.Tasks)
	}
	e := encoder{buf: make([]byte, 0, 320+160*tasks+256*len(aj.Cores))}
	e.assignment(aj)
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

func (e *encoder) raw(s string) { e.buf = append(e.buf, s...) }

func (e *encoder) str(s string) { e.buf = appendJSONString(e.buf, s) }

func (e *encoder) int(v int) { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }

func (e *encoder) bool(v bool) { e.buf = strconv.AppendBool(e.buf, v) }

func (e *encoder) float(v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
		return
	}
	e.buf = appendJSONFloat(e.buf, v)
}

func (e *encoder) jsonFloat(v jsonFloat) {
	f := float64(v)
	switch {
	case math.IsInf(f, 1):
		e.raw(`"+Inf"`)
	case math.IsInf(f, -1):
		e.raw(`"-Inf"`)
	case math.IsNaN(f):
		e.raw(`"NaN"`)
	default:
		e.buf = appendJSONFloat(e.buf, f)
	}
}

func (e *encoder) jsonFloats(vs []jsonFloat) {
	if vs == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i, v := range vs {
		if i > 0 {
			e.raw(",")
		}
		e.jsonFloat(v)
	}
	e.raw("]")
}

func (e *encoder) ints(vs []int) {
	e.raw("[")
	for i, v := range vs {
		if i > 0 {
			e.raw(",")
		}
		e.int(v)
	}
	e.raw("]")
}

func (e *encoder) assignment(aj *assignmentJSON) {
	e.raw(`{"policy":`)
	e.str(aj.Policy)
	e.raw(`,"ns":`)
	e.jsonFloats(aj.NS)
	e.raw(`,"task_set":`)
	e.taskSet(aj.TaskSet)
	e.raw(`,"p_ms":`)
	e.float(aj.PMS)
	e.raw(`,"max_u_lc_lo":`)
	e.float(aj.MaxULCLO)
	e.raw(`,"objective":`)
	e.float(aj.Objective)
	e.raw(`,"edfvd":`)
	e.edfvd(&aj.EDFVD)
	if len(aj.Cores) > 0 {
		e.raw(`,"cores":[`)
		for i := range aj.Cores {
			if i > 0 {
				e.raw(",")
			}
			e.core(&aj.Cores[i])
		}
		e.raw("]")
	}
	if aj.Protocol != "" {
		e.raw(`,"protocol":`)
		e.str(aj.Protocol)
	}
	if aj.Release != "" {
		e.raw(`,"release":`)
		e.str(aj.Release)
	}
	if aj.Test != "" {
		e.raw(`,"test":`)
		e.str(aj.Test)
	}
	e.raw("}")
}

func (e *encoder) core(c *coreJSON) {
	e.raw(`{"core":`)
	e.int(c.Core)
	if len(c.Tasks) > 0 {
		e.raw(`,"tasks":`)
		e.ints(c.Tasks)
	}
	if len(c.NS) > 0 {
		e.raw(`,"ns":`)
		e.jsonFloats(c.NS)
	}
	e.raw(`,"p_ms":`)
	e.float(c.PMS)
	e.raw(`,"max_u_lc_lo":`)
	e.float(c.MaxULCLO)
	e.raw(`,"objective":`)
	e.float(c.Objective)
	e.raw(`,"edfvd":`)
	e.edfvd(&c.EDFVD)
	if c.Empty {
		e.raw(`,"empty":true`)
	}
	e.raw("}")
}

func (e *encoder) edfvd(v *edfvdJSON) {
	e.raw(`{"schedulable":`)
	e.bool(v.Schedulable)
	e.raw(`,"x":`)
	e.jsonFloat(v.X)
	e.raw(`,"cond_lo":`)
	e.bool(v.CondLO)
	e.raw(`,"cond_hi":`)
	e.bool(v.CondHI)
	e.raw("}")
}

// taskSet encodes mc.TaskSet's JSON shape; Crit renders as its name,
// as mc.Crit's MarshalJSON does.
func (e *encoder) taskSet(ts *mc.TaskSet) {
	if ts == nil {
		e.raw("null")
		return
	}
	e.raw(`{"tasks":`)
	if ts.Tasks == nil {
		e.raw("null}")
		return
	}
	e.raw("[")
	for i := range ts.Tasks {
		t := &ts.Tasks[i]
		if i > 0 {
			e.raw(",")
		}
		e.raw(`{"id":`)
		e.int(t.ID)
		if t.Name != "" {
			e.raw(`,"name":`)
			e.str(t.Name)
		}
		e.raw(`,"crit":`)
		e.str(t.Crit.String())
		e.raw(`,"c_lo":`)
		e.float(t.CLO)
		e.raw(`,"c_hi":`)
		e.float(t.CHI)
		e.raw(`,"period":`)
		e.float(t.Period)
		e.raw(`,"profile":{"acet":`)
		e.float(t.Profile.ACET)
		e.raw(`,"sigma":`)
		e.float(t.Profile.Sigma)
		e.raw("}}")
	}
	e.raw("]}")
}

// appendJSONFloat appends finite f as encoding/json renders a float64:
// like strconv's shortest 'g' but with ES6 exponent cutoffs, and no
// zero padding of the exponent.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s quoted and escaped as encoding/json does
// with HTML escaping on (json.Marshal's default).
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
