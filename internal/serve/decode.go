package serve

import (
	"strconv"

	"chebymc/internal/mc"
)

// decodeAssignFast decodes the strict subset of /v1/assign bodies that a
// client encoder produces in practice, without reflection, and reports
// whether body was in that subset. The subset is:
//
//   - exact-case known member names, each at most once per object;
//   - no null anywhere;
//   - strings with no escapes, no control bytes and no non-ASCII bytes;
//   - numbers that match the JSON grammar and parse with strconv without
//     error (integers as int, so fractions and exponents are out);
//   - nothing after the top-level object but whitespace.
//
// On true, *req holds exactly what json.Unmarshal would have decoded
// (FuzzAssignDecode checks the implication). On false, *req is in an
// unspecified state: the caller resets it and falls back to
// json.Unmarshal, which handles everything else — case-folded and
// unknown keys, duplicates, nulls, escapes, malformed input — with its
// own values and its own error messages. The fallback is the stdlib, so
// this decoder never has to agree with it on a body it rejects.
func decodeAssignFast(body []byte, req *assignRequest) bool {
	d := decoder{b: body}
	if !d.assignRequest(req) {
		return false
	}
	d.ws()
	return d.i == len(d.b)
}

// decoder is a cursor over a request body. Every method skips leading
// whitespace and reports false on the first byte outside the subset.
type decoder struct {
	b []byte
	i int
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// next consumes c if it is the next non-whitespace byte.
func (d *decoder) next(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// members walks the members of an object, calling member with each
// key's bytes positioned before the value; member reports false to
// abort. An empty object is valid.
func (d *decoder) members(member func(key []byte) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	for {
		key, ok := d.rawString()
		if !ok || !d.next(':') || !member(key) {
			return false
		}
		if d.next('}') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

// once marks bit in *seen, reporting false if it was already set: a
// duplicate member goes to the fallback, which keeps the last value.
func once(seen *uint32, bit uint32) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// rawString returns the bytes between the quotes of a string with no
// escapes, control bytes or non-ASCII bytes. The slice aliases the body.
func (d *decoder) rawString() ([]byte, bool) {
	if !d.next('"') {
		return nil, false
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[d.i:j]
			d.i = j + 1
			return s, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

func (d *decoder) str(v *string) bool {
	s, ok := d.rawString()
	if ok {
		*v = string(s)
	}
	return ok
}

// number returns the bytes of a token matching the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() ([]byte, bool) {
	d.ws()
	b, start := d.b, d.i
	i := start
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	d.i = i
	return b[start:i], true
}

func (d *decoder) float(v *float64) bool {
	tok, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	*v = f
	return err == nil
}

func (d *decoder) int64(v *int64) bool {
	tok, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	*v = n
	return err == nil
}

func (d *decoder) int(v *int) bool {
	tok, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	*v = int(n)
	return err == nil
}

func (d *decoder) boolean(v *bool) bool {
	d.ws()
	switch rest := d.b[d.i:]; {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		*v = true
		d.i += 4
	case len(rest) >= 5 && string(rest[:5]) == "false":
		*v = false
		d.i += 5
	default:
		return false
	}
	return true
}

func (d *decoder) assignRequest(req *assignRequest) bool {
	var seen uint32
	return d.members(func(key []byte) bool {
		switch string(key) {
		case "tasks":
			return once(&seen, 1<<0) && d.tasks(&req.Tasks)
		case "policy":
			return once(&seen, 1<<1) && d.str(&req.Policy)
		case "n":
			return once(&seen, 1<<2) && d.float(&req.N)
		case "lambda":
			return once(&seen, 1<<3) && d.float(&req.Lambda)
		case "lambda_lo":
			return once(&seen, 1<<4) && d.float(&req.LambdaLo)
		case "lambda_hi":
			return once(&seen, 1<<5) && d.float(&req.LambdaHi)
		case "bound":
			return once(&seen, 1<<6) && d.str(&req.Bound)
		case "seed":
			return once(&seen, 1<<7) && d.int64(&req.Seed)
		case "require_lc":
			return once(&seen, 1<<8) && d.boolean(&req.RequireLC)
		case "ga":
			if !once(&seen, 1<<9) {
				return false
			}
			req.GA = new(gaKnobs)
			return d.gaKnobs(req.GA)
		case "cores":
			return once(&seen, 1<<10) && d.int(&req.Cores)
		case "heuristic":
			return once(&seen, 1<<11) && d.str(&req.Heuristic)
		case "protocol":
			return once(&seen, 1<<12) && d.str(&req.Protocol)
		case "release":
			return once(&seen, 1<<13) && d.str(&req.Release)
		case "no_cache":
			return once(&seen, 1<<14) && d.boolean(&req.NoCache)
		}
		return false
	})
}

func (d *decoder) gaKnobs(g *gaKnobs) bool {
	var seen uint32
	return d.members(func(key []byte) bool {
		switch string(key) {
		case "pop_size":
			return once(&seen, 1<<0) && d.int(&g.PopSize)
		case "generations":
			return once(&seen, 1<<1) && d.int(&g.Generations)
		case "elites":
			return once(&seen, 1<<2) && d.int(&g.Elites)
		case "n_cap":
			return once(&seen, 1<<3) && d.float(&g.NCap)
		}
		return false
	})
}

// tasks decodes a task array; "[]" gives an empty, non-nil slice, as
// json.Unmarshal does.
func (d *decoder) tasks(v *[]mc.Task) bool {
	if !d.next('[') {
		return false
	}
	tasks := make([]mc.Task, 0, 8)
	if !d.next(']') {
		for {
			tasks = append(tasks, mc.Task{})
			if !d.task(&tasks[len(tasks)-1]) {
				return false
			}
			if d.next(']') {
				break
			}
			if !d.next(',') {
				return false
			}
		}
	}
	*v = tasks
	return true
}

func (d *decoder) task(t *mc.Task) bool {
	var seen uint32
	return d.members(func(key []byte) bool {
		switch string(key) {
		case "id":
			return once(&seen, 1<<0) && d.int(&t.ID)
		case "name":
			return once(&seen, 1<<1) && d.str(&t.Name)
		case "crit":
			return once(&seen, 1<<2) && d.crit(&t.Crit)
		case "c_lo":
			return once(&seen, 1<<3) && d.float(&t.CLO)
		case "c_hi":
			return once(&seen, 1<<4) && d.float(&t.CHI)
		case "period":
			return once(&seen, 1<<5) && d.float(&t.Period)
		case "profile":
			return once(&seen, 1<<6) && d.profile(&t.Profile)
		}
		return false
	})
}

// crit accepts the two names mc.Crit's UnmarshalJSON knows; any other
// value goes to the fallback for its error message.
func (d *decoder) crit(c *mc.Crit) bool {
	s, ok := d.rawString()
	switch {
	case !ok:
		return false
	case string(s) == "LC":
		*c = mc.LC
	case string(s) == "HC":
		*c = mc.HC
	default:
		return false
	}
	return true
}

func (d *decoder) profile(p *mc.Profile) bool {
	var seen uint32
	return d.members(func(key []byte) bool {
		switch string(key) {
		case "acet":
			return once(&seen, 1<<0) && d.float(&p.ACET)
		case "sigma":
			return once(&seen, 1<<1) && d.float(&p.Sigma)
		}
		return false
	})
}
