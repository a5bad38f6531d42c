package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"chebymc/internal/mc"
	"chebymc/internal/taskgen"
)

// Request classes. Each is homogeneous: one policy, one core count, one
// task-set generator.
const (
	classUniform = iota // policy uniform, single core: the cheap path
	classGA             // policy ga, paper budget, single core
	classGA4            // policy ga, cores 4, worst-fit
	numClasses
)

var classNames = [numClasses]string{"uniform", "ga", "ga4"}

// uBound is each class's taskgen.Mixed utilisation bound. Below 1 a
// single-core set is EDF-schedulable even with C^LO = C^HI, so the GA
// always finds a feasible assignment; 1.5 on four cores is the cores
// scenario's grid point where m = 4 admits.
var uBound = [numClasses]float64{0.8, 0.8, 1.5}

// request is one POST /v1/assign body before encoding.
type request struct {
	class int
	n     float64 // uniform policy parameter
	seed  int64
	tasks []mc.Task
}

func newRequest(r *rand.Rand, class int, seed int64) (request, error) {
	ts, err := taskgen.Mixed(r, taskgen.Config{}, uBound[class])
	if err != nil {
		return request{}, err
	}
	q := request{class: class, seed: seed, tasks: ts.Tasks}
	if class == classUniform {
		q.n = float64(1 + r.Intn(5))
	}
	return q, nil
}

// fields lists the body's top-level members as encoded JSON values.
func (q *request) fields() ([][2]string, error) {
	tasks, err := json.Marshal(q.tasks)
	if err != nil {
		return nil, err
	}
	seed := strconv.FormatInt(q.seed, 10)
	switch q.class {
	case classUniform:
		return [][2]string{{"policy", `"uniform"`}, {"n", strconv.FormatFloat(q.n, 'g', -1, 64)}, {"seed", seed}, {"tasks", string(tasks)}}, nil
	case classGA:
		return [][2]string{{"policy", `"ga"`}, {"seed", seed}, {"tasks", string(tasks)}}, nil
	default:
		return [][2]string{{"policy", `"ga"`}, {"cores", "4"}, {"heuristic", `"worst-fit"`}, {"seed", seed}, {"tasks", string(tasks)}}, nil
	}
}

// encode renders the body. Variant 0 is the compact canonical form; every
// other variant is the same logical request with its members reordered
// and its whitespace changed, so it has other bytes (an L1 miss) but the
// same canonical digest (an L2 hit).
func (q *request) encode(variant int) ([]byte, error) {
	fs, err := q.fields()
	if err != nil {
		return nil, err
	}
	perm := permutation(len(fs), variant)
	rest := variant / factorial(len(fs))
	after := bytes.Repeat([]byte(" "), rest%8)
	before := bytes.Repeat([]byte(" "), (rest/8)%4)
	indent := (rest/32)%2 == 1
	var b bytes.Buffer
	b.WriteByte('{')
	for i, k := range perm {
		if i > 0 {
			b.WriteByte(',')
			b.Write(after)
		}
		fmt.Fprintf(&b, "%q", fs[k][0])
		b.Write(before)
		b.WriteByte(':')
		b.Write(after)
		v := []byte(fs[k][1])
		if indent && fs[k][0] == "tasks" {
			var ind bytes.Buffer
			if err := json.Indent(&ind, v, "", "  "); err != nil {
				return nil, err
			}
			v = ind.Bytes()
		}
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// permutation returns the k-th permutation of 0..n-1 in lexicographic
// order (k taken modulo n!).
func permutation(n, k int) []int {
	k %= factorial(n)
	pool := make([]int, n)
	for i := range pool {
		pool[i] = i
	}
	out := make([]int, 0, n)
	for i := n; i > 0; i-- {
		f := factorial(i - 1)
		j := k / f
		k %= f
		out = append(out, pool[j])
		pool = append(pool[:j], pool[j+1:]...)
	}
	return out
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}
