package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"chebymc/internal/edfvd"
	"chebymc/internal/mc"
)

// recorder is a minimal http.ResponseWriter that keeps the response.
// Unlike httptest.ResponseRecorder it can be reset, so a closed-loop
// client reuses one and the benchmark adds no allocation per request.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{header: http.Header{}} }

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}

func (r *recorder) reset() {
	r.status = 0
	r.body.Reset()
}

type envelope struct {
	Assignment json.RawMessage `json:"assignment"`
}

type verdict struct {
	Schedulable bool `json:"schedulable"`
}

type coreResult struct {
	Tasks []int             `json:"tasks"`
	NS    []json.RawMessage `json:"ns"`
	PMS   float64           `json:"p_ms"`
	EDFVD verdict           `json:"edfvd"`
	Empty bool              `json:"empty"`
}

type assignment struct {
	NS      []json.RawMessage `json:"ns"`
	TaskSet mc.TaskSet        `json:"task_set"`
	PMS     float64           `json:"p_ms"`
	EDFVD   verdict           `json:"edfvd"`
	Cores   []coreResult      `json:"cores"`
}

// pmsTolerance absorbs rounding differences between equivalent
// evaluation orders of Eq. 10.
const pmsTolerance = 1e-9

// checkResponse verifies one 200 answer to q on what holds for any
// correct program: the task set is the one sent, every C^LO ≤ C^HI,
// p_ms is Eq. 10 recomputed from the returned n vector (composed as
// 1 − Π(1 − p_c) across cores), and each EDF-VD verdict equals
// edfvd.Schedulable on the returned budgets.
func checkResponse(q *request, body []byte) error {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("decoding response: %v", err)
	}
	var a assignment
	if err := json.Unmarshal(env.Assignment, &a); err != nil {
		return fmt.Errorf("decoding assignment: %v", err)
	}
	if len(a.TaskSet.Tasks) != len(q.tasks) {
		return fmt.Errorf("task_set has %d tasks, request had %d", len(a.TaskSet.Tasks), len(q.tasks))
	}
	byID := make(map[int]mc.Task, len(a.TaskSet.Tasks))
	for _, t := range a.TaskSet.Tasks {
		if t.CLO > t.CHI {
			return fmt.Errorf("task %d: C^LO %g > C^HI %g", t.ID, t.CLO, t.CHI)
		}
		byID[t.ID] = t
	}
	if q.class != classGA4 {
		pms, err := eq10(a.NS)
		if err != nil {
			return err
		}
		if math.Abs(pms-a.PMS) > pmsTolerance {
			return fmt.Errorf("p_ms %v, Eq. 10 on ns gives %v", a.PMS, pms)
		}
		if got := edfvd.Schedulable(&a.TaskSet).Schedulable; got != a.EDFVD.Schedulable {
			return fmt.Errorf("edfvd.schedulable %v, Eq. 8 on task_set gives %v", a.EDFVD.Schedulable, got)
		}
		return nil
	}
	if len(a.Cores) != 4 {
		return fmt.Errorf("%d cores in the answer, want 4", len(a.Cores))
	}
	noSwitch, all := 1.0, true
	for i, c := range a.Cores {
		if c.Empty {
			continue
		}
		pc, err := eq10(c.NS)
		if err != nil {
			return err
		}
		if math.Abs(pc-c.PMS) > pmsTolerance {
			return fmt.Errorf("core %d: p_ms %v, Eq. 10 on ns gives %v", i, c.PMS, pc)
		}
		noSwitch *= 1 - c.PMS
		ts := &mc.TaskSet{}
		for _, id := range c.Tasks {
			t, ok := byID[id]
			if !ok {
				return fmt.Errorf("core %d carries unknown task %d", i, id)
			}
			ts.Tasks = append(ts.Tasks, t)
		}
		got := edfvd.Schedulable(ts).Schedulable
		if got != c.EDFVD.Schedulable {
			return fmt.Errorf("core %d: edfvd.schedulable %v, Eq. 8 on its tasks gives %v", i, c.EDFVD.Schedulable, got)
		}
		all = all && got
	}
	if math.Abs(1-noSwitch-a.PMS) > pmsTolerance {
		return fmt.Errorf("p_ms %v, 1−Π(1−p_c) gives %v", a.PMS, 1-noSwitch)
	}
	if all != a.EDFVD.Schedulable {
		return fmt.Errorf("edfvd.schedulable %v, per-core Eq. 8 gives %v", a.EDFVD.Schedulable, all)
	}
	return nil
}

// eq10 recomputes the system mode-switch probability from an n vector
// with the paper's one-sided Chebyshev (Cantelli) bound, independently
// of the program: 1 − Π_i (1 − 1/(1 + n_i²)).
func eq10(ns []json.RawMessage) (float64, error) {
	noSwitch := 1.0
	for _, raw := range ns {
		var n float64
		if err := json.Unmarshal(raw, &n); err != nil {
			var s string
			if json.Unmarshal(raw, &s) != nil || s != "+Inf" {
				return 0, fmt.Errorf("n value %s is not a number", raw)
			}
			continue // an infinite n never overruns
		}
		noSwitch *= 1 - 1/(1+n*n)
	}
	return 1 - noSwitch, nil
}
