package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"twolayer/internal/apps"
	"twolayer/internal/core"
	"twolayer/internal/par"
)

// span is one timed interval at a layer boundary. Every span of one sweep
// cell carries that cell's number; Parent is the span that caused it, -1
// for a root. Times are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Cell   int    `json:"cell"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the traced run ends. The replay that
// feeds it runs cells one at a time on one goroutine, so add needs no lock;
// only the end-of-run stamp, written by whichever rank finishes last, is
// atomic.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(name string, cell, parent int, start, end int64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Cell: cell, Name: name, Start: start, End: end, Parent: parent})
	return id
}

// total sums the durations of every span called name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// selfTimes gives, per span name, the time spent in those spans and in no
// child of theirs: a span's duration minus the part of its interval that
// its child spans cover (children clipped to the parent, overlaps counted
// once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// write stores the trace as JSON: the spans, and each name's self time in
// seconds so a reader does not have to redo the interval arithmetic.
func (t *tracer) write(path, workload string) error {
	self := make(map[string]float64)
	for name, d := range selfTimes(t.spans) {
		self[name] = d.Seconds()
	}
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		SelfS    map[string]float64 `json:"self_s"`
		Spans    []span             `json:"spans"`
	}{workload, self, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// hooks are the timestamps one cell's run leaves behind. The program is
// not edited: the experiment's App.New is wrapped, which is where a run
// begins (Experiment.Run builds the instance, asks it for the job and
// hands that to par.RunWithContext), and the job is wrapped so the last
// rank to return stamps where the simulation ended.
type hooks struct {
	t                *tracer
	newStart, newEnd int64
	jobAt            int64
	lastRank         atomic.Int64
}

type hookedInstance struct {
	apps.Instance
	h *hooks
}

func (hi hookedInstance) Job(optimized bool) par.Job {
	job := hi.Instance.Job(optimized)
	h := hi.h
	h.jobAt = h.t.now()
	return func(e *par.Env) {
		job(e)
		now := h.t.now()
		for {
			old := h.lastRank.Load()
			if now <= old || h.lastRank.CompareAndSwap(old, now) {
				return
			}
		}
	}
}

// cell runs fn(x) inside a root span called name, with x's application
// hooked so that a simulation started by fn shows up as the child spans
// apps.new (Info.New) and par.run (job handed over until the last rank
// returns). It returns the root's id, whether a simulation ran, and when
// that simulation ended (0 if none did).
func (t *tracer) cell(cell int, name string, x core.Experiment, fn func(core.Experiment) error) (id int, simulated bool, runEnd int64, err error) {
	h := &hooks{t: t}
	inner := x.App.New
	x.App.New = func(s apps.Scale, procs int) apps.Instance {
		h.newStart = t.now()
		inst := inner(s, procs)
		h.newEnd = t.now()
		return hookedInstance{inst, h}
	}
	start := t.now()
	err = fn(x)
	id = t.add(name, cell, -1, start, t.now())
	if h.newEnd == 0 {
		return id, false, 0, err
	}
	runEnd = h.lastRank.Load()
	t.add("apps.new", cell, id, h.newStart, h.newEnd)
	t.add("par.run", cell, id, h.jobAt, runEnd)
	return id, true, runEnd, err
}
