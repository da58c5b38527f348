package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one operation share op; parent indexes the enclosing span in the
// same recorder (-1 for an operation's root).
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int
	op         int
}

// recorder keeps the spans of one goroutine in memory. A nil recorder
// records nothing, so untraced runs make the same calls at no cost beyond a
// nil check.
type recorder struct {
	tid   int
	epoch time.Time
	spans []span
	stack []int
	op    int
}

func newRecorder(tid int, epoch time.Time) *recorder {
	return &recorder{tid: tid, epoch: epoch, op: -1}
}

// beginOp opens the root span of operation id.
func (r *recorder) beginOp(id int, name string) {
	if r == nil {
		return
	}
	r.op = id
	r.begin(name)
}

// begin opens a span nested in the innermost open one and returns its
// index (-1 on a nil recorder).
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.epoch), parent: parent, op: r.op})
	r.stack = append(r.stack, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	i := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[i].end = time.Since(r.epoch)
	if len(r.stack) == 0 {
		r.op = -1
	}
}

// interval adds a closed child span of span parent, for an interval the
// program reported rather than one the benchmark timed.
func (r *recorder) interval(parent int, name string, start, end time.Duration) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{name: name, start: start, end: end, parent: parent, op: r.op})
}

// selfTimes returns each span's duration minus the part of it its
// children cover.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	children := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for i, s := range r.spans {
		self[i] = s.end - s.start - covered(r.spans, children[i], s.start, s.end)
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, x := range ivs {
		if open && x.a <= curB {
			if x.b > curB {
				curB = x.b
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x.a, x.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerRow is one line of the traced run's per-layer table.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

// traceSummary is what a traced run derives from its spans.
type traceSummary struct {
	rows  []layerRow
	spans int
	// selfErr is the largest share, over operations, of an operation's
	// time its layer spans do not account for (see opGap).
	selfErr float64
}

// summarize builds the per-layer table and measures, for every operation,
// how far the self times of its layer spans miss the operation's time.
func summarize(recs []*recorder) traceSummary {
	byName := map[string]*layerRow{}
	var sum traceSummary
	for _, r := range recs {
		self := r.selfTimes()
		for i, s := range r.spans {
			row := byName[s.name]
			if row == nil {
				row = &layerRow{name: s.name}
				byName[s.name] = row
			}
			row.count++
			row.total += s.end - s.start
			row.self += self[i]
			sum.spans++
		}
		for _, gap := range r.opGaps(self) {
			sum.selfErr = math.Max(sum.selfErr, gap)
		}
	}
	for _, row := range byName {
		sum.rows = append(sum.rows, *row)
	}
	sort.Slice(sum.rows, func(i, j int) bool { return sum.rows[i].self > sum.rows[j].self })
	return sum
}

// opGaps returns, per operation, the share of its time that its layer
// spans (every span below the operation's root) do not account for: the
// gap between the root's duration, which is the operation's measured time,
// and the summed self times of the layer spans, plus any time a layer span
// lies outside its parent. The root's own self time is the benchmark's
// code between layer calls; a layer span reaching outside its parent is a
// program-reported interval that contradicts the benchmark's clock. The
// share is relative to the larger of the operation's time and selfSumFloor:
// a scheduling hiccup of a few microseconds is not a gap in a
// sub-millisecond request.
func (r *recorder) opGaps(self []time.Duration) map[int]float64 {
	opTime := map[int]time.Duration{}
	layerSelf := map[int]time.Duration{}
	outside := map[int]time.Duration{}
	for i, s := range r.spans {
		if s.op < 0 {
			continue
		}
		if s.parent < 0 {
			opTime[s.op] = s.end - s.start
			continue
		}
		layerSelf[s.op] += self[i]
		p := r.spans[s.parent]
		if p.start > s.start {
			outside[s.op] += p.start - s.start
		}
		if s.end > p.end {
			outside[s.op] += s.end - p.end
		}
	}
	gaps := map[int]float64{}
	for op, t := range opTime {
		d := t - layerSelf[op]
		if d < 0 {
			d = -d
		}
		gaps[op] = float64(d+outside[op]) / math.Max(float64(t), float64(selfSumFloor))
	}
	return gaps
}

// printTable writes the per-layer table as comment lines.
func (s traceSummary) printTable(w io.Writer) {
	fmt.Fprintf(w, "# %-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range s.rows {
		fmt.Fprintf(w, "# %-28s %8d %12.3f %12.3f\n", r.name, r.count, ms(r.total), ms(r.self))
	}
}

// writeChromeTrace writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto).
func writeChromeTrace(path string, recs []*recorder) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var events []event
	for _, r := range recs {
		for _, s := range r.spans {
			events = append(events, event{
				Name: s.name, Ph: "X",
				Ts:  float64(s.start) / 1e3,
				Dur: float64(s.end-s.start) / 1e3,
				Pid: 1, Tid: r.tid,
				Args: map[string]int{"op": s.op, "parent": s.parent},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
