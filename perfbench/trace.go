package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// the program: a workload, an experiment or HTTP request, or a layer-probe
// call. Parent is 0 for a root span.
type span struct {
	ID, Parent int
	Name, Cat  string
	Start, End time.Time
	Args       map[string]any
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span under parent and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, cat, name string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cat: cat, Start: now})
	return len(t.spans)
}

// end closes span id, merging args into its arguments.
func (t *tracer) end(id int, args map[string]any) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	if len(args) > 0 && s.Args == nil {
		s.Args = map[string]any{}
	}
	for k, v := range args {
		s.Args[k] = v
	}
}

// add records an already-finished span and returns its id.
func (t *tracer) add(parent int, cat, name string, start, end time.Time, args map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cat: cat, Start: start, End: end, Args: args})
	return len(t.spans)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children, indexed like spans. Spans must carry ids 1..n
// in slice order, as the tracer assigns them.
func selfTimes(spans []span) []time.Duration {
	children := make([][][2]float64, len(spans))
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent-1] = append(children[s.Parent-1], [2]float64{float64(s.Start.UnixNano()), float64(s.End.UnixNano())})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		lo, hi := float64(s.Start.UnixNano()), float64(s.End.UnixNano())
		out[i] = time.Duration(hi - lo - intervalUnion(lo, hi, children[i]))
	}
	return out
}

// layerRow is one line of the per-layer table: spans of one category.
type layerRow struct {
	Cat         string
	Count       int
	Total, Self time.Duration
}

// layerTable aggregates spans by category, largest self time first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for i, s := range spans {
		r := rows[s.Cat]
		if r == nil {
			r = &layerRow{Cat: s.Cat}
			rows[s.Cat] = r
		}
		r.Count++
		r.Total += s.End.Sub(s.Start)
		r.Self += self[i]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Cat < out[j].Cat
	})
	return out
}

func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-12s %8s %12s %12s\n", "layer", "spans", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %8d %12.6f %12.6f\n", r.Cat, r.Count, r.Total.Seconds(), r.Self.Seconds())
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON. Viewers nest
// events by time containment within one thread, so spans are laid on
// lanes (tids): a child shares its parent's lane, and overlapping siblings
// such as concurrent requests get lanes of their own. Each event's args
// carry its span and parent ids, so the tree survives any lane layout.
func writeChromeTrace(path string, spans []span) error {
	var origin time.Time
	for i, s := range spans {
		if i == 0 || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	lanes := assignLanes(spans)
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		args := map[string]any{"span_id": s.ID, "parent_id": s.Parent}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			Ts:  float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: lanes[i], Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}

// assignLanes gives every span a lane: roots and children of roots are
// packed greedily by start time onto the lowest free lane; deeper spans
// inherit their parent's lane.
func assignLanes(spans []span) []int {
	lanes := make([]int, len(spans))
	depth := make([]int, len(spans))
	for i, s := range spans {
		if s.Parent > 0 {
			depth[i] = depth[s.Parent-1] + 1
		}
	}
	var top []int
	for i := range spans {
		if depth[i] <= 1 {
			top = append(top, i)
		}
	}
	sort.SliceStable(top, func(a, b int) bool { return spans[top[a]].Start.Before(spans[top[b]].Start) })
	var laneEnd []time.Time
	for _, i := range top {
		if depth[i] == 0 {
			lanes[i] = 0
			continue
		}
		l := 1
		for ; l < len(laneEnd); l++ {
			if !laneEnd[l].After(spans[i].Start) {
				break
			}
		}
		for len(laneEnd) <= l {
			laneEnd = append(laneEnd, time.Time{})
		}
		laneEnd[l] = spans[i].End
		lanes[i] = l
	}
	for i, s := range spans {
		if depth[i] > 1 {
			lanes[i] = lanes[s.Parent-1]
		}
	}
	return lanes
}
