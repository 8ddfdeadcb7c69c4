package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one host-time interval around a call into a layer's public API.
// Times are nanoseconds since the traced run began; Parent is the ID of
// the simulation's root span (-1 for the root itself).
type span struct {
	Name    string `json:"name"`
	Sim     int    `json:"sim"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil tracer records nothing and costs
// one branch per call, which is how the untraced run measures.
type tracer struct {
	origin time.Time
	sim    int
	root   int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now(), root: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// startSim opens the root span of simulation id.
func (t *tracer) startSim(id int) {
	if t == nil {
		return
	}
	t.sim, t.root = id, -1
	t.root = t.begin("sim")
}

// endSim closes the current simulation's root span.
func (t *tracer) endSim() {
	if t == nil {
		return
	}
	t.end(t.root)
	t.root = -1
}

// begin opens a span under the current simulation's root and returns its
// ID (-1 when not tracing).
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Sim: t.sim, ID: id, Parent: t.root, StartNS: t.now()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNS = t.now()
}

// perSim sums each span name's duration within each simulation, in
// milliseconds: the per-layer time one simulation spent in that call.
func (t *tracer) perSim() map[string][]float64 {
	sums := map[string]map[int]float64{}
	for _, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		if sums[s.Name] == nil {
			sums[s.Name] = map[int]float64{}
		}
		sums[s.Name][s.Sim] += float64(s.EndNS-s.StartNS) / 1e6
	}
	out := map[string][]float64{}
	for name, bySim := range sums {
		for _, v := range bySim {
			out[name] = append(out[name], v)
		}
	}
	return out
}

// writeJSON writes every recorded span to path.
func (t *tracer) writeJSON(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
