package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one wall-clock interval around a call into a layer's public
// API, recorded by the benchmark itself (the program's virtual-time
// tracing is deliberately not used: it must stay deterministic).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Op     int    `json:"op"`     // operation id shared by one op's spans
}

// tracer keeps spans in memory; they are written out once, at the end.
// A nil *tracer is a valid disabled tracer, so untraced runs pay one nil
// check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its index (-1 when disabled).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already-measured span [start, start+d).
func (t *tracer) record(name string, parent, op int, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	s := int64(start.Sub(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// layerTime is one layer's totals over the recorded spans.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes folds the spans into per-layer totals. A span's self time is
// its duration minus the union of its children's intervals.
func (t *tracer) selfTimes() []layerTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*layerTime{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(d - covered(children[i], s.Start, s.End))
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			sum += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return sum + curHi - curLo
}

// renderSelfTimes prints the per-layer table.
func renderSelfTimes(w io.Writer, lts []layerTime) {
	var total time.Duration
	for _, lt := range lts {
		total += lt.Self
	}
	fmt.Fprintf(w, "%-28s %8s %12s %12s %7s\n", "span", "count", "total ms", "self ms", "self %")
	fmt.Fprintln(w, strings.Repeat("-", 71))
	for _, lt := range lts {
		share := 0.0
		if total > 0 {
			share = 100 * float64(lt.Self) / float64(total)
		}
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %6.1f%%\n", lt.Name, lt.Count, ms(lt.Total), ms(lt.Self), share)
	}
}

// writeJSON writes every span to path.
func (t *tracer) writeJSON(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
