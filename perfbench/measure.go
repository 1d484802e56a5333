package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"equitruss"
	"equitruss/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func secs(d time.Duration) float64 { return d.Seconds() }

// allocBytes is the process's cumulative heap allocation, read through
// runtime/metrics so it needs no stop-the-world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCycles is the number of completed GC cycles.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// counters snapshots the process counter registry the layers export.
type counters map[string]uint64

func readCounters() counters {
	c := counters{}
	for _, v := range equitruss.Counters() {
		c[v.Name] = uint64(v.Value)
	}
	return c
}

// histograms snapshots the process latency histograms the server exports.
type histograms map[string]obs.HistogramSnapshot

func readHistograms() histograms {
	h := histograms{}
	for _, s := range obs.DefaultRegistry().HistogramSnapshots() {
		h[s.Name] = s
	}
	return h
}

// snapshot is the process-wide measurement state at one instant.
type snapshot struct {
	c     counters
	h     histograms
	gc    uint64
	alloc uint64
}

func mark() snapshot {
	return snapshot{readCounters(), readHistograms(), gcCycles(), allocBytes()}
}

// deltas accumulates counter, histogram, GC and allocation differences
// over one or more measured windows.
type deltas struct {
	ctr   map[string]float64
	hist  map[string]obs.HistogramSnapshot
	gc    float64
	alloc float64
}

func newDeltas() *deltas {
	return &deltas{ctr: map[string]float64{}, hist: map[string]obs.HistogramSnapshot{}}
}

// add accumulates the window from..to.
func (d *deltas) add(from, to snapshot) {
	for name, v := range to.c {
		d.ctr[name] += float64(v - from.c[name])
	}
	for name, cur := range to.h {
		acc, old := d.hist[name], from.h[name]
		for i := range cur.Counts {
			acc.Counts[i] += cur.Counts[i] - old.Counts[i]
		}
		acc.Count += cur.Count - old.Count
		acc.SumNS += cur.SumNS - old.SumNS
		d.hist[name] = acc
	}
	d.gc += float64(to.gc - from.gc)
	d.alloc += float64(to.alloc - from.alloc)
}

// count is one counter's accumulated delta.
func (d *deltas) count(name string) float64 { return d.ctr[name] }

// quantile estimates the q-quantile of one histogram's accumulated
// observations.
func (d *deltas) quantile(name string, q float64) time.Duration { return d.hist[name].Quantile(q) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// settle collects garbage left by the previous step so a timed step does
// not pay for it.
func settle() { runtime.GC() }

// span is one recorded layer interval: the benchmark opens a span around
// each call it makes into a layer's public functions.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory; they are written out with the artifact when
// the run ends. A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: ms(time.Since(t.t0))})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.End = ms(time.Since(t.t0))
	return time.Duration((s.End - s.Start) * 1e6)
}

// add records an already-measured child interval (used for the core stage
// times BuildCtx returns, laid end to end from the core span's start).
func (t *tracer) add(name string, parent int, start float64, d time.Duration) float64 {
	if t == nil {
		return start
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start, End: start + ms(d)})
	return start + ms(d)
}

// childCover is the time the direct children of id cover, in ms.
func (t *tracer) childCover(id int) float64 {
	total := 0.0
	for _, s := range t.spans {
		if s.Parent == id {
			total += s.End - s.Start
		}
	}
	return total
}

// selfTimes sums each span name's self time (duration minus direct
// children) over the run, in ms.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += s.End - s.Start - t.childCover(s.ID)
	}
	return out
}
