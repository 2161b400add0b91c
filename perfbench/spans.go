package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// clockBase anchors every benchmark timestamp; now reads the monotonic
// clock in nanoseconds since it.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// Span is one timed call recorded by the benchmark around a public entry
// point of a layer. Parent is the ID of the span that caused it (0 for a
// root); Stream tags callback spans with the stream they ran for.
type Span struct {
	Name       string
	Start, End int64
	ID, Parent uint64
	Stream     uint64
	Track      int
}

// Tracer keeps spans in memory, one slice per track, and writes them out
// when the run ends. Each track has a single writer goroutine: track 0 is
// the driver (injector, Close, layer replays), track 1+c the worker that
// drains core c's events. A nil *Tracer records nothing, so the untraced
// runs pay one nil check per call site.
type Tracer struct {
	ids    atomic.Uint64
	tracks [][]Span
}

// NewTracer makes a tracer with n tracks.
func NewTracer(n int) *Tracer { return &Tracer{tracks: make([][]Span, n)} }

// NewID reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Add records a finished span on its track.
func (t *Tracer) Add(s Span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	t.tracks[s.Track] = append(t.tracks[s.Track], s)
}

// Spans returns every recorded span. Call it only after the writers have
// stopped.
func (t *Tracer) Spans() []Span {
	var all []Span
	for _, tr := range t.tracks {
		all = append(all, tr...)
	}
	return all
}

// SelfTimes returns, per span, its duration minus the part of its interval
// that its children's spans cover (overlapping children count once;
// children reaching outside the parent are clipped to it).
func SelfTimes(spans []Span) []int64 {
	kids := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// SumSelf totals the self time of the spans called name under parent.
func SumSelf(spans []Span, self []int64, name string, parent uint64) int64 {
	var n int64
	for i, s := range spans {
		if s.Name == name && s.Parent == parent {
			n += self[i]
		}
	}
	return n
}

// covered returns the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// WriteChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), which ui.perfetto.dev and
// chrome://tracing open directly. Each track becomes one thread.
func (t *Tracer) WriteChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	for i := range t.tracks {
		name := "driver"
		if i > 0 {
			name = fmt.Sprintf("worker core %d", i-1)
		}
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, `{"ph":"M","name":"thread_name","pid":1,"tid":%d,"args":{"name":%q}}`, i, name)
	}
	var buf []byte
	for _, tr := range t.tracks {
		for _, s := range tr {
			buf = append(buf[:0], `,{"ph":"X","pid":1,"name":"`...)
			buf = append(buf, s.Name...)
			buf = append(buf, `","tid":`...)
			buf = strconv.AppendInt(buf, int64(s.Track), 10)
			buf = append(buf, `,"ts":`...)
			buf = strconv.AppendFloat(buf, float64(s.Start)/1e3, 'f', 3, 64)
			buf = append(buf, `,"dur":`...)
			buf = strconv.AppendFloat(buf, float64(s.End-s.Start)/1e3, 'f', 3, 64)
			buf = append(buf, `,"args":{"id":`...)
			buf = strconv.AppendUint(buf, s.ID, 10)
			buf = append(buf, `,"parent":`...)
			buf = strconv.AppendUint(buf, s.Parent, 10)
			if s.Stream != 0 {
				buf = append(buf, `,"stream":`...)
				buf = strconv.AppendUint(buf, s.Stream, 10)
			}
			buf = append(buf, "}}"...)
			w.Write(buf)
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
