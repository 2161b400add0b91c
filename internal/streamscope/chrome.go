package streamscope

import (
	"time"

	"scap/internal/metrics"
)

// Chrome trace-event export: each journaled stream becomes one named track
// (thread) so a /debug/streams?format=chrome dump opens in Perfetto or
// chrome://tracing with the stream's lifecycle laid out on its own lane.
// Chunk flushes carry their age as a duration and render as complete ("X")
// spans ending at the flush; everything else is an instant ("i") event.

// ChromeTrace converts a set of journal snapshots into a Chrome trace with
// one named track per journal. Timestamps are rebased to the earliest event
// so the trace starts at zero regardless of the capture clock's epoch.
func ChromeTrace(snaps []JournalSnap) metrics.ChromeTrace {
	tr := metrics.ChromeTrace{DisplayTimeUnit: "ms", TraceEvents: []metrics.ChromeTraceEvent{}}
	base := int64(0)
	have := false
	for _, js := range snaps {
		for _, ev := range js.Events {
			ts := ev.TimeUnixNano
			if ev.Kind == EvChunkFlush && ev.B > 0 {
				ts -= ev.B // span starts when the chunk was opened
			}
			if !have || ts < base {
				base, have = ts, true
			}
		}
	}
	usec := func(ns int64) float64 { return float64(ns) / float64(time.Microsecond) }
	for i, js := range snaps {
		tid := i + 1
		name := "stream " + js.Key
		if js.AnomalyMask != 0 {
			name += " [anomaly]"
		}
		tr.TraceEvents = append(tr.TraceEvents, metrics.ChromeTraceEvent{
			Name: "thread_name",
			Ph:   "M",
			TID:  tid,
			Args: map[string]any{"name": name},
		})
		for _, ev := range js.Events {
			te := metrics.ChromeTraceEvent{
				Name: ev.KindName,
				Cat:  "stream",
				TID:  tid,
				Args: map[string]any{
					"a":         ev.A,
					"b":         ev.B,
					"seq":       int64(ev.Seq),
					"stream_id": int64(js.StreamID),
				},
			}
			if ev.Kind == EvChunkFlush && ev.B > 0 {
				// B is the chunk's age at flush: render the chunk's whole
				// residency as a complete event ending at the flush.
				te.Ph = "X"
				te.TS = usec(ev.TimeUnixNano - base - ev.B)
				if te.TS < 0 {
					te.TS = 0
				}
				te.Dur = usec(ev.B)
			} else {
				te.Ph = "i"
				te.Scope = "t"
				te.TS = usec(ev.TimeUnixNano - base)
			}
			tr.TraceEvents = append(tr.TraceEvents, te)
		}
	}
	return tr
}
