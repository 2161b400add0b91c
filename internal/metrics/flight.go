package metrics

import (
	"sort"
	"sync/atomic"
	"time"
)

// The flight recorder is the registry's always-on incident log: a fixed-size
// per-core ring of compact binary records for notable engine decisions (PPL
// transitions, cutoff truncation, FDIR churn, ring overflow, arena fallback,
// stream churn under pressure). It is the one place an occurrence is
// recorded, and it is written from //scap:hotpath code, so the write path —
// Note — is a claim plus a Slot store: no locks, no allocation, no
// formatting. Readers reconstruct a best-effort timeline on demand
// (/debug/flight), and can export it as Chrome trace-event JSON for
// chrome://tracing / Perfetto.

// FlightKind discriminates flight-recorder records.
type FlightKind uint8

// Flight record kinds, in rough pipeline order.
const (
	FlightPPLEnter       FlightKind = iota // memory crossed the PPL watermark; Value = usage per-mille
	FlightPPLExit                          // pressure released; Value = episode duration (ns)
	FlightCutoff                           // stream hit its cutoff; Value = stream ID, Aux = captured bytes
	FlightFDIRInstall                      // hardware drop filter installed; Value = stream ID (0 = sketch-nominated)
	FlightFDIRRemove                       // hardware filter removed/expired; Value = stream ID (0 = sketch-nominated)
	FlightFDIRRebalance                    // balancer redirected a flow; Value = from queue, Aux = to queue
	FlightRingOverflow                     // event ring full, events lost; Value = events lost in the batch
	FlightNICRingFull                      // NIC ring full episode began; Value = ring capacity
	FlightNICRingRecover                   // NIC ring drained; Value = frames dropped, Aux = episode duration (virtual ns)
	FlightArenaFallback                    // arena exhausted, chunk fell back to heap; Value = requested bytes
	FlightStreamCreate                     // stream created while under PPL pressure; Value = stream ID, Aux = priority
	FlightStreamExpire                     // stream timed out/evicted while under PPL pressure; Value = stream ID

	// Control-plane decisions (internal/ctlplane). The controller notes one
	// record per actuation so an overload episode replays end to end:
	// signal (PPL/arena records above) → decision (these) → recovery.
	FlightCtlTighten    // controller lowered the dynamic cutoff; Value = new cutoff bytes, Aux = memory per-mille
	FlightCtlRelax      // controller raised/restored the cutoff; Value = new cutoff (-1 = restored), Aux = memory per-mille
	FlightCtlFDIRBudget // controller resized the sketch-FDIR budget; Value = filters per core, Aux = tracked heavies
	FlightCtlWatermarks // controller retargeted PPL watermarks; Value = watermark_0 per-mille, Aux = priority levels
)

var flightKindNames = [...]string{
	FlightPPLEnter:       "ppl_enter",
	FlightPPLExit:        "ppl_exit",
	FlightCutoff:         "cutoff",
	FlightFDIRInstall:    "fdir_install",
	FlightFDIRRemove:     "fdir_remove",
	FlightFDIRRebalance:  "fdir_rebalance",
	FlightRingOverflow:   "event_ring_overflow",
	FlightNICRingFull:    "nic_ring_full",
	FlightNICRingRecover: "nic_ring_recover",
	FlightArenaFallback:  "arena_fallback",
	FlightStreamCreate:   "stream_create",
	FlightStreamExpire:   "stream_expire",
	FlightCtlTighten:     "ctl_tighten",
	FlightCtlRelax:       "ctl_relax",
	FlightCtlFDIRBudget:  "ctl_fdir_budget",
	FlightCtlWatermarks:  "ctl_watermarks",
}

// String returns the kind's wire name.
func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) {
		return flightKindNames[k]
	}
	return "unknown"
}

// defaultFlightCap is each core's ring capacity (power of two). At 48 bytes a
// slot this is ~48 KiB per core — cheap enough to leave always on.
const defaultFlightCap = 1024

// Slot is one fixed-size record published under a seqlock in miniature; the
// flight recorder's per-core rings and the streamscope journals both store
// their records in it. Every field is atomic so concurrent writer/reader
// access is race-free, and seq doubles as the publication flag: Store zeroes
// seq, stores the payload, then publishes the record's sequence number. Load
// accepts a copy only when seq reads the same nonzero value before and after,
// so a record torn by a writer lapping its ring is detected and skipped
// rather than misreported.
//
//scap:atomics
type Slot struct {
	seq  atomic.Uint64 // record sequence (1-based); 0 = empty or being written
	ts   atomic.Int64  // capture-clock timestamp (ns)
	kind atomic.Uint64
	a    atomic.Int64
	b    atomic.Int64
}

// Store publishes record seq (nonzero): six atomic stores, no locks.
//
//scap:hotpath
func (s *Slot) Store(seq uint64, ts int64, kind uint64, a, b int64) {
	s.seq.Store(0)
	s.ts.Store(ts)
	s.kind.Store(kind)
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(seq)
}

// Load copies the slot's record. It returns seq 0 when the slot is empty or
// a writer tore every one of a few attempts (a slot being lapped repeatedly
// is simply dropped).
func (s *Slot) Load() (seq uint64, ts int64, kind uint64, a, b int64) {
	for attempt := 0; attempt < 3; attempt++ {
		if seq = s.seq.Load(); seq == 0 {
			break
		}
		ts, kind, a, b = s.ts.Load(), s.kind.Load(), s.a.Load(), s.b.Load()
		if s.seq.Load() == seq {
			return seq, ts, kind, a, b
		}
	}
	return 0, 0, 0, 0, 0
}

// flightRing is one core's ring. The cursor sits alone on its cache line so
// writer claims never contend with neighbouring cores' cursors.
//
//scap:atomics
type flightRing struct {
	_     [64]byte
	next  atomic.Uint64 // records ever claimed on this ring
	_     [64]byte
	slots []Slot
}

// FlightRecorder is the per-core flight-recorder ring set of one registry.
// Note is the only method legal in //scap:hotpath code (the metricreg
// analyzer enforces this); Snapshot/Dump/Total are cold read paths.
type FlightRecorder struct {
	rings []flightRing
	mask  uint64
	now   *func() int64
}

func newFlightRecorder(cores, capacity int, now *func() int64) *FlightRecorder {
	if cores < 1 {
		cores = 1
	}
	if capacity < 2 || capacity&(capacity-1) != 0 {
		capacity = defaultFlightCap
	}
	f := &FlightRecorder{
		rings: make([]flightRing, cores),
		mask:  uint64(capacity - 1),
		now:   now,
	}
	for i := range f.rings {
		f.rings[i].slots = make([]Slot, capacity)
	}
	return f
}

// Note records one flight record on core's ring, overwriting the oldest slot
// when the ring is full. It is the fixed-size no-alloc encoder: a claim plus
// a Slot store, safe from //scap:hotpath code. An out-of-range core falls
// back to ring 0.
//
//scap:hotpath
func (f *FlightRecorder) Note(core int, kind FlightKind, value, aux int64) {
	if core < 0 || core >= len(f.rings) {
		core = 0
	}
	r := &f.rings[core]
	n := r.next.Add(1) // 1-based sequence; slot index is (n-1) & mask
	r.slots[(n-1)&f.mask].Store(n, (*f.now)(), uint64(kind), value, aux)
}

// Now reads the recorder's clock (the registry clock), for callers that
// keep episode bookkeeping on the same timeline as their records.
func (f *FlightRecorder) Now() int64 { return (*f.now)() }

// FlightRecord is one decoded flight-recorder record.
type FlightRecord struct {
	Seq          uint64     `json:"seq"`
	TimeUnixNano int64      `json:"time_unix_nano"`
	Core         int        `json:"core"`
	Kind         FlightKind `json:"kind"`
	KindName     string     `json:"kind_name"`
	Value        int64      `json:"value"`
	Aux          int64      `json:"aux,omitempty"`
}

// Snapshot decodes every readable record, oldest first (by timestamp, then
// core, then sequence). Records being overwritten concurrently are skipped.
func (f *FlightRecorder) Snapshot() []FlightRecord {
	var out []FlightRecord
	for core := range f.rings {
		r := &f.rings[core]
		for i := range r.slots {
			n, ts, kind, val, aux := r.slots[i].Load()
			if n == 0 {
				continue
			}
			out = append(out, FlightRecord{
				Seq:          n,
				TimeUnixNano: ts,
				Core:         core,
				Kind:         FlightKind(kind),
				KindName:     FlightKind(kind).String(),
				Value:        val,
				Aux:          aux,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TimeUnixNano != out[j].TimeUnixNano {
			return out[i].TimeUnixNano < out[j].TimeUnixNano
		}
		if out[i].Core != out[j].Core {
			return out[i].Core < out[j].Core
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Total returns how many records were ever written across all cores
// (including records since overwritten).
func (f *FlightRecorder) Total() uint64 {
	var t uint64
	for i := range f.rings {
		t += f.rings[i].next.Load()
	}
	return t
}

// FlightDump is the /debug/flight JSON wire format.
type FlightDump struct {
	TimeUnixNano int64          `json:"time_unix_nano"`
	Cores        int            `json:"cores"`
	Capacity     int            `json:"capacity_per_core"`
	Total        uint64         `json:"total_recorded"`
	Records      []FlightRecord `json:"records"`
}

// Dump packages a snapshot for serving.
func (f *FlightRecorder) Dump() FlightDump {
	return FlightDump{
		TimeUnixNano: (*f.now)(),
		Cores:        len(f.rings),
		Capacity:     int(f.mask + 1),
		Total:        f.Total(),
		Records:      f.Snapshot(),
	}
}

// ChromeTraceEvent is one event of the Chrome trace-event format
// (chrome://tracing, Perfetto), shared by the flight export and the
// streamscope per-stream tracks. Timestamps and durations are microseconds;
// Args holds numbers, or strings in thread-name metadata.
type ChromeTraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the JSON-object form of the trace-event format.
type ChromeTrace struct {
	TraceEvents     []ChromeTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
}

// ChromeTraceFromRecords converts flight records into a Chrome trace.
// Timestamps are rebased to the earliest record; each core becomes a thread
// (tid). Episode-closing kinds that carry a duration (PPL exit) become
// complete ("X") events spanning the episode; everything else is an instant
// ("i") event with the record's payload in args.
func ChromeTraceFromRecords(recs []FlightRecord) ChromeTrace {
	tr := ChromeTrace{DisplayTimeUnit: "ms", TraceEvents: []ChromeTraceEvent{}}
	if len(recs) == 0 {
		return tr
	}
	base := recs[0].TimeUnixNano
	for _, r := range recs {
		if r.TimeUnixNano < base {
			base = r.TimeUnixNano
		}
	}
	usec := func(ns int64) float64 { return float64(ns) / float64(time.Microsecond) }
	for _, r := range recs {
		ev := ChromeTraceEvent{
			Name: r.KindName,
			Cat:  "flight",
			TID:  r.Core,
			Args: map[string]any{"value": r.Value, "aux": r.Aux, "seq": int64(r.Seq)},
		}
		if r.Kind == FlightPPLExit && r.Value > 0 {
			// Value is the episode duration: render the whole episode as a
			// complete event ending at the record's timestamp.
			ev.Ph = "X"
			ev.TS = usec(r.TimeUnixNano - base - r.Value)
			if ev.TS < 0 {
				ev.TS = 0
			}
			ev.Dur = usec(r.Value)
		} else {
			ev.Ph = "i"
			ev.Scope = "t"
			ev.TS = usec(r.TimeUnixNano - base)
		}
		tr.TraceEvents = append(tr.TraceEvents, ev)
	}
	return tr
}
