package core

import (
	"bytes"
	"testing"

	"scap/internal/event"
	"scap/internal/mem"
)

func TestControlSetCutoffTriggersImmediately(t *testing.T) {
	h := newHarness(Config{Cutoff: CutoffUnlimited})
	ss := newSession(45000, 80)
	h.feed(ss.syn(), ss.synack(), ss.data(bytes.Repeat([]byte("a"), 500)))
	s := h.e.Table().Lookup(ss.key)
	if s == nil {
		t.Fatal("stream missing")
	}
	// Lower the cutoff below what's already captured: the stream must
	// transition to cutoff state on the next control drain.
	h.e.Control(Ctrl{Op: OpSetCutoff, Stream: s, ID: s.ID, Value: 100})
	h.feed(ss.data([]byte("more")))
	if s.Status.String() != "cutoff" {
		t.Errorf("status = %v, want cutoff", s.Status)
	}
	if st := h.e.Stats(); st.CutoffPkts == 0 {
		t.Error("no packets discarded after retroactive cutoff")
	}
}

func TestControlSetParams(t *testing.T) {
	h := newHarness(Config{Cutoff: CutoffUnlimited})
	ss := newSession(45001, 80)
	h.feed(ss.syn(), ss.synack(), ss.data([]byte("x")))
	s := h.e.Table().Lookup(ss.key)
	h.e.Control(Ctrl{Op: OpSetParam, Stream: s, ID: s.ID, Param: ParamChunkSize, Value: 2048})
	h.e.Control(Ctrl{Op: OpSetParam, Stream: s, ID: s.ID, Param: ParamOverlapSize, Value: 64})
	h.e.Control(Ctrl{Op: OpSetParam, Stream: s, ID: s.ID, Param: ParamFlushTimeout, Value: 5e6})
	h.e.Control(Ctrl{Op: OpSetParam, Stream: s, ID: s.ID, Param: ParamInactivityTimeout, Value: 1e9})
	h.feed(ss.data([]byte("y"))) // drain controls
	if s.ChunkSize != 2048 || s.OverlapSize != 64 || s.FlushTimeout != 5e6 || s.InactivityTimeout != 1e9 {
		t.Errorf("params = %d/%d/%d/%d", s.ChunkSize, s.OverlapSize, s.FlushTimeout, s.InactivityTimeout)
	}
	// Invalid values are rejected silently.
	h.e.Control(Ctrl{Op: OpSetParam, Stream: s, ID: s.ID, Param: ParamChunkSize, Value: -5})
	h.e.Control(Ctrl{Op: OpSetParam, Stream: s, ID: s.ID, Param: ParamOverlapSize, Value: 99999})
	h.feed(ss.data([]byte("z")))
	if s.ChunkSize != 2048 || s.OverlapSize != 64 {
		t.Errorf("invalid values applied: %d/%d", s.ChunkSize, s.OverlapSize)
	}
}

func TestPerStreamInactivityTimeout(t *testing.T) {
	h := newHarness(Config{Cutoff: CutoffUnlimited, InactivityTimeout: 10e9})
	fast := newSession(45002, 80)
	slow := newSession(45003, 80)
	h.feed(fast.syn(), fast.synack(), slow.syn(), slow.synack())
	fs := h.e.Table().Lookup(fast.key)
	h.e.Control(Ctrl{Op: OpSetParam, Stream: fs, ID: fs.ID, Param: ParamInactivityTimeout, Value: 1e9})
	h.feed(fast.data([]byte("a")), slow.data([]byte("b")))
	// After 2 virtual seconds: the fast-timeout stream expires, the slow
	// one survives.
	h.e.CheckTimers(h.ts + 2e9)
	h.drain()
	if h.e.Table().Lookup(fast.key) != nil {
		t.Error("short-timeout stream still tracked")
	}
	if h.e.Table().Lookup(slow.key) == nil {
		t.Error("default-timeout stream expired early")
	}
}

func TestEventQueueOverflowReleasesMemory(t *testing.T) {
	mm := mem.New(mem.Config{Size: 64 << 20})
	q := event.NewQueue(2) // tiny: force overflow
	e := NewEngine(Options{Config: Config{Cutoff: CutoffUnlimited, ChunkSize: 256}, Mem: mm, Queue: q})
	ss := newSession(45004, 80)
	ts := int64(0)
	feed := func(f []byte) {
		ts += 1000
		e.HandleFrame(f, ts)
	}
	feed(ss.syn())
	feed(ss.synack())
	for i := 0; i < 50; i++ {
		feed(ss.data(bytes.Repeat([]byte("q"), 256)))
	}
	feed(ss.fin())
	feed(ss.srvFin())
	st := e.Stats()
	if st.EventsLost == 0 || st.EventsLostBytes == 0 {
		t.Fatalf("expected event losses: %+v", st)
	}
	// Drain the two events that fit and release their memory.
	for {
		ev, ok := q.Poll()
		if !ok {
			break
		}
		if ev.Accounted > 0 {
			mm.Release(ev.Accounted)
		}
	}
	if mm.Used() != 0 {
		t.Errorf("memory leak after overflow: %d bytes", mm.Used())
	}
}

func TestIgnoredStreamsProduceNoEvents(t *testing.T) {
	h := newHarnessOpts(Options{Config: Config{
		Cutoff: CutoffUnlimited,
		Filter: mustFilter(t, "port 9999"),
	}})
	ss := newSession(45005, 80) // does not match
	h.feed(ss.syn(), ss.synack(), ss.data([]byte("ignored")), ss.fin(), ss.srvFin())
	if n := len(h.events); n != 0 {
		t.Errorf("%d events for an ignored stream", n)
	}
	// The stream record exists for cheap discarding but is ignored.
	if st := h.e.Stats(); st.FilterIgnoredPkts == 0 {
		t.Error("ignored packets not counted")
	}
	if h.mm.Used() != 0 {
		t.Errorf("memory used for ignored stream: %d", h.mm.Used())
	}
}

func TestOppositeDirectionInheritsPriority(t *testing.T) {
	h := newHarness(Config{Cutoff: CutoffUnlimited, Priorities: 2})
	ss := newSession(45006, 80)
	h.feed(ss.syn())
	s := h.e.Table().Lookup(ss.key)
	h.e.Control(Ctrl{Op: OpSetPriority, Stream: s, ID: s.ID, Value: 1})
	h.feed(ss.synack()) // creates the opposite direction
	opp := h.e.Table().Lookup(ss.key.Reverse())
	if opp == nil || opp.Priority != 1 {
		t.Errorf("opposite priority = %+v", opp)
	}
}

func TestPriorityClassAppliesAtCreation(t *testing.T) {
	h := newHarnessOpts(Options{Config: Config{
		Cutoff:     CutoffUnlimited,
		Priorities: 2,
		PriorityClasses: []PriorityClass{
			{Filter: mustFilter(t, "port 443"), Priority: 1},
		},
	}})
	tls := newSession(45007, 443)
	web := newSession(45008, 80)
	h.feed(tls.syn(), web.syn())
	if s := h.e.Table().Lookup(tls.key); s == nil || s.Priority != 1 {
		t.Errorf("tls stream priority = %+v", s)
	}
	if s := h.e.Table().Lookup(web.key); s == nil || s.Priority != 0 {
		t.Errorf("web stream priority = %+v", s)
	}
}
