package core

import (
	"bytes"
	"math/rand"
	"testing"

	"scap/internal/bpf"
	"scap/internal/event"
	"scap/internal/flowtab"
	"scap/internal/mem"
	"scap/internal/metrics"
	"scap/internal/nic"
	"scap/internal/pkt"
	"scap/internal/reassembly"
)

// session synthesizes one side-complete TCP conversation for tests.
type session struct {
	key     pkt.FlowKey
	seq     uint32 // client next seq
	ackSeq  uint32 // server next seq
	started bool
}

func newSession(sp, dp uint16) *session {
	return &session{
		key: pkt.FlowKey{
			SrcIP: pkt.MustAddr("10.0.0.1"), DstIP: pkt.MustAddr("172.16.0.2"),
			SrcPort: sp, DstPort: dp, Proto: pkt.ProtoTCP,
		},
		seq:    1000,
		ackSeq: 5000,
	}
}

func (ss *session) syn() []byte {
	f := pkt.BuildTCP(pkt.TCPSpec{Key: ss.key, Seq: ss.seq, Flags: pkt.FlagSYN})
	ss.seq++
	return f
}

func (ss *session) synack() []byte {
	f := pkt.BuildTCP(pkt.TCPSpec{Key: ss.key.Reverse(), Seq: ss.ackSeq, Ack: ss.seq, Flags: pkt.FlagSYN | pkt.FlagACK})
	ss.ackSeq++
	return f
}

func (ss *session) data(payload []byte) []byte {
	f := pkt.BuildTCP(pkt.TCPSpec{Key: ss.key, Seq: ss.seq, Ack: ss.ackSeq, Flags: pkt.FlagACK | pkt.FlagPSH, Payload: payload})
	ss.seq += uint32(len(payload))
	return f
}

func (ss *session) srvData(payload []byte) []byte {
	f := pkt.BuildTCP(pkt.TCPSpec{Key: ss.key.Reverse(), Seq: ss.ackSeq, Ack: ss.seq, Flags: pkt.FlagACK | pkt.FlagPSH, Payload: payload})
	ss.ackSeq += uint32(len(payload))
	return f
}

func (ss *session) fin() []byte {
	f := pkt.BuildTCP(pkt.TCPSpec{Key: ss.key, Seq: ss.seq, Ack: ss.ackSeq, Flags: pkt.FlagFIN | pkt.FlagACK})
	ss.seq++
	return f
}

func (ss *session) srvFin() []byte {
	f := pkt.BuildTCP(pkt.TCPSpec{Key: ss.key.Reverse(), Seq: ss.ackSeq, Ack: ss.seq, Flags: pkt.FlagFIN | pkt.FlagACK})
	ss.ackSeq++
	return f
}

func (ss *session) rst() []byte {
	return pkt.BuildTCP(pkt.TCPSpec{Key: ss.key, Seq: ss.seq, Flags: pkt.FlagRST})
}

// harness drives an engine and records events.
type harness struct {
	e      *Engine
	q      *event.Queue
	mm     *mem.Manager
	ts     int64
	events []event.Event
}

func newHarness(cfg Config) *harness {
	return newHarnessOpts(Options{Config: cfg})
}

func newHarnessOpts(opts Options) *harness {
	q := event.NewQueue(1 << 14)
	mm := opts.Mem
	if mm == nil {
		mm = mem.New(mem.Config{Size: 64 << 20, Priorities: opts.Config.Priorities})
	}
	opts.Mem = mm
	opts.Queue = q
	opts.Rand = rand.New(rand.NewSource(42))
	return &harness{e: NewEngine(opts), q: q, mm: mm}
}

// feed sends a frame and drains events; each data event's memory is
// released the way the user-level stub would after the callback.
func (h *harness) feed(frames ...[]byte) {
	for _, f := range frames {
		h.ts += 1000
		h.e.HandleFrame(f, h.ts)
		h.drain()
	}
}

func (h *harness) drain() {
	for {
		ev, ok := h.q.Poll()
		if !ok {
			return
		}
		if ev.Type == event.Data {
			// Copy the data and records, then hand the block back the way
			// the user-level worker would after its callback.
			ev.Data = append([]byte(nil), ev.Data...)
			ev.Pkts = append([]event.PacketRecord(nil), ev.Pkts...)
			if ev.Accounted > 0 {
				h.mm.Release(ev.Accounted)
			}
			h.mm.ReturnBlocks(h.e.CoreID(), []mem.Handle{ev.Block})
			ev.Block = mem.NoBlock
		}
		h.events = append(h.events, ev)
	}
}

func (h *harness) byType(t event.Type) []event.Event {
	var out []event.Event
	for _, ev := range h.events {
		if ev.Type == t {
			out = append(out, ev)
		}
	}
	return out
}

// dataFor concatenates delivered chunks for a stream ID.
func (h *harness) dataFor(id uint64) []byte {
	var buf []byte
	for _, ev := range h.byType(event.Data) {
		if ev.Info.ID == id {
			skip := 0
			if ev.Info.OverlapSize > 0 && len(buf) > 0 {
				skip = ev.Info.OverlapSize
				if skip > len(ev.Data) {
					skip = len(ev.Data)
				}
			}
			buf = append(buf, ev.Data[skip:]...)
		}
	}
	return buf
}

func TestFullSessionLifecycle(t *testing.T) {
	h := newHarness(Config{Cutoff: CutoffUnlimited})
	ss := newSession(40000, 80)
	req := []byte("GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n")
	resp := bytes.Repeat([]byte("response-data "), 100)
	h.feed(ss.syn(), ss.synack(), ss.data(req), ss.srvData(resp), ss.fin(), ss.srvFin())

	creations := h.byType(event.Creation)
	if len(creations) != 2 {
		t.Fatalf("creation events = %d, want 2 (one per direction)", len(creations))
	}
	terms := h.byType(event.Termination)
	if len(terms) != 2 {
		t.Fatalf("termination events = %d, want 2", len(terms))
	}
	for _, ev := range terms {
		if ev.Info.Status != flowtab.StatusClosed {
			t.Errorf("termination status = %v", ev.Info.Status)
		}
	}

	var clientID, serverID uint64
	for _, ev := range creations {
		if ev.Info.Dir == pkt.DirClient {
			clientID = ev.Info.ID
		} else {
			serverID = ev.Info.ID
		}
	}
	if got := h.dataFor(clientID); !bytes.Equal(got, req) {
		t.Errorf("client stream data = %q", got)
	}
	if got := h.dataFor(serverID); !bytes.Equal(got, resp) {
		t.Errorf("server stream: got %d bytes, want %d", len(got), len(resp))
	}
	if used := h.mm.Used(); used != 0 {
		t.Errorf("memory not fully released: %d", used)
	}
	if st := h.e.Stats(); st.StreamsClosed != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestChunkingAtChunkSize(t *testing.T) {
	h := newHarness(Config{ChunkSize: 1024, Cutoff: CutoffUnlimited})
	ss := newSession(40001, 80)
	h.feed(ss.syn(), ss.synack())
	payload := bytes.Repeat([]byte("z"), 300)
	for i := 0; i < 12; i++ { // 3600 bytes -> 3 full chunks + partial
		h.feed(ss.data(payload))
	}
	data := h.byType(event.Data)
	if len(data) != 3 {
		t.Fatalf("data events = %d, want 3 full chunks before close", len(data))
	}
	for _, ev := range data {
		if len(ev.Data) != 1024 {
			t.Errorf("chunk size = %d", len(ev.Data))
		}
	}
	h.feed(ss.fin(), ss.srvFin())
	data = h.byType(event.Data)
	if len(data) != 4 {
		t.Fatalf("data events after close = %d, want 4", len(data))
	}
	last := data[3]
	if !last.Last || len(last.Data) != 3600-3*1024 {
		t.Errorf("final chunk: last=%v len=%d", last.Last, len(last.Data))
	}
}

func TestChunkOverlap(t *testing.T) {
	h := newHarness(Config{ChunkSize: 100, OverlapSize: 10, Cutoff: CutoffUnlimited})
	ss := newSession(40002, 80)
	h.feed(ss.syn(), ss.synack())
	payload := make([]byte, 250)
	for i := range payload {
		payload[i] = byte(i)
	}
	h.feed(ss.data(payload), ss.fin(), ss.srvFin())
	data := h.byType(event.Data)
	if len(data) < 2 {
		t.Fatalf("data events = %d", len(data))
	}
	// Second chunk must start with the last 10 bytes of the first.
	c0, c1 := data[0].Data, data[1].Data
	if !bytes.Equal(c1[:10], c0[len(c0)-10:]) {
		t.Errorf("overlap mismatch: %v vs %v", c1[:10], c0[len(c0)-10:])
	}
	// Reconstructed data (skipping overlaps) must equal the payload.
	var rec []byte
	rec = append(rec, data[0].Data...)
	for _, ev := range data[1:] {
		rec = append(rec, ev.Data[10:]...)
	}
	if !bytes.Equal(rec, payload) {
		t.Errorf("reconstruction failed: %d vs %d bytes", len(rec), len(payload))
	}
}

func TestCutoffDiscardsTail(t *testing.T) {
	h := newHarness(Config{Cutoff: 100, ChunkSize: 64})
	ss := newSession(40003, 80)
	h.feed(ss.syn(), ss.synack())
	h.feed(ss.data(bytes.Repeat([]byte("a"), 80)))
	h.feed(ss.data(bytes.Repeat([]byte("b"), 80))) // crosses cutoff at 100
	h.feed(ss.data(bytes.Repeat([]byte("c"), 80))) // fully discarded
	h.feed(ss.fin(), ss.srvFin())

	var clientID uint64
	for _, ev := range h.byType(event.Creation) {
		if ev.Info.Dir == pkt.DirClient {
			clientID = ev.Info.ID
		}
	}
	got := h.dataFor(clientID)
	if len(got) != 100 {
		t.Errorf("captured %d bytes, want exactly cutoff=100", len(got))
	}
	// Stats keep counting beyond the cutoff.
	term := h.byType(event.Termination)
	for _, ev := range term {
		if ev.Info.Dir == pkt.DirClient {
			if ev.Info.Stats.PayloadBytes != 240 {
				t.Errorf("payload bytes = %d, want 240", ev.Info.Stats.PayloadBytes)
			}
			if ev.Info.Stats.CapturedBytes != 100 {
				t.Errorf("captured = %d", ev.Info.Stats.CapturedBytes)
			}
		}
	}
	if st := h.e.Stats(); st.CutoffBytes != 140 {
		t.Errorf("cutoff bytes = %d, want 140", st.CutoffBytes)
	}
}

func TestZeroCutoffFlowStatsOnly(t *testing.T) {
	h := newHarness(Config{Cutoff: 0})
	ss := newSession(40004, 80)
	h.feed(ss.syn(), ss.synack())
	for i := 0; i < 5; i++ {
		h.feed(ss.data(bytes.Repeat([]byte("x"), 1000)))
	}
	h.feed(ss.fin(), ss.srvFin())
	if n := len(h.byType(event.Data)); n != 0 {
		t.Errorf("data events = %d, want 0 with zero cutoff", n)
	}
	terms := h.byType(event.Termination)
	if len(terms) != 2 {
		t.Fatalf("terminations = %d", len(terms))
	}
	for _, ev := range terms {
		if ev.Info.Dir == pkt.DirClient && ev.Info.Stats.PayloadBytes != 5000 {
			t.Errorf("stats lost under zero cutoff: %+v", ev.Info.Stats)
		}
	}
	if h.mm.Used() != 0 {
		t.Errorf("memory leak: %d", h.mm.Used())
	}
}

func TestFDIRInstallOnCutoff(t *testing.T) {
	dev := nic.New(nic.Config{Queues: 1})
	h := newHarnessOpts(Options{Config: Config{Cutoff: 10, UseFDIR: true}, NIC: dev})
	ss := newSession(40005, 80)
	h.feed(ss.syn(), ss.synack(), ss.data(bytes.Repeat([]byte("y"), 50)))
	// Cutoff reached: both drop filters for the client direction must be
	// installed.
	if p, _ := dev.FilterCount(); p != 2 {
		t.Fatalf("perfect filters = %d, want 2", p)
	}
	if st := h.e.Stats(); st.FDIRInstalled != 1 {
		t.Errorf("FDIRInstalled = %d", st.FDIRInstalled)
	}
	// Data packets now die at the NIC...
	if q := dev.Receive(ss.data([]byte("dropme")), 1); q != -1 {
		t.Error("data packet survived the FDIR filter")
	}
	// ...but FIN/RST pass and terminate the stream, removing filters.
	fin := ss.fin()
	if q := dev.Receive(fin, 2); q < 0 {
		t.Fatal("FIN dropped at NIC")
	}
	h.feed(fin, ss.srvFin())
	if p, _ := dev.FilterCount(); p != 0 {
		t.Errorf("filters after termination = %d", p)
	}
}

func TestFDIRFilterTimeoutAndReinstallDoubling(t *testing.T) {
	dev := nic.New(nic.Config{Queues: 1})
	h := newHarnessOpts(Options{Config: Config{Cutoff: 10, UseFDIR: true, InactivityTimeout: 1e9}, NIC: dev})
	ss := newSession(40006, 80)
	h.feed(ss.syn(), ss.synack(), ss.data(bytes.Repeat([]byte("y"), 50)))
	if p, _ := dev.FilterCount(); p != 2 {
		t.Fatalf("filters = %d", p)
	}
	// Advance past the filter deadline; filters are removed but the stream
	// must stay tracked (a stream silenced by its own FDIR filter is not
	// inactive). A late data packet then re-installs with doubled timeout.
	h.ts += 2e9
	h.e.CheckTimers(h.ts)
	if p, _ := dev.FilterCount(); p != 0 {
		t.Fatalf("filters not expired: %d", p)
	}
	h.feed(ss.data([]byte("tail")))
	if p, _ := dev.FilterCount(); p != 2 {
		t.Fatalf("filters not re-installed: %d", p)
	}
	if st := h.e.Stats(); st.FDIRInstalled != 2 {
		t.Errorf("FDIRInstalled = %d, want 2", st.FDIRInstalled)
	}
}

// flightKinds counts the registry's flight records by kind name.
func flightKinds(reg *metrics.Registry) map[string]int {
	n := map[string]int{}
	for _, r := range reg.Flight().Snapshot() {
		n[r.KindName]++
	}
	return n
}

// TestFDIRExpiryIsFlightRecorded: a filter pair removed because its
// deadline passed is an occurrence like a removal on termination, and must
// show up in the flight recorder.
func TestFDIRExpiryIsFlightRecorded(t *testing.T) {
	dev := nic.New(nic.Config{Queues: 1})
	reg := metrics.NewRegistry(1)
	h := newHarnessOpts(Options{Config: Config{Cutoff: 10, UseFDIR: true, InactivityTimeout: 1e9}, NIC: dev, Metrics: NewMetrics(reg)})
	ss := newSession(40016, 80)
	h.feed(ss.syn(), ss.synack(), ss.data(bytes.Repeat([]byte("y"), 50)))
	if got := flightKinds(reg); got["fdir_install"] != 1 || got["fdir_remove"] != 0 {
		t.Fatalf("after install: flight kinds = %v", got)
	}
	h.ts += 2e9
	h.e.CheckTimers(h.ts)
	if p, _ := dev.FilterCount(); p != 0 {
		t.Fatalf("filters not expired: %d", p)
	}
	if got := flightKinds(reg); got["fdir_remove"] != 1 {
		t.Fatalf("expired filter not flight-recorded: kinds = %v", got)
	}
}

func TestInactivityExpiry(t *testing.T) {
	h := newHarness(Config{InactivityTimeout: 1e9, Cutoff: CutoffUnlimited})
	ss := newSession(40007, 8080)
	h.feed(ss.syn(), ss.synack(), ss.data([]byte("some data")))
	h.e.CheckTimers(h.ts + 5e8) // not yet
	h.drain()
	if n := len(h.byType(event.Termination)); n != 0 {
		t.Fatalf("premature expiry")
	}
	h.e.CheckTimers(h.ts + 2e9)
	h.drain()
	terms := h.byType(event.Termination)
	if len(terms) != 2 {
		t.Fatalf("terminations = %d, want 2", len(terms))
	}
	for _, ev := range terms {
		if ev.Info.Status != flowtab.StatusTimedOut {
			t.Errorf("status = %v", ev.Info.Status)
		}
	}
	// Partial data must have been flushed as a final chunk.
	found := false
	for _, ev := range h.byType(event.Data) {
		if ev.Last && bytes.Equal(ev.Data, []byte("some data")) {
			found = true
		}
	}
	if !found {
		t.Error("final flush chunk missing")
	}
	if h.mm.Used() != 0 {
		t.Errorf("memory leak: %d", h.mm.Used())
	}
}

func TestFlushTimeout(t *testing.T) {
	h := newHarness(Config{FlushTimeout: 1e6, Cutoff: CutoffUnlimited})
	ss := newSession(40008, 80)
	h.feed(ss.syn(), ss.synack(), ss.data([]byte("partial chunk")))
	if n := len(h.byType(event.Data)); n != 0 {
		t.Fatal("chunk delivered before flush timeout")
	}
	h.e.CheckTimers(h.ts + 2e6)
	h.drain()
	data := h.byType(event.Data)
	if len(data) != 1 || !bytes.Equal(data[0].Data, []byte("partial chunk")) {
		t.Fatalf("flush produced %v", data)
	}
	if data[0].Last {
		t.Error("flush chunk wrongly marked last")
	}
}

func TestRSTTerminatesImmediately(t *testing.T) {
	h := newHarness(Config{Cutoff: CutoffUnlimited})
	ss := newSession(40009, 80)
	h.feed(ss.syn(), ss.synack(), ss.data([]byte("abc")), ss.rst())
	terms := h.byType(event.Termination)
	if len(terms) != 2 {
		t.Fatalf("terminations after RST = %d", len(terms))
	}
}

func TestUDPConcatenation(t *testing.T) {
	h := newHarness(Config{Cutoff: CutoffUnlimited, InactivityTimeout: 1e9})
	key := pkt.FlowKey{
		SrcIP: pkt.MustAddr("10.0.0.9"), DstIP: pkt.MustAddr("10.0.0.10"),
		SrcPort: 5000, DstPort: 53, Proto: pkt.ProtoUDP,
	}
	h.feed(
		pkt.BuildUDP(pkt.UDPSpec{Key: key, Payload: []byte("one-")}),
		pkt.BuildUDP(pkt.UDPSpec{Key: key, Payload: []byte("two-")}),
		pkt.BuildUDP(pkt.UDPSpec{Key: key, Payload: []byte("three")}),
	)
	h.e.CheckTimers(h.ts + 2e9)
	h.drain()
	var id uint64
	for _, ev := range h.byType(event.Creation) {
		id = ev.Info.ID
	}
	if got := h.dataFor(id); string(got) != "one-two-three" {
		t.Errorf("udp stream = %q", got)
	}
}

func TestSocketFilterIgnoresStreams(t *testing.T) {
	h := newHarness(Config{Cutoff: CutoffUnlimited})
	h2 := newHarnessOpts(Options{Config: Config{Cutoff: CutoffUnlimited, Filter: mustFilter(t, "port 80")}})
	ss80 := newSession(40010, 80)
	ss443 := newSession(40011, 443)
	for _, h := range []*harness{h, h2} {
		h.feed(ss80.syn(), ss80.synack(), ss80.data([]byte("http")))
		h.feed(ss443.syn(), ss443.synack(), ss443.data([]byte("tls!")))
		ss80, ss443 = newSession(40010, 80), newSession(40011, 443)
	}
	// Unfiltered harness saw both; filtered only port 80.
	if n := len(h.byType(event.Creation)); n != 4 {
		t.Errorf("unfiltered creations = %d", n)
	}
	if n := len(h2.byType(event.Creation)); n != 2 {
		t.Errorf("filtered creations = %d, want 2", n)
	}
	for _, ev := range h2.byType(event.Creation) {
		if ev.Info.Key.SrcPort != 80 && ev.Info.Key.DstPort != 80 {
			t.Errorf("filter leaked stream %v", ev.Info.Key)
		}
	}
	if st := h2.e.Stats(); st.FilterIgnoredPkts == 0 {
		t.Error("ignored packets not counted")
	}
}

func TestCutoffClasses(t *testing.T) {
	h := newHarnessOpts(Options{Config: Config{
		Cutoff: CutoffUnlimited,
		CutoffClasses: []CutoffClass{
			{Filter: mustFilter(t, "port 443"), Cutoff: 4},
		},
	}})
	ssWeb := newSession(40012, 443)
	ssOther := newSession(40013, 8080)
	h.feed(ssWeb.syn(), ssWeb.synack(), ssWeb.data([]byte("0123456789")))
	h.feed(ssOther.syn(), ssOther.synack(), ssOther.data([]byte("0123456789")))
	h.feed(ssWeb.fin(), ssWeb.srvFin(), ssOther.fin(), ssOther.srvFin())
	var webBytes, otherBytes int
	for _, ev := range h.byType(event.Data) {
		if ev.Info.Key.DstPort == 443 {
			webBytes += len(ev.Data)
		}
		if ev.Info.Key.DstPort == 8080 {
			otherBytes += len(ev.Data)
		}
	}
	if webBytes != 4 {
		t.Errorf("class cutoff bytes = %d, want 4", webBytes)
	}
	if otherBytes != 10 {
		t.Errorf("unclassified bytes = %d, want 10", otherBytes)
	}
}

func TestPerDirectionCutoff(t *testing.T) {
	h := newHarnessOpts(Options{Config: Config{
		Cutoff:          CutoffUnlimited,
		CutoffServerSet: true,
		CutoffServer:    6,
	}})
	ss := newSession(40014, 80)
	h.feed(ss.syn(), ss.synack())
	h.feed(ss.data([]byte("client-bytes")), ss.srvData([]byte("server-bytes")))
	h.feed(ss.fin(), ss.srvFin())
	var client, server int
	for _, ev := range h.byType(event.Data) {
		if ev.Info.Dir == pkt.DirClient {
			client += len(ev.Data)
		} else {
			server += len(ev.Data)
		}
	}
	if client != len("client-bytes") {
		t.Errorf("client bytes = %d", client)
	}
	if server != 6 {
		t.Errorf("server bytes = %d, want 6", server)
	}
}

func TestMaxStreamsEvictsOldest(t *testing.T) {
	h := newHarnessOpts(Options{Config: Config{Cutoff: CutoffUnlimited}, MaxStreams: 4})
	for i := 0; i < 6; i++ {
		ss := newSession(uint16(41000+i), 80)
		h.feed(ss.syn())
	}
	if h.e.Table().Len() > 4 {
		t.Errorf("table len = %d, want <= 4", h.e.Table().Len())
	}
	if st := h.e.Stats(); st.StreamsEvicted == 0 {
		t.Error("no evictions recorded")
	}
}

func TestPPLDropsUnderMemoryPressure(t *testing.T) {
	// Small blocks and a budget with a few blocks of slack: the byte-level
	// watermarks drive the drops under test, while the low-priority stream's
	// partially filled block must not starve the high-priority stream of a
	// physical block.
	mm := mem.New(mem.Config{Size: 8192, BaseThreshold: 0.5, Priorities: 2, BlockSize: 1024})
	h := newHarnessOpts(Options{Config: Config{Cutoff: CutoffUnlimited, Priorities: 2, ChunkSize: 1 << 20}, Mem: mm})
	// Low-priority stream fills memory past the low watermark; events are
	// drained but never released, so memory stays reserved.
	low := newSession(42000, 9999)
	h.feedNoRelease(low.syn(), low.synack())
	for i := 0; i < 8; i++ {
		h.feedNoRelease(low.data(bytes.Repeat([]byte("L"), 800)))
	}
	st := h.e.Stats()
	if st.PPLDroppedPkts == 0 {
		t.Fatalf("no PPL drops despite pressure: %+v (used=%d)", st, mm.Used())
	}
	// A high-priority stream is still admitted.
	hi := newSession(42001, 80)
	h.feedNoRelease(hi.syn(), hi.synack())
	if s := h.e.Table().Lookup(hi.key); s != nil {
		h.e.Control(Ctrl{Op: OpSetPriority, Stream: s, ID: s.ID, Value: 1})
	} else {
		t.Fatal("high stream missing")
	}
	h.feedNoRelease(hi.data(bytes.Repeat([]byte("H"), 200)))
	dropped := h.e.Stats().PPLDroppedPkts
	hiStream := h.e.Table().Lookup(hi.key)
	if hiStream == nil || hiStream.Stats.DroppedPkts != 0 {
		t.Errorf("high-priority stream dropped packets: %+v", hiStream.Stats)
	}
	_ = dropped
}

// feedNoRelease feeds frames without releasing chunk memory (events are
// drained but treated as unconsumed, keeping pressure on the budget).
func (h *harness) feedNoRelease(frames ...[]byte) {
	for _, f := range frames {
		h.ts += 1000
		h.e.HandleFrame(f, h.ts)
		for {
			ev, ok := h.q.Poll()
			if !ok {
				break
			}
			h.events = append(h.events, ev)
		}
	}
}

func TestControlDiscardStream(t *testing.T) {
	h := newHarness(Config{Cutoff: CutoffUnlimited})
	ss := newSession(42002, 80)
	h.feed(ss.syn(), ss.synack(), ss.data([]byte("first")))
	s := h.e.Table().Lookup(ss.key)
	if s == nil {
		t.Fatal("stream missing")
	}
	h.e.Control(Ctrl{Op: OpDiscard, Stream: s, ID: s.ID})
	h.feed(ss.data([]byte("second")), ss.fin(), ss.srvFin())
	var clientData []byte
	for _, ev := range h.byType(event.Data) {
		if ev.Info.Dir == pkt.DirClient {
			clientData = append(clientData, ev.Data...)
		}
	}
	if bytes.Contains(clientData, []byte("second")) {
		t.Errorf("discarded stream delivered data: %q", clientData)
	}
	if h.mm.Used() != 0 {
		t.Errorf("leak after discard: %d", h.mm.Used())
	}
}

func TestControlStaleIDRejected(t *testing.T) {
	h := newHarness(Config{Cutoff: CutoffUnlimited})
	ss := newSession(42003, 80)
	h.feed(ss.syn(), ss.synack(), ss.data([]byte("x")))
	s := h.e.Table().Lookup(ss.key)
	staleID := s.ID
	h.feed(ss.rst()) // terminates and recycles
	// Stale control must be ignored (no panic, no corruption).
	h.e.Control(Ctrl{Op: OpSetCutoff, Stream: s, ID: staleID, Value: 0})
	ss2 := newSession(42004, 80)
	h.feed(ss2.syn(), ss2.synack(), ss2.data([]byte("fresh")), ss2.fin(), ss2.srvFin())
	var got []byte
	for _, ev := range h.byType(event.Data) {
		got = append(got, ev.Data...)
	}
	if !bytes.Contains(got, []byte("fresh")) {
		t.Error("fresh stream data missing after stale control")
	}
}

func TestStrictModeDefragmentsEvasion(t *testing.T) {
	h := newHarness(Config{Mode: reassembly.ModeStrict, Cutoff: CutoffUnlimited})
	ss := newSession(42006, 80)
	h.feed(ss.syn(), ss.synack())
	// Fragment a data packet: strict mode must reassemble and deliver.
	frame := ss.data(bytes.Repeat([]byte("EVASION-"), 200))
	frags := pkt.FragmentIPv4(frame, 576)
	// Send fragments in reverse order for good measure.
	for i := len(frags) - 1; i >= 0; i-- {
		h.feed(frags[i])
	}
	h.feed(ss.fin(), ss.srvFin())
	var got []byte
	for _, ev := range h.byType(event.Data) {
		if ev.Info.Dir == pkt.DirClient {
			got = append(got, ev.Data...)
		}
	}
	if !bytes.Equal(got, bytes.Repeat([]byte("EVASION-"), 200)) {
		t.Errorf("defragmented stream = %d bytes, want %d", len(got), 1600)
	}
}

func TestFastModeDropsFragments(t *testing.T) {
	h := newHarness(Config{Mode: reassembly.ModeFast, Cutoff: CutoffUnlimited})
	ss := newSession(42007, 80)
	h.feed(ss.syn(), ss.synack())
	frame := ss.data(bytes.Repeat([]byte("x"), 1600))
	for _, f := range pkt.FragmentIPv4(frame, 576) {
		h.feed(f)
	}
	if st := h.e.Stats(); st.FragsDropped == 0 {
		t.Error("fast mode should count dropped fragments")
	}
}

func TestPacketRecords(t *testing.T) {
	h := newHarnessOpts(Options{Config: Config{NeedPkts: true, Cutoff: CutoffUnlimited}})
	ss := newSession(42008, 80)
	h.feed(ss.syn(), ss.synack())
	h.feed(ss.data([]byte("alpha")), ss.data([]byte("beta")))
	h.feed(ss.fin(), ss.srvFin())
	var recs []event.PacketRecord
	var chunk []byte
	for _, ev := range h.byType(event.Data) {
		if ev.Info.Dir == pkt.DirClient {
			recs = append(recs, ev.Pkts...)
			chunk = ev.Data
		}
	}
	if len(recs) != 2 {
		t.Fatalf("packet records = %d, want 2", len(recs))
	}
	if string(chunk[recs[0].Off:recs[0].Off+recs[0].Len]) != "alpha" {
		t.Errorf("record 0 payload = %q", chunk[recs[0].Off:recs[0].Off+recs[0].Len])
	}
	if string(chunk[recs[1].Off:recs[1].Off+recs[1].Len]) != "beta" {
		t.Errorf("record 1 payload mismatch")
	}
	if recs[0].TS >= recs[1].TS {
		t.Error("records out of capture order")
	}
}

func TestBadHandshakeFlag(t *testing.T) {
	h := newHarness(Config{Cutoff: CutoffUnlimited})
	ss := newSession(42009, 80)
	// Data with no preceding SYN (mid-stream capture / bogus flow).
	h.feed(ss.data([]byte("no handshake")), ss.fin(), ss.srvFin())
	terms := h.byType(event.Termination)
	if len(terms) == 0 {
		t.Fatal("no termination")
	}
	found := false
	for _, ev := range terms {
		if ev.Info.Error&reassembly.FlagBadHandshake != 0 {
			found = true
		}
	}
	if !found {
		t.Error("FlagBadHandshake not set")
	}
}

func TestShutdownFlushesEverything(t *testing.T) {
	h := newHarness(Config{Cutoff: CutoffUnlimited})
	for i := 0; i < 5; i++ {
		ss := newSession(uint16(43000+i), 80)
		h.feed(ss.syn(), ss.synack(), ss.data([]byte("pending")))
	}
	h.e.Shutdown()
	h.drain()
	if n := len(h.byType(event.Termination)); n != 10 {
		t.Errorf("terminations after shutdown = %d, want 10", n)
	}
	if h.mm.Used() != 0 {
		t.Errorf("memory leak after shutdown: %d", h.mm.Used())
	}
	if h.e.Table().Len() != 0 {
		t.Errorf("table not empty: %d", h.e.Table().Len())
	}
}

func TestReorderedSegmentsDeliverInOrder(t *testing.T) {
	h := newHarness(Config{Cutoff: CutoffUnlimited})
	ss := newSession(43100, 80)
	h.feed(ss.syn(), ss.synack())
	// Build three segments, deliver 2,1,3.
	s1 := ss.data([]byte("AAAA"))
	s2 := ss.data([]byte("BBBB"))
	s3 := ss.data([]byte("CCCC"))
	h.feed(s2, s1, s3, ss.fin(), ss.srvFin())
	var got []byte
	for _, ev := range h.byType(event.Data) {
		if ev.Info.Dir == pkt.DirClient {
			got = append(got, ev.Data...)
		}
	}
	if string(got) != "AAAABBBBCCCC" {
		t.Errorf("reordered delivery = %q", got)
	}
}

func mustFilter(t *testing.T, expr string) *bpf.Filter {
	t.Helper()
	f, err := bpf.Parse(expr)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
