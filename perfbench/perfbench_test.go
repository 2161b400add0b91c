package main

import (
	"encoding/json"
	"hash/crc32"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"scap"
	"scap/internal/pkt"
	"scap/internal/trace"
)

var (
	client = netip.MustParseAddr("10.0.0.1")
	server = netip.MustParseAddr("203.0.113.9")
	tcpKey = pkt.FlowKey{SrcIP: client, DstIP: server, SrcPort: 40000, DstPort: 80, Proto: pkt.ProtoTCP}
	udpKey = pkt.FlowKey{SrcIP: client, DstIP: server, SrcPort: 40001, DstPort: 53, Proto: pkt.ProtoUDP}
)

// tinyFrames is one TCP connection whose client direction carries
// "hello, world!": the first segment is duplicated, the last one arrives
// ahead of the middle one, and the middle one is a retransmission that
// overlaps the first by one byte. The server answers "ok!", and one UDP
// exchange rides along.
func tinyFrames() []scap.RawFrame {
	const isn, srvISN = 1000, 5000
	seg := func(k pkt.FlowKey, seq, ack uint32, flags uint8, data string) []byte {
		return pkt.BuildTCP(pkt.TCPSpec{Key: k, Seq: seq, Ack: ack, Flags: flags, Payload: []byte(data)})
	}
	rev := tcpKey.Reverse()
	data := [][]byte{
		seg(tcpKey, isn, 0, pkt.FlagSYN, ""),
		seg(rev, srvISN, isn+1, pkt.FlagSYN|pkt.FlagACK, ""),
		seg(tcpKey, isn+1, srvISN+1, pkt.FlagACK, "hello"),
		seg(tcpKey, isn+1, srvISN+1, pkt.FlagACK, "hello"),  // duplicate
		seg(tcpKey, isn+8, srvISN+1, pkt.FlagACK, "world!"), // ahead of ", "
		seg(tcpKey, isn+5, srvISN+1, pkt.FlagACK, "o, "),    // overlaps "hello" by one byte
		seg(rev, srvISN+1, isn+14, pkt.FlagACK|pkt.FlagPSH, "ok!"),
		pkt.BuildUDP(pkt.UDPSpec{Key: udpKey, Payload: []byte("query")}),
		pkt.BuildUDP(pkt.UDPSpec{Key: udpKey.Reverse(), Payload: []byte("answer")}),
		seg(tcpKey, isn+14, srvISN+4, pkt.FlagFIN|pkt.FlagACK, ""),
		seg(rev, srvISN+4, isn+15, pkt.FlagFIN|pkt.FlagACK, ""),
	}
	frames := make([]scap.RawFrame, len(data))
	for i, d := range data {
		frames[i] = scap.RawFrame{Data: d, TS: int64(i+1) * 1000}
	}
	return frames
}

func crc(s string) uint32 { return crc32.Checksum([]byte(s), castagnoli) }

func TestOracleReorderDuplicatesCutoff(t *testing.T) {
	for _, tc := range []struct {
		cutoff          int64
		client, srv     string
		udpOut, udpBack string
	}{
		{scap.CutoffUnlimited, "hello, world!", "ok!", "query", "answer"},
		{7, "hello, ", "ok!", "query", "answer"},
		{2, "he", "ok", "qu", "an"},
	} {
		tr, err := NewTrace(tinyFrames(), tc.cutoff)
		if err != nil {
			t.Fatal(err)
		}
		want := map[pkt.FlowKey]string{
			tcpKey: tc.client, tcpKey.Reverse(): tc.srv,
			udpKey: tc.udpOut, udpKey.Reverse(): tc.udpBack,
		}
		if len(tr.Dirs) != len(want) {
			t.Fatalf("cutoff %d: %d directions, want %d", tc.cutoff, len(tr.Dirs), len(want))
		}
		for k, s := range want {
			d := tr.Dirs[tr.DirIdx[k]]
			if d.Expect != int64(len(s)) || d.CRC != crc(s) {
				t.Errorf("cutoff %d, %v: expect %d bytes crc %08x, want %q", tc.cutoff, k, d.Expect, d.CRC, s)
			}
		}
		if full := tr.Dirs[tr.DirIdx[tcpKey]].Full; full != 13 {
			t.Errorf("cutoff %d: uncut client length %d, want 13", tc.cutoff, full)
		}
		if len(tr.Conns) != 1 || tr.Conns[0].Last != 10 {
			t.Errorf("cutoff %d: conns %+v, want one ending at frame 10", tc.cutoff, tr.Conns)
		}
	}
}

// TestOracleOnGenerator checks the oracle against the generator itself:
// every duplicate is an exact copy of an earlier frame, so the in-order
// total must equal all payload minus the duplicated copies.
func TestOracleOnGenerator(t *testing.T) {
	w := Workload{Gen: trace.GenConfig{Seed: 7, Flows: 40, Concurrency: 8, Alpha: 0.8, MinFlowBytes: 200, MaxFlowBytes: 64 << 10, ReorderProb: 0.2, DuplicateProb: 0.1}, Cutoff: scap.CutoffUnlimited}
	tr, err := BuildTrace(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var unique int64
	for i, f := range tr.Frames {
		if !seen[string(f.Data)] {
			seen[string(f.Data)] = true
			unique += int64(tr.Info[i].PayLen)
		}
	}
	var got int64
	for _, d := range tr.Dirs {
		got += d.Expect
	}
	if got != unique {
		t.Fatalf("oracle expects %d in-order bytes, generator emitted %d unique payload bytes", got, unique)
	}
}

func TestCloseSlices(t *testing.T) {
	const burst, start = 10, int64(1e9)
	// Two full slices plus a partial third one.
	tr := &Trace{Frames: make([]scap.RawFrame, burst*(2*sliceTicks+sliceTicks/2))}
	tr.Conns = []Conn{
		{Dirs: [2]int32{0, 1}, Last: 5},                          // burst 0, due at start
		{Dirs: [2]int32{2, 3}, Last: burst*sliceTicks + 5},       // first burst of the second slice
		{Dirs: [2]int32{4, 5}, Last: burst*(2*sliceTicks+1) + 5}, // partial third slice, dropped
		{Dirs: [2]int32{6, 7}, Last: 15},                         // one direction never terminated
	}
	ms := int64(1e6)
	tick := int64(pacedTick)
	termNS := []int64{
		start + 3*ms, start + 5*ms,
		start + int64(sliceTicks)*tick + 2*ms, start + int64(sliceTicks)*tick + ms,
		start + int64(2*sliceTicks+1)*tick, start + int64(2*sliceTicks+2)*tick,
		start + ms, 0,
	}
	got := closeSlices(tr, termNS, start, burst)
	if len(got) != 2 || len(got[0]) != 1 || len(got[1]) != 1 {
		t.Fatalf("slices = %v, want two slices of one sample", got)
	}
	if got[0][0] != 5 || got[1][0] != 2 {
		t.Fatalf("latencies = %v, want [[5] [2]] ms from the due time to the later termination", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "parent", Start: 0, End: 100, ID: 1},
		{Name: "child", Start: 10, End: 30, ID: 2, Parent: 1},
		{Name: "child", Start: 20, End: 40, ID: 3, Parent: 1},  // overlaps the first child
		{Name: "child", Start: 90, End: 120, ID: 4, Parent: 1}, // reaches past the parent
		{Name: "grandchild", Start: 12, End: 18, ID: 5, Parent: 2},
		{Name: "other", Start: 0, End: 50, ID: 6},
	}
	self := SelfTimes(spans)
	want := []int64{100 - 40, 20 - 6, 20, 30, 6, 50}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("self(%s #%d) = %d, want %d", spans[i].Name, spans[i].ID, self[i], want[i])
		}
	}
	if n := SumSelf(spans, self, "child", 1); n != 14+20+30 {
		t.Errorf("SumSelf(child) = %d, want 64", n)
	}
	if n := SumSelf(spans, self, "child", 9); n != 0 {
		t.Errorf("SumSelf under another parent = %d, want 0", n)
	}
}

func TestChromeExport(t *testing.T) {
	tr := NewTracer(2)
	root := tr.NewID()
	tr.Add(Span{Name: "scap.InjectBatch", Start: 1000, End: 2500, Parent: root})
	tr.Add(Span{Name: "cb.data", Start: 1200, End: 1300, Parent: root, Stream: 42, Track: 1})
	tr.Add(Span{Name: "window", Start: 0, End: 3000, ID: root})
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.WriteChrome(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	var complete int
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		complete++
		if e.Name == "cb.data" && (e.Tid != 1 || e.Ts != 1.2 || e.Dur != 0.1 || e.Args["stream"] != float64(42)) {
			t.Errorf("callback span exported as %+v", e)
		}
	}
	if complete != 3 {
		t.Fatalf("%d complete events, want 3", complete)
	}
}

// TestEndToEndOnHandBuiltTrace runs the hand-built connection through a
// socket: the oracle's expectations must match what scap delivers.
func TestEndToEndOnHandBuiltTrace(t *testing.T) {
	for _, cutoff := range []int64{scap.CutoffUnlimited, 7} {
		tr, err := NewTrace(tinyFrames(), cutoff)
		if err != nil {
			t.Fatal(err)
		}
		r, err := saturate(tr, Workload{Cutoff: cutoff}, NewTracer(1+queues))
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed != 0 {
			t.Errorf("cutoff %d: %d directions failed: %v", cutoff, r.Failed, r.Msgs)
		}
	}
}

// TestEndToEndOnTinyTrace runs the traced saturation window, with its
// byte, termination and CRC-32C checks, on a small generated trace for
// every workload configuration.
func TestEndToEndOnTinyTrace(t *testing.T) {
	for _, w := range workloads {
		w.Gen.Flows, w.Gen.Concurrency, w.Gen.MaxFlowBytes = 60, 16, 256<<10
		tr, err := BuildTrace(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		r, err := saturate(tr, w, NewTracer(1+queues))
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed != 0 || r.Offered != len(tr.Dirs) {
			t.Errorf("%s: %d of %d directions failed: %v", w.Name, r.Failed, r.Offered, r.Msgs)
		}
	}
}

// TestLayerReplaysOnTinyTrace checks that every isolated layer replay does
// the work the oracle expects on a small trace of each workload shape.
func TestLayerReplaysOnTinyTrace(t *testing.T) {
	for _, w := range workloads {
		w.Gen.Flows, w.Gen.Concurrency, w.Gen.MaxFlowBytes = 60, 16, 256<<10
		tr, err := BuildTrace(w, 5)
		if err != nil {
			t.Fatal(err)
		}
		var want, wantTCP int64
		for _, d := range tr.Dirs {
			want += d.Expect
			if d.TCP {
				wantTCP += d.Full
			}
		}
		spans := NewTracer(1 + queues)
		pipe, err := replayPipeline(tr, w, spans, 5)
		if err != nil {
			t.Fatal(err)
		}
		if pipe.Delivered != want || pipe.Terminations != len(tr.Dirs) || pipe.ArenaExhausted != 0 {
			t.Errorf("%s: engine replay delivered %d bytes, %d terminations, %d heap fallbacks; want %d, %d, 0",
				w.Name, pipe.Delivered, pipe.Terminations, pipe.ArenaExhausted, want, len(tr.Dirs))
		}
		if got, _ := replayReassembly(tr, spans); got != wantTCP {
			t.Errorf("%s: reassembly replay delivered %d bytes, want %d", w.Name, got, wantTCP)
		}
		if mr := replayMem(tr, w, spans); mr.Exhausted != 0 || mr.Chunks == 0 {
			t.Errorf("%s: mem replay made %d chunks with %d exhausted", w.Name, mr.Chunks, mr.Exhausted)
		}
		if probes, _ := replayFlowtab(tr, spans, 5); probes < 1 {
			t.Errorf("%s: %g probe groups per lookup, want >= 1", w.Name, probes)
		}
		if _, err := replayEvents(int(pipe.Events), 7, spans); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}
