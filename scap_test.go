package scap

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"scap/internal/pkt"
	"scap/internal/trace"
)

// runSocket drives a configured socket over a generated workload and waits
// for completion.
func runSocket(t *testing.T, h *Handle, gen trace.Source) {
	t.Helper()
	if err := h.StartCapture(); err != nil {
		t.Fatal(err)
	}
	if err := h.ReplaySource(gen, 1e9); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

func smallGen(seed int64, flows int) *trace.Generator {
	return trace.NewGenerator(trace.GenConfig{
		Seed: seed, Flows: flows, Concurrency: 8,
		MinFlowBytes: 500, MaxFlowBytes: 50 << 10, TCPFraction: 1,
	})
}

func TestFlowStatsExport(t *testing.T) {
	h, err := Create(Config{Queues: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetCutoff(0); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	type flowRec struct {
		key   FlowKey
		bytes uint64
		pkts  uint64
	}
	var flows []flowRec
	h.DispatchTermination(func(sd *Stream) {
		mu.Lock()
		defer mu.Unlock()
		flows = append(flows, flowRec{sd.Key(), sd.Stats().Bytes, sd.Stats().Pkts})
	})
	dataEvents := int32(0)
	h.DispatchData(func(sd *Stream) { atomic.AddInt32(&dataEvents, 1) })

	gen := smallGen(1, 40)
	runSocket(t, h, gen)

	mu.Lock()
	defer mu.Unlock()
	if len(flows) != 80 { // two directions per flow
		t.Errorf("terminations = %d, want 80", len(flows))
	}
	for _, f := range flows {
		if f.pkts == 0 || f.bytes == 0 {
			t.Errorf("empty stats for %v", f.key)
		}
	}
	if n := atomic.LoadInt32(&dataEvents); n != 0 {
		t.Errorf("cutoff 0 still produced %d data events", n)
	}
	st, err := h.GetStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.StreamsCreated != 80 || st.MemoryUsed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStreamDataDelivery(t *testing.T) {
	h, _ := Create(Config{Queues: 2})
	pattern := []byte("UNIQUE-NEEDLE-0123456789")
	gen := trace.NewGenerator(trace.GenConfig{
		Seed: 2, Flows: 20, Concurrency: 4, TCPFraction: 1,
		MinFlowBytes: 2000, MaxFlowBytes: 20000,
		EmbedPatterns: [][]byte{pattern}, EmbedProb: 1,
	})
	var mu sync.Mutex
	var found int
	var total int64
	h.DispatchData(func(sd *Stream) {
		mu.Lock()
		defer mu.Unlock()
		total += int64(len(sd.Data))
		if bytes.Contains(sd.Data, pattern) {
			found++
		}
	})
	runSocket(t, h, gen)
	mu.Lock()
	defer mu.Unlock()
	if found == 0 {
		t.Error("embedded pattern never delivered")
	}
	if total == 0 {
		t.Error("no stream data delivered")
	}
}

func TestFilterAndCutoffClass(t *testing.T) {
	h, _ := Create(Config{Queues: 1})
	if err := h.SetFilter("tcp and port 80"); err != nil {
		t.Fatal(err)
	}
	// "port 80" matches both directions of web connections, so the class
	// cutoff binds the server's response stream too.
	if err := h.AddCutoffClass(128, "port 80"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	perStream := map[uint64]int{}
	var badStream bool
	h.DispatchData(func(sd *Stream) {
		mu.Lock()
		defer mu.Unlock()
		k := sd.Key()
		if k.SrcPort != 80 && k.DstPort != 80 {
			badStream = true
		}
		perStream[sd.ID()] += len(sd.Data)
	})
	gen := trace.NewGenerator(trace.GenConfig{
		Seed: 3, Flows: 30, Concurrency: 4, TCPFraction: 1,
		MinFlowBytes: 2000, MaxFlowBytes: 8000,
		ServerPorts: []trace.PortWeight{{Port: 80, Weight: 0.5}, {Port: 443, Weight: 0.5}},
	})
	runSocket(t, h, gen)
	mu.Lock()
	defer mu.Unlock()
	if badStream {
		t.Error("filter leaked a non-port-80 stream")
	}
	for id, n := range perStream {
		if n > 128 {
			t.Errorf("stream %d delivered %d bytes beyond its class cutoff", id, n)
		}
	}
}

func TestSetFilterErrors(t *testing.T) {
	h, _ := Create(Config{})
	if err := h.SetFilter("not a ((valid filter"); err == nil {
		t.Error("bad filter accepted")
	}
	if err := h.AddCutoffClass(1, "bogus &&& expr"); err == nil {
		t.Error("bad class filter accepted")
	}
	if err := h.SetParameter(ParamBaseThreshold, 2000); err == nil {
		t.Error("bad base threshold accepted")
	}
	if err := h.AddCutoffDirection(10, Direction(9)); err == nil {
		t.Error("bad direction accepted")
	}
}

func TestConfigFrozenAfterStart(t *testing.T) {
	h, _ := Create(Config{Queues: 1})
	if err := h.StartCapture(); err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := h.SetCutoff(5); err != ErrStarted {
		t.Errorf("SetCutoff after start = %v", err)
	}
	if err := h.SetFilter("tcp"); err != ErrStarted {
		t.Errorf("SetFilter after start = %v", err)
	}
	if err := h.SetWorkerThreads(2); err != ErrStarted {
		t.Errorf("SetWorkerThreads after start = %v", err)
	}
	if err := h.StartCapture(); err != ErrStarted {
		t.Errorf("double start = %v", err)
	}
}

func TestDiscardStream(t *testing.T) {
	h, _ := Create(Config{Queues: 1})
	var mu sync.Mutex
	bytesAfterDiscard := 0
	discarded := map[uint64]bool{}
	h.DispatchData(func(sd *Stream) {
		mu.Lock()
		defer mu.Unlock()
		if discarded[sd.ID()] {
			bytesAfterDiscard += len(sd.Data)
			return
		}
		// Discard every stream after its first chunk.
		sd.Discard()
		discarded[sd.ID()] = true
	})
	h.SetParameter(ParamChunkSize, 512)
	gen := smallGen(4, 10)
	runSocket(t, h, gen)
	// Discard is asynchronous; a chunk already in flight may still arrive,
	// but the flood must stop.
	mu.Lock()
	defer mu.Unlock()
	if bytesAfterDiscard > 50*1024 {
		t.Errorf("%d bytes delivered after discard", bytesAfterDiscard)
	}
}

func TestKeepChunkMerging(t *testing.T) {
	h, _ := Create(Config{Queues: 1})
	h.SetParameter(ParamChunkSize, 256)
	var mu sync.Mutex
	var maxChunk int
	h.DispatchData(func(sd *Stream) {
		mu.Lock()
		defer mu.Unlock()
		if len(sd.Data) > maxChunk {
			maxChunk = len(sd.Data)
		}
		if !sd.Last && len(sd.Data) < 1024 {
			sd.KeepChunk()
		}
	})
	gen := trace.NewGenerator(trace.GenConfig{
		Seed: 5, Flows: 5, Concurrency: 1, TCPFraction: 1,
		MinFlowBytes: 4000, MaxFlowBytes: 8000,
	})
	runSocket(t, h, gen)
	mu.Lock()
	defer mu.Unlock()
	if maxChunk <= 256 {
		t.Errorf("max chunk %d — keep-chunk merging never grew a chunk", maxChunk)
	}
}

// clientISN is injectClientStream's client initial sequence number:
// payload byte i travels at sequence number clientISN+1+i.
const clientISN = 1000

// injectClientStream injects one TCP connection to port 80 whose client
// sends payload in segments of varying size, then closes both directions.
func injectClientStream(t *testing.T, h *Handle, port uint16, payload []byte) {
	t.Helper()
	key := FlowKey{
		SrcIP: pkt.MustAddr("10.1.0.1"), DstIP: pkt.MustAddr("10.1.0.2"),
		SrcPort: port, DstPort: 80, Proto: pkt.ProtoTCP,
	}
	const srvISN = 9000
	ts := int64(0)
	send := func(spec pkt.TCPSpec) {
		ts += 1000
		if err := h.InjectFrame(pkt.BuildTCP(spec), ts); err != nil {
			t.Fatal(err)
		}
	}
	send(pkt.TCPSpec{Key: key, Seq: clientISN, Flags: pkt.FlagSYN})
	send(pkt.TCPSpec{Key: key.Reverse(), Seq: srvISN, Ack: clientISN + 1, Flags: pkt.FlagSYN | pkt.FlagACK})
	segs := []int{100, 37, 150, 73, 200, 61}
	off := 0
	for i := 0; off < len(payload); i++ {
		n := min(segs[i%len(segs)], len(payload)-off)
		send(pkt.TCPSpec{Key: key, Seq: clientISN + 1 + uint32(off), Ack: srvISN + 1,
			Flags: pkt.FlagACK | pkt.FlagPSH, Payload: payload[off : off+n]})
		off += n
	}
	end := clientISN + 1 + uint32(len(payload))
	send(pkt.TCPSpec{Key: key, Seq: end, Ack: srvISN + 1, Flags: pkt.FlagFIN | pkt.FlagACK})
	send(pkt.TCPSpec{Key: key.Reverse(), Seq: srvISN + 1, Ack: end + 1, Flags: pkt.FlagFIN | pkt.FlagACK})
}

// randomPayload returns n seeded pseudo-random bytes: any run of a few
// dozen bytes occurs once, so a delivered slice pins its stream position.
func randomPayload(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestKeepChunkMergeIsContiguous keeps every chunk below 600 bytes and
// checks each delivery against the stream the client sent: a merged Data
// must be the stream bytes that end at the captured-byte count (the kept
// chunk plus only the new bytes of its successor, never the overlap tail
// twice), and every packet record must locate its own payload within the
// merged Data.
func TestKeepChunkMergeIsContiguous(t *testing.T) {
	for _, overlap := range []int64{0, 32} {
		t.Run(fmt.Sprintf("overlap=%d", overlap), func(t *testing.T) {
			h, err := Create(Config{Queues: 1, NeedPkts: true})
			if err != nil {
				t.Fatal(err)
			}
			h.SetParameter(ParamChunkSize, 256)
			h.SetParameter(ParamOverlapSize, overlap)
			stream := randomPayload(overlap+1, 4000)
			var mu sync.Mutex
			var merged, records int
			var bad []string
			h.DispatchData(func(sd *Stream) {
				mu.Lock()
				defer mu.Unlock()
				if sd.Key().DstPort != 80 {
					return
				}
				end := int(sd.Stats().CapturedBytes)
				start := end - len(sd.Data)
				if start < 0 || !bytes.Equal(sd.Data, stream[start:end]) {
					bad = append(bad, fmt.Sprintf("chunk %d: %d bytes ending at %d are not stream[%d:%d]",
						sd.Chunks(), len(sd.Data), end, start, end))
				}
				if len(sd.Data) > 256 {
					merged++
				}
				for pi := sd.NextPacket(); pi != nil; pi = sd.NextPacket() {
					if pi.Payload == nil {
						continue
					}
					records++
					off := int(pi.Seq - clientISN - 1)
					if off < 0 || off+len(pi.Payload) > len(stream) || !bytes.Equal(pi.Payload, stream[off:off+len(pi.Payload)]) {
						bad = append(bad, fmt.Sprintf("chunk %d: packet seq %d payload is not stream[%d:%d]",
							sd.Chunks(), pi.Seq, off, off+len(pi.Payload)))
					}
				}
				if !sd.Last && len(sd.Data) < 600 {
					sd.KeepChunk()
				}
			})
			if err := h.StartCapture(); err != nil {
				t.Fatal(err)
			}
			injectClientStream(t, h, 41000, stream)
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, b := range bad {
				t.Error(b)
			}
			if merged == 0 || records == 0 {
				t.Errorf("%d merged deliveries, %d packet records checked", merged, records)
			}
		})
	}
}

func TestMemoryAndBlocksSettleAfterClose(t *testing.T) {
	// Keep-heavy workload over the arena: after Close every admitted byte
	// must be released and every block back in the free pool — kept chunks,
	// lost events, and final-drain deliveries included.
	h, err := Create(Config{Queues: 2, NeedPkts: true})
	if err != nil {
		t.Fatal(err)
	}
	h.SetParameter(ParamChunkSize, 512)
	h.DispatchData(func(sd *Stream) {
		if !sd.Last && len(sd.Data) < 4096 {
			sd.KeepChunk()
		}
	})
	runSocket(t, h, smallGen(7, 40))
	if used := h.mm.Used(); used != 0 {
		t.Errorf("%d bytes still charged to stream memory after Close", used)
	}
	if n := h.mm.BlocksInUse(); n != 0 {
		t.Errorf("%d arena blocks still out of the free pool after Close", n)
	}
}

func TestPacketDelivery(t *testing.T) {
	h, _ := Create(Config{Queues: 1, NeedPkts: true})
	var mu sync.Mutex
	var pkts, withPayload int
	h.DispatchData(func(sd *Stream) {
		mu.Lock()
		defer mu.Unlock()
		for pi := sd.NextPacket(); pi != nil; pi = sd.NextPacket() {
			pkts++
			if len(pi.Payload) > 0 {
				withPayload++
			}
			if pi.WireLen == 0 {
				t.Error("empty packet record")
			}
		}
	})
	gen := smallGen(6, 10)
	runSocket(t, h, gen)
	mu.Lock()
	defer mu.Unlock()
	if pkts == 0 || withPayload == 0 {
		t.Errorf("packet records: %d total, %d with payload", pkts, withPayload)
	}
}

func TestStreamPriorityControl(t *testing.T) {
	h, _ := Create(Config{Queues: 1})
	h.SetParameter(ParamPriorities, 2)
	created := make(chan struct{}, 8)
	var sawHigh atomic.Bool
	h.DispatchCreation(func(sd *Stream) {
		if sd.Key().DstPort == 80 || sd.Key().SrcPort == 80 {
			sd.SetPriority(1)
		}
		created <- struct{}{}
	})
	h.DispatchTermination(func(sd *Stream) {
		if sd.Priority() == 1 {
			sawHigh.Store(true)
		}
	})
	if err := h.StartCapture(); err != nil {
		t.Fatal(err)
	}
	// Controls are applied asynchronously by the owning engine; injecting
	// the handshake first and waiting for the creation callbacks makes the
	// priority change land before the data and termination packets.
	key := FlowKey{
		SrcIP: pkt.MustAddr("10.0.0.1"), DstIP: pkt.MustAddr("10.0.0.2"),
		SrcPort: 50000, DstPort: 80, Proto: pkt.ProtoTCP,
	}
	ts := int64(0)
	send := func(frame []byte) {
		ts += 1000
		if err := h.InjectFrame(frame, ts); err != nil {
			t.Fatal(err)
		}
	}
	send(pkt.BuildTCP(pkt.TCPSpec{Key: key, Seq: 100, Flags: pkt.FlagSYN}))
	send(pkt.BuildTCP(pkt.TCPSpec{Key: key.Reverse(), Seq: 500, Ack: 101, Flags: pkt.FlagSYN | pkt.FlagACK}))
	<-created
	<-created
	// Give the engine a packet to drain the control queue with, then
	// finish the connection.
	send(pkt.BuildTCP(pkt.TCPSpec{Key: key, Seq: 101, Ack: 501, Flags: pkt.FlagACK | pkt.FlagPSH, Payload: []byte("GET /")}))
	send(pkt.BuildTCP(pkt.TCPSpec{Key: key, Seq: 106, Ack: 501, Flags: pkt.FlagFIN | pkt.FlagACK}))
	send(pkt.BuildTCP(pkt.TCPSpec{Key: key.Reverse(), Seq: 501, Ack: 107, Flags: pkt.FlagFIN | pkt.FlagACK}))
	h.Close()
	if !sawHigh.Load() {
		t.Error("priority setting never observed at termination")
	}
}

func TestPcapRoundTripThroughSocket(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewPcapWriter(f, 0)
	gen := smallGen(8, 10)
	trace.Replay(gen, 1e9, func(frame []byte, ts int64) bool {
		return w.Write(frame, ts) == nil
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	h, _ := Create(Config{Queues: 2})
	var terms atomic.Int32
	h.DispatchTermination(func(sd *Stream) { terms.Add(1) })
	if err := h.StartCapture(); err != nil {
		t.Fatal(err)
	}
	if err := h.ReplayPcap(path); err != nil {
		t.Fatal(err)
	}
	h.Close()
	if terms.Load() != 20 {
		t.Errorf("terminations from pcap = %d, want 20", terms.Load())
	}
}

func TestInjectBeforeStart(t *testing.T) {
	h, _ := Create(Config{})
	if err := h.InjectFrame([]byte{1, 2, 3}, 1); err != ErrNotStarted {
		t.Errorf("err = %v, want ErrNotStarted", err)
	}
	if err := h.ReplayPcap("/nonexistent"); err != ErrNotStarted {
		t.Errorf("err = %v, want ErrNotStarted", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	h, _ := Create(Config{Queues: 1})
	h.StartCapture()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != ErrClosed {
		t.Errorf("second close = %v", err)
	}
}

func TestMultipleWorkers(t *testing.T) {
	h, _ := Create(Config{Queues: 4})
	if err := h.SetWorkerThreads(4); err != nil {
		t.Fatal(err)
	}
	var data atomic.Int64
	var terms atomic.Int32
	h.DispatchData(func(sd *Stream) { data.Add(int64(len(sd.Data))) })
	h.DispatchTermination(func(sd *Stream) { terms.Add(1) })
	gen := smallGen(9, 100)
	runSocket(t, h, gen)
	if terms.Load() != 200 {
		t.Errorf("terminations = %d, want 200", terms.Load())
	}
	if data.Load() == 0 {
		t.Error("no data delivered")
	}
}

func TestProcessingTimeAccumulates(t *testing.T) {
	h, _ := Create(Config{Queues: 1})
	h.SetParameter(ParamChunkSize, 256)
	var saw atomic.Bool
	h.DispatchData(func(sd *Stream) {
		if sd.Chunks() > 1 && sd.ProcessingTime() > 0 {
			saw.Store(true)
		}
		// Burn a little time so the accumulator is visibly nonzero.
		for i := 0; i < 1000; i++ {
			_ = i * i
		}
	})
	gen := trace.NewGenerator(trace.GenConfig{
		Seed: 10, Flows: 3, Concurrency: 1, TCPFraction: 1,
		MinFlowBytes: 4096, MaxFlowBytes: 8192,
	})
	runSocket(t, h, gen)
	if !saw.Load() {
		t.Error("processing time never accumulated across chunks")
	}
}
