package main

import (
	"fmt"
	"hash/crc32"

	"scap"
	"scap/internal/nic"
	"scap/internal/pkt"
	"scap/internal/trace"
)

// linkBitsPerSec is the virtual link rate the frames' timestamps are paced
// at, as trace.Replay does for the figure experiments.
const linkBitsPerSec = 10e9

// queues is the receive-queue count of every workload: one per core of the
// 2-core reference host, the value Config.Queues defaults to there.
const queues = 2

// Workload is one benchmark input: a trace shape plus the socket settings
// it runs under. Every workload uses TCPFast, the default 1 GiB stream
// memory and the default journaling and history settings, with the
// overload controller off.
type Workload struct {
	Name string
	Why  string
	// Gen is the trace shape (its Seed is overwritten by the run's seed).
	// Workloads with equal Gen replay identical frames for a given seed.
	Gen trace.GenConfig
	// Cutoff is the socket-wide stream cutoff (scap.CutoffUnlimited for
	// none); FDIR installs NIC drop filters for cut-off streams.
	Cutoff int64
	FDIR   bool
	// ChunkSize overrides ParamChunkSize when nonzero.
	ChunkSize int64
	// PacedFPS is the open-loop rate of the paced phase, in frames/s,
	// fixed at roughly 40–50% of saturation on the reference host.
	PacedFPS int
}

// campusGen is the EXPERIMENTS.md trace shape: heavy-tailed flow sizes over
// 256 concurrent flows with 1% reordering and 0.5% duplicates.
var campusGen = trace.GenConfig{
	Flows:         45000,
	Concurrency:   256,
	Alpha:         0.8,
	MinFlowBytes:  200,
	MaxFlowBytes:  8 << 20,
	TCPFraction:   0.954,
	ReorderProb:   0.01,
	DuplicateProb: 0.005,
}

var workloads = []Workload{
	{
		Name:     "campus_bulk",
		Why:      "per-byte path dominates: reassembly, arena chunk copies, mem admission, events and dispatch; the flow table stays small",
		Gen:      campusGen,
		Cutoff:   scap.CutoffUnlimited,
		PacedFPS: 250000,
	},
	{
		Name:     "cutoff_fdir",
		Why:      "campus_bulk frames with a 10 KiB cutoff and FDIR: same per-frame work, but stream tails die at the cutoff and the NIC filters",
		Gen:      campusGen,
		Cutoff:   10 << 10,
		FDIR:     true,
		PacedFPS: 250000,
	},
	{
		Name: "flow_churn",
		Why:  "per-packet and per-stream work dominates: 2^17 concurrent short connections keep the flow table far beyond L2",
		Gen: trace.GenConfig{
			Flows:        3 << 16,
			Concurrency:  1 << 17,
			MinFlowBytes: 64,
			MaxFlowBytes: 512,
			TCPFraction:  1,
		},
		Cutoff:    scap.CutoffUnlimited,
		ChunkSize: 2048,
		PacedFPS:  150000,
	},
}

func findWorkload(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// castagnoli is the CRC-32C table the traced run checks payloads with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Dir is the oracle's view of one stream direction (the unit of
// fail_ratio): what an intact delivery of it must look like.
type Dir struct {
	Key pkt.FlowKey
	TCP bool
	// Conn indexes Trace.Conns for TCP directions, -1 for UDP.
	Conn int32
	// Expect is the in-order payload length the socket must deliver, each
	// byte once despite reordering and duplicates, truncated at the cutoff;
	// CRC is the CRC-32C of exactly those bytes.
	Expect int64
	CRC    uint32
	// Full is the in-order payload length before the cutoff.
	Full int64
}

// Conn is one TCP connection of the trace.
type Conn struct {
	Dirs [2]int32
	// Last is the index of the frame carrying the connection's final
	// FIN/RST, the frame whose arrival should terminate both directions.
	Last int
}

// FrameInfo is the decoded metadata of one frame, precomputed so the layer
// replays time only the layer's own calls.
type FrameInfo struct {
	Dir    int32
	Seq    uint32
	Flags  uint8
	Queue  uint8
	PayOff uint16
	PayLen uint16
}

// Trace is a generated workload plus its oracle.
type Trace struct {
	Frames []scap.RawFrame
	Info   []FrameInfo
	Dirs   []Dir
	Conns  []Conn
	DirIdx map[pkt.FlowKey]int32
	// Bytes is the total frame bytes, PayloadBytes the transport payload
	// they carry.
	Bytes        int64
	PayloadBytes int64
}

// BuildTrace generates the workload's frames for seed, pacing virtual
// timestamps at the 10 Gbit/s link rate, and computes the oracle.
func BuildTrace(w Workload, seed int64) (*Trace, error) {
	cfg := w.Gen
	cfg.Seed = seed
	var frames []scap.RawFrame
	trace.Replay(trace.NewGenerator(cfg), linkBitsPerSec, func(f []byte, ts int64) bool {
		frames = append(frames, scap.RawFrame{Data: f, TS: ts})
		return true
	})
	return NewTrace(frames, w.Cutoff)
}

// dirState is the streaming oracle for one direction: a minimal
// in-order reassembler kept independent of internal/reassembly.
type dirState struct {
	init    bool
	next    uint32 // sequence number of the next in-order byte
	pending map[uint32][]byte
	got     int64
	full    int64
	crc     uint32
	cutoff  int64
}

// feed appends in-order bytes, stopping at the cutoff.
func (d *dirState) feed(b []byte) {
	d.full += int64(len(b))
	if d.cutoff >= 0 && d.got+int64(len(b)) > d.cutoff {
		b = b[:d.cutoff-d.got]
	}
	d.crc = crc32.Update(d.crc, castagnoli, b)
	d.got += int64(len(b))
}

// segment offers one TCP segment at seq. Bytes before the delivery point
// are duplicates and count once; bytes beyond it wait until the gap fills.
func (d *dirState) segment(seq uint32, b []byte) {
	if len(b) == 0 {
		return
	}
	if int32(seq-d.next) > 0 {
		if old, ok := d.pending[seq]; !ok || len(old) < len(b) {
			if d.pending == nil {
				d.pending = make(map[uint32][]byte)
			}
			d.pending[seq] = b
		}
		return
	}
	for {
		if skip := d.next - seq; skip < uint32(len(b)) {
			d.feed(b[skip:])
			d.next = seq + uint32(len(b))
		}
		if len(d.pending) == 0 {
			return
		}
		// Pull the buffered segment that now starts at or before the
		// delivery point, if any.
		found := false
		for s, pb := range d.pending {
			if int32(s-d.next) <= 0 {
				delete(d.pending, s)
				seq, b, found = s, pb, true
				break
			}
		}
		if !found {
			return
		}
	}
}

// NewTrace decodes frames and derives the oracle for the given cutoff
// (scap.CutoffUnlimited for none). Frames must be in emission order.
func NewTrace(frames []scap.RawFrame, cutoff int64) (*Trace, error) {
	t := &Trace{Frames: frames, Info: make([]FrameInfo, len(frames)), DirIdx: make(map[pkt.FlowKey]int32)}
	rss := nic.New(nic.Config{Queues: queues})
	var states []dirState
	connOf := make(map[pkt.FlowKey]int32) // client-direction key -> conn
	var p pkt.Packet
	for i, f := range frames {
		if err := pkt.Decode(f.Data, &p); err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		t.Bytes += int64(len(f.Data))
		tcp := p.Key.Proto == pkt.ProtoTCP
		di, ok := t.DirIdx[p.Key]
		if !ok {
			di = int32(len(t.Dirs))
			t.DirIdx[p.Key] = di
			t.Dirs = append(t.Dirs, Dir{Key: p.Key, TCP: tcp, Conn: -1})
			states = append(states, dirState{cutoff: cutoff})
			if tcp {
				ck := p.Key
				if p.TCPFlags&(pkt.FlagSYN|pkt.FlagACK) == pkt.FlagSYN|pkt.FlagACK {
					ck = p.Key.Reverse()
				}
				ci, ok := connOf[ck]
				if !ok {
					ci = int32(len(t.Conns))
					connOf[ck] = ci
					t.Conns = append(t.Conns, Conn{Dirs: [2]int32{-1, -1}})
				}
				side := 0
				if ck != p.Key {
					side = 1
				}
				if t.Conns[ci].Dirs[side] >= 0 {
					return nil, fmt.Errorf("frame %d: flow key %v reused by two connections", i, p.Key)
				}
				t.Conns[ci].Dirs[side] = di
				t.Dirs[di].Conn = ci
			}
		}
		st := &states[di]
		payOff := len(p.Data) - len(p.Payload)
		t.Info[i] = FrameInfo{
			Dir: di, Seq: p.Seq, Flags: p.TCPFlags,
			Queue:  uint8(rss.QueueFor(p.Key)),
			PayOff: uint16(payOff), PayLen: uint16(len(p.Payload)),
		}
		t.PayloadBytes += int64(len(p.Payload))
		if !tcp {
			st.feed(p.Payload)
			continue
		}
		if p.TCPFlags&pkt.FlagSYN != 0 {
			if st.init {
				return nil, fmt.Errorf("frame %d: second SYN on %v", i, p.Key)
			}
			st.init, st.next = true, p.Seq+1
			continue
		}
		if !st.init {
			return nil, fmt.Errorf("frame %d: data before SYN on %v", i, p.Key)
		}
		st.segment(p.Seq, p.Payload)
		if p.TCPFlags&(pkt.FlagFIN|pkt.FlagRST) != 0 {
			t.Conns[t.Dirs[di].Conn].Last = i
		}
	}
	for i := range t.Dirs {
		if len(states[i].pending) > 0 {
			return nil, fmt.Errorf("direction %v: sequence hole in generated trace", t.Dirs[i].Key)
		}
		t.Dirs[i].Expect, t.Dirs[i].CRC, t.Dirs[i].Full = states[i].got, states[i].crc, states[i].full
	}
	for ci, c := range t.Conns {
		if c.Dirs[0] < 0 || c.Dirs[1] < 0 {
			return nil, fmt.Errorf("connection %d: a direction never appeared", ci)
		}
	}
	return t, nil
}

// Payload returns frame i's transport payload.
func (t *Trace) Payload(i int) []byte {
	fi := &t.Info[i]
	return t.Frames[i].Data[fi.PayOff : int(fi.PayOff)+int(fi.PayLen)]
}
