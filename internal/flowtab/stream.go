// Package flowtab implements the Scap kernel module's flow table as a
// cache-line-conscious open-addressing table: a flat array of slot groups
// (one cache line each: eight control bytes, eight generation stamps, eight
// record indices) probed with SWAR fingerprint scans, stream_t records in
// paged never-moving slabs (pointers stay valid across growth), seed
// randomization against algorithmic-complexity attacks, dynamic growth so
// the number of tracked streams is never artificially limited (the property
// behind Figure 5), and generation-based age classes replacing the paper's
// exact LRU list: incremental sweeps from the idle path expire stale
// streams (§5.2) and eviction under memory pressure picks a victim from the
// oldest populated age class ("always stores newer streams").
package flowtab

import (
	"scap/internal/pkt"
	"scap/internal/reassembly"
)

// Status describes a stream's lifecycle state, mirroring sd->status.
type Status uint8

const (
	// StatusActive: the stream is open and collecting.
	StatusActive Status = iota
	// StatusClosed: terminated by FIN or RST.
	StatusClosed
	// StatusTimedOut: expired by the inactivity timeout.
	StatusTimedOut
	// StatusCutoff: the stream exceeded its cutoff; statistics are still
	// maintained but no further data is collected.
	StatusCutoff
	// StatusEvicted: removed to make room for newer streams.
	StatusEvicted
)

func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusClosed:
		return "closed"
	case StatusTimedOut:
		return "timed-out"
	case StatusCutoff:
		return "cutoff"
	case StatusEvicted:
		return "evicted"
	}
	return "unknown"
}

// Stats are the per-stream counters exposed through the API (paper §3.2).
type Stats struct {
	Pkts           uint64 // packets seen for this direction
	Bytes          uint64 // wire bytes seen
	PayloadBytes   uint64 // transport payload bytes seen
	CapturedBytes  uint64 // payload bytes actually stored
	DiscardedPkts  uint64 // dropped on purpose (cutoff, filter, discard)
	DiscardedBytes uint64
	DroppedPkts    uint64 // lost involuntarily (overload / PPL)
	DroppedBytes   uint64
	Start          int64 // timestamp of the first packet
	End            int64 // timestamp of the most recent packet
}

// Stream is the stream_t record: one direction of one transport-layer flow.
type Stream struct {
	// ID is unique per direction; the two directions of a connection have
	// distinct IDs and point at each other through Opposite.
	ID  uint64
	Key pkt.FlowKey
	// Dir is DirClient for the connection initiator's direction.
	Dir      pkt.Direction
	Opposite *Stream

	Status Status
	Error  reassembly.Flags
	Stats  Stats

	// Per-stream tunables (scap_set_stream_*). Cutoff < 0 means inherit
	// the socket default at creation time; the engine resolves it.
	Cutoff            int64
	Priority          int
	ChunkSize         int
	OverlapSize       int
	FlushTimeout      int64
	InactivityTimeout int64

	// SawSYN/SawHandshake drive FlagBadHandshake and the decision to
	// always capture handshake packets.
	SawSYN       bool
	SawHandshake bool
	// FINSeq is the sequence number carried by a FIN/RST, used to estimate
	// flow size when the NIC dropped the middle of the flow (paper §5.5).
	FINSeq   uint32
	HasFIN   bool
	Asm      *reassembly.Assembler
	HWFilter bool // an FDIR drop-filter pair is installed for this direction

	// Engine-owned chunk state (opaque to this package).
	Chunk any

	// Table-owned placement state. ref is the record's index in the
	// table's paged record store, assigned once at page allocation and
	// preserved across Recycle; hash is the mixed 64-bit key hash and slot
	// the record's current slot index (group*slotsPerGroup+lane), both
	// valid only while inTable.
	ref        uint32
	slot       uint64
	hash       uint64
	lastAccess int64
	inTable    bool
}

// LastAccess returns the virtual time of the stream's most recent packet.
func (s *Stream) LastAccess() int64 { return s.lastAccess }

// InTable reports whether the stream is currently tracked.
func (s *Stream) InTable() bool { return s.inTable }

// Duration returns End-Start.
func (s *Stream) Duration() int64 { return s.Stats.End - s.Stats.Start }

// EstimatedBytes returns the best available flow size: the payload byte
// counter, or — when a hardware filter suppressed the middle of the flow —
// the span implied by the FIN sequence number (paper §5.5).
func (s *Stream) EstimatedBytes() uint64 {
	if s.HasFIN && s.Asm != nil && s.Asm.Initialized() {
		if span := int64(int32(s.FINSeq - s.Asm.NextSeq())); span > 0 {
			return s.Stats.PayloadBytes + uint64(span)
		}
	}
	return s.Stats.PayloadBytes
}
