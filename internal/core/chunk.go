package core

import (
	"scap/internal/event"
	"scap/internal/flowtab"
	"scap/internal/mem"
	"scap/internal/metrics"
	"scap/internal/streamscope"
)

// streamExt is the engine-private extension record hung off
// flowtab.Stream.Chunk: the current chunk under construction plus the
// engine bookkeeping the generic flow table does not know about.
type streamExt struct {
	chunk chunkState
	// chunksDelivered counts data events for this stream (sd->chunks).
	chunksDelivered uint64
	// filterTimeout is the current FDIR filter lifetime; it doubles on
	// every re-install so long-lived flows are evicted from the NIC only a
	// logarithmic number of times (paper §5.5).
	filterTimeout int64
	// ignored streams failed the socket filter: tracked for cheap
	// discarding but generating no events.
	ignored bool
	// discard set by scap_discard_stream.
	discard bool
	// finalDelivered guards against duplicate final data events.
	finalDelivered bool

	// j is the stream's lifecycle journal (nil for un-journaled streams);
	// jGen is the journal generation observed at bind time — a mismatch
	// means the pool rebound the journal to a newer stream and writes must
	// stop. jFirst marks the first-payload event as emitted; jOldWins and
	// jNewWins remember the assembler's overlap totals at the last overlap
	// check so only transitions emit events.
	j        *streamscope.Journal
	jGen     uint64
	jFirst   bool
	jOldWins uint64
	jNewWins uint64
}

// chunkState is one in-progress chunk of reassembled stream data. Its bytes
// live in one arena block (blk): buf is a length-limited view of the block's
// storage, so filling the chunk is a copy into preallocated memory, never a
// heap allocation. A nil buf with blk == NoBlock marks "no chunk yet" — the
// state after delivery, and after a failed block grab under arena
// exhaustion (the next packet retries the allocation).
type chunkState struct {
	buf        []byte     // fill = len(buf); a view into blk's storage
	blk        mem.Handle // the arena block backing buf
	size       int        // the chunk's byte bound (stream chunk size, capped by the block)
	overlapLen int        // prefix carried from the previous chunk (not re-accounted)
	holeBefore bool
	firstTS    int64 // timestamp of the first byte (flush timeout anchor)
	pkts       []event.PacketRecord
}

// fill returns the number of bytes in the chunk.
func (c *chunkState) fill() int { return len(c.buf) }

// accounted returns how many of the chunk's bytes are charged to the
// memory budget.
func (c *chunkState) accounted() int { return len(c.buf) - c.overlapLen }

// room returns how many bytes the chunk may still take.
func (c *chunkState) room() int { return c.size - len(c.buf) }

// ext returns (allocating if needed) the engine extension of s.
func ext(s *flowtab.Stream) *streamExt {
	if e, ok := s.Chunk.(*streamExt); ok {
		return e
	}
	e := &streamExt{}
	s.Chunk = e
	return e
}

// newChunkBuf starts a chunk in a fresh arena block, bounded by the
// stream's chunk size (capped by the block's capacity), seeding it with the
// overlap tail of the previous chunk when configured. When the arena has no
// free block — stream concurrency times block size exceeding the physical
// pool — the chunk falls back to a transient heap buffer: the byte
// accounting (PPL watermarks) stays the authoritative admission bound, the
// arena is the zero-alloc fast path for it.
//
//scap:hotpath
func (e *Engine) newChunkBuf(s *flowtab.Stream, x *streamExt, prev []byte, ts int64) chunkState {
	size := s.ChunkSize
	if size <= 0 {
		size = e.cfg.ChunkSize
	}
	h, store := e.mm.AllocBlock(e.coreID)
	if h == mem.NoBlock {
		store = e.heapChunkStore(size)
		e.janomaly(s, x, streamscope.AnomArenaFallback, streamscope.EvArenaFallback, int64(size), 0)
	} else if size > len(store) {
		size = len(store)
	}
	c := chunkState{firstTS: ts, size: size, blk: h}
	overlap := s.OverlapSize
	if overlap > len(prev) {
		overlap = len(prev)
	}
	if overlap >= size {
		overlap = size - 1
	}
	if overlap > 0 {
		c.buf = store[:overlap]
		copy(c.buf, prev[len(prev)-overlap:])
		c.overlapLen = overlap
	} else {
		c.buf = store[:0]
	}
	if e.cfg.NeedPkts && h != mem.NoBlock {
		// Reuse the record slab that recycles with the block (see
		// growPktRecords); first use of a block starts with none. Heap
		// chunks grow their own slab lazily in growPktRecords.
		if recs, ok := e.mm.BlockAttachment(h).([]event.PacketRecord); ok {
			c.pkts = recs[:0]
		}
	}
	return c
}

// heapChunkStore allocates the arena-exhaustion fallback buffer. It runs
// whenever every block is pinned by an in-flight chunk — many concurrent
// streams each holding a part-filled block, which the byte accountant does
// not see — and that is not rare: the paper-figure replays take it
// routinely (DESIGN.md §10). The counter makes it visible so the operator
// can raise MemorySize (or shrink chunks).
func (e *Engine) heapChunkStore(size int) []byte {
	e.c.arenaExhausted.Add(1)
	e.m.flight.Note(e.coreID, metrics.FlightArenaFallback, int64(size), 0)
	return make([]byte, size)
}
