package core

import (
	"sync"

	"scap/internal/flowtab"
)

// CtrlOp is a runtime control operation a worker thread sends back to the
// engine that owns the stream. The paper passes these through the Scap
// socket (setsockopt); here a small per-core queue drained at the top of
// the packet path plays that role, preserving the single-writer discipline
// on stream records.
type CtrlOp uint8

const (
	// OpSetCutoff changes a stream's cutoff (scap_set_stream_cutoff).
	OpSetCutoff CtrlOp = iota
	// OpSetPriority changes a connection's PPL priority (both directions).
	OpSetPriority
	// OpDiscard stops all data collection for a stream
	// (scap_discard_stream).
	OpDiscard
	// OpSetParam updates one per-stream parameter
	// (scap_set_stream_parameter).
	OpSetParam
	// OpSetDynCutoff sets the engine-wide dynamic cutoff clamp (Stream is
	// nil: the message targets the engine, not a record). Value >= 0 caps
	// every stream's effective cutoff at Value bytes; Value < 0 removes the
	// clamp. The adaptive control plane is the intended sender.
	OpSetDynCutoff
	// OpSetSketchFDIRBudget bounds how many sketch-nominated heavy flows may
	// hold NIC drop-filter pairs at once (Stream is nil). Value < 0 means
	// unlimited (the historical behavior); 0 stops new nominations while
	// installed filters age out on their own deadlines.
	OpSetSketchFDIRBudget
)

// StreamParam identifies per-stream parameters for OpSetParam.
type StreamParam uint8

const (
	ParamChunkSize StreamParam = iota
	ParamOverlapSize
	ParamFlushTimeout
	ParamInactivityTimeout
)

// Ctrl is one control message. Stream identity is validated against ID, so
// a message racing with stream termination is dropped instead of mutating a
// recycled record.
type Ctrl struct {
	Op     CtrlOp
	Stream *flowtab.Stream
	ID     uint64
	Param  StreamParam
	Value  int64
}

// ctrlQueue is a mutex-guarded MPSC queue (several worker threads may
// target the same engine; only the engine drains).
//
//scap:shared
type ctrlQueue struct {
	mu sync.Mutex
	// msgs is guarded by mu.
	msgs []Ctrl
}

func (q *ctrlQueue) push(c Ctrl) {
	q.mu.Lock()
	q.msgs = append(q.msgs, c)
	q.mu.Unlock()
}

// drain swaps out the pending messages; the caller processes them outside
// the lock. Only the owning engine drains.
//
//scap:onlyrole engine
func (q *ctrlQueue) drain(buf []Ctrl) []Ctrl {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.msgs) == 0 {
		return buf[:0]
	}
	buf = append(buf[:0], q.msgs...)
	q.msgs = q.msgs[:0]
	return buf
}

// Control enqueues a control message for this engine.
//
//scap:anyrole the control queue is mutex-guarded MPSC
func (e *Engine) Control(c Ctrl) { e.ctrl.push(c) }

// applyCtrl executes one validated control message.
func (e *Engine) applyCtrl(c Ctrl) {
	// Global ops target the engine itself, not a stream record.
	switch c.Op {
	case OpSetDynCutoff:
		v := c.Value
		if v < 0 {
			v = -1
		}
		e.dynCutoff = v
		return
	case OpSetSketchFDIRBudget:
		v := int(c.Value)
		if v < 0 {
			v = -1
		}
		e.sketchFDIRBudget = v
		return
	}
	s := c.Stream
	if s == nil || s.ID != c.ID || !s.InTable() {
		return
	}
	x := ext(s)
	switch c.Op {
	case OpSetCutoff:
		s.Cutoff = c.Value
		if s.Cutoff >= 0 && int64(s.Stats.CapturedBytes) >= s.Cutoff && s.Status == flowtab.StatusActive {
			e.reachCutoff(s, x)
		}
	case OpSetPriority:
		s.Priority = int(c.Value)
		if s.Opposite != nil {
			s.Opposite.Priority = int(c.Value)
		}
	case OpDiscard:
		x.discard = true
		e.dropChunk(s, x)
		e.installFDIR(s, x)
	case OpSetParam:
		switch c.Param {
		case ParamChunkSize:
			if c.Value > 0 {
				s.ChunkSize = int(c.Value)
			}
		case ParamOverlapSize:
			if c.Value >= 0 && int(c.Value) < s.ChunkSize {
				s.OverlapSize = int(c.Value)
			}
		case ParamFlushTimeout:
			s.FlushTimeout = c.Value
			// The flush scan only visits enrolled streams; enabling a
			// timeout after data buffered must enroll retroactively, and
			// disabling one drops the stream from the scan.
			if c.Value > 0 {
				e.markDirty(s, x)
			} else {
				delete(e.dirty, s)
			}
		case ParamInactivityTimeout:
			if c.Value > 0 {
				s.InactivityTimeout = c.Value
			}
		}
	}
}
