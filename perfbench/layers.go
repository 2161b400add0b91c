package main

import (
	"fmt"
	"math/rand"
	"runtime"
	rtmetrics "runtime/metrics"

	"scap/internal/core"
	"scap/internal/event"
	"scap/internal/flowtab"
	"scap/internal/mem"
	"scap/internal/metrics"
	"scap/internal/nic"
	"scap/internal/pkt"
	"scap/internal/reassembly"
	"scap/internal/streamscope"
)

// The layer replays drive each module's public calls from one goroutine
// over the workload's frames, in satBurst bursts, with one span per burst
// and layer. Every replay is shaped like production: the engine replay
// drains events and returns arena blocks after each burst the way the
// worker does, so no layer runs on the arena-exhausted heap fallback.

// coreConfig is the engine configuration scap.Create plus the workload's
// setters produce.
func coreConfig(w Workload) core.Config {
	return core.Config{
		Cutoff:     w.Cutoff,
		Mode:       reassembly.ModeFast,
		UseFDIR:    w.FDIR,
		ChunkSize:  int(w.ChunkSize),
		Priorities: 1,
	}
}

// newMem builds the socket's memory manager as StartCapture does.
func newMem(cfg core.Config) *mem.Manager {
	return mem.New(mem.Config{Size: 1 << 30, Priorities: 1, BlockSize: cfg.ArenaBlockSize(), Cores: queues})
}

func heapAllocated() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// pipelineResult is what the engine replay measured besides its spans.
type pipelineResult struct {
	Root                           uint64
	Events, Chunks, ArenaExhausted uint64
	AllocBytes                     uint64
	Flushes                        int // HandleFrames calls that published events
	Delivered                      int64
	Terminations                   int
}

// replayPipeline runs the capture path's layers in order per burst, as
// the inject path, kernel goroutine and worker do: nic steering
// (ReceiveAt+Poll), core.Engine.HandleFrames per queue, then the event
// drain (PopBatch, Release, ReturnBlocks). The simulated NIC is the
// engines' filter sink, so FDIR drops take effect as in production.
func replayPipeline(t *Trace, w Workload, tr *Tracer, seed int64) (pipelineResult, error) {
	cfg := coreConfig(w)
	sim := nic.NewSim(nic.Config{Queues: queues, DynamicBalance: true})
	mm := newMem(cfg)
	defer mm.Close()
	reg := metrics.NewRegistry(queues)
	em := core.NewMetrics(reg)
	mm.PublishMetrics(reg)
	sim.PublishMetrics(reg)
	nowFn := metrics.Nanotime
	scope := streamscope.New(streamscope.Options{Cores: queues, Now: &nowFn})
	rng := rand.New(rand.NewSource(seed))
	engs := make([]*core.Engine, queues)
	qs := make([]*event.Queue, queues)
	for q := range engs {
		qs[q] = event.NewQueue(0)
		engs[q] = core.NewEngine(core.Options{Config: cfg, Mem: mm, NIC: sim, Queue: qs[q], CoreID: q, Rand: rng, Metrics: em, Scope: scope})
	}
	root := tr.NewID()
	res := pipelineResult{Root: root}
	r0 := now()
	evs := make([]event.Event, 128)
	blocks := make([]mem.Handle, 0, 128)
	drain := func() {
		for q, eq := range qs {
			for {
				n := eq.PopBatch(evs)
				if n == 0 {
					break
				}
				rel := 0
				for i := range evs[:n] {
					ev := &evs[i]
					res.Events++
					switch ev.Type {
					case event.Data:
						res.Chunks++
						res.Delivered += int64(len(ev.Data))
						rel += ev.Accounted
						if ev.Block != mem.NoBlock {
							blocks = append(blocks, ev.Block)
						}
					case event.Termination:
						res.Terminations++
					}
				}
				clear(evs[:n])
				if rel > 0 {
					mm.Release(rel)
				}
				mm.ReturnBlocks(q, blocks)
				blocks = blocks[:0]
			}
		}
	}
	batches := make([][]nic.Frame, queues)
	var lastTS int64
	for k, i := 0, 0; i < len(t.Frames); k, i = k+1, i+satBurst {
		burst := t.Frames[i:min(i+satBurst, len(t.Frames))]
		s := now()
		ingest := metrics.Nanotime()
		for _, f := range burst {
			q := sim.ReceiveAt(f.Data, f.TS, ingest)
			if q < 0 {
				continue
			}
			if nf, ok := sim.Poll(q); ok {
				batches[q] = append(batches[q], nf)
			}
		}
		lastTS = burst[len(burst)-1].TS
		e := now()
		tr.Add(Span{Name: "nic.steer", Start: s, End: e, Parent: root})
		a0 := heapAllocated()
		s = now()
		for q, b := range batches {
			if len(b) > 0 {
				before := engs[q].Queue().Len()
				engs[q].HandleFrames(b)
				if engs[q].Queue().Len() > before {
					res.Flushes++
				}
				clear(b)
				batches[q] = b[:0]
			}
		}
		// The kernel goroutine runs timer work every 50 ms of wall time,
		// about every 512 bursts at saturation.
		if k%512 == 511 {
			for _, eng := range engs {
				eng.CheckTimers(lastTS)
			}
		}
		e = now()
		res.AllocBytes += heapAllocated() - a0
		tr.Add(Span{Name: "core.HandleFrames", Start: s, End: e, Parent: root})
		s = now()
		drain()
		tr.Add(Span{Name: "event.drain", Start: s, End: now(), Parent: root})
	}
	// Close: terminate every stream, drain the final events, reap controls.
	s := now()
	for _, eng := range engs {
		eng.Shutdown()
	}
	tr.Add(Span{Name: "core.HandleFrames", Start: s, End: now(), Parent: root})
	s = now()
	drain()
	for _, eng := range engs {
		eng.DrainControls()
	}
	drain()
	tr.Add(Span{Name: "event.drain", Start: s, End: now(), Parent: root})
	tr.Add(Span{Name: "replay.pipeline", Start: r0, End: now(), ID: root})

	snap := reg.Snapshot()
	res.ArenaExhausted = snap.CounterTotal("arena_exhausted_total")
	return res, nil
}

// timeBursts calls fn once per satBurst-frame burst [lo, hi) of the trace,
// recording a span called name around each call under a root span called
// replay, whose ID it returns.
func timeBursts(t *Trace, tr *Tracer, replay, name string, fn func(lo, hi int)) uint64 {
	root := tr.NewID()
	r0 := now()
	for lo := 0; lo < len(t.Frames); lo += satBurst {
		hi := min(lo+satBurst, len(t.Frames))
		s := now()
		fn(lo, hi)
		tr.Add(Span{Name: name, Start: s, End: now(), Parent: root})
	}
	tr.Add(Span{Name: replay, Start: r0, End: now(), ID: root})
	return root
}

// replayDecode times pkt.Decode per frame and returns its root span ID.
func replayDecode(t *Trace, tr *Tracer) uint64 {
	var p pkt.Packet
	return timeBursts(t, tr, "replay.decode", "pkt.Decode", func(lo, hi int) {
		for _, f := range t.Frames[lo:hi] {
			_ = pkt.Decode(f.Data, &p)
		}
	})
}

// replayFlowtab drives one flow table per queue with the engine's
// per-packet calls: Hash, LookupH, then CreateH on a miss or Touch on a
// hit, and Remove+Recycle when a direction's FIN or RST arrives. It
// returns probe groups per lookup from the tables' own counters, and the
// root span ID.
func replayFlowtab(t *Trace, tr *Tracer, seed int64) (float64, uint64) {
	rng := rand.New(rand.NewSource(seed))
	tabs := make([]*flowtab.Table, queues)
	for q := range tabs {
		tabs[q] = flowtab.NewTable(rng)
	}
	root := timeBursts(t, tr, "replay.flowtab", "flowtab.ops", func(lo, hi int) {
		for j := lo; j < hi; j++ {
			fi := &t.Info[j]
			tab := tabs[fi.Queue]
			key := t.Dirs[fi.Dir].Key
			h := tab.Hash(key)
			st := tab.LookupH(h, key)
			if st == nil {
				st = tab.CreateH(h, key, t.Frames[j].TS)
			} else {
				tab.Touch(st, t.Frames[j].TS)
			}
			if fi.Flags&(pkt.FlagFIN|pkt.FlagRST) != 0 {
				tab.Remove(st)
				tab.Recycle(st)
			}
		}
	})
	var lookups, probes uint64
	for _, tab := range tabs {
		lookups += tab.Lookups
		probes += tab.Probes
	}
	return ratio(float64(probes), float64(lookups)), root
}

// replayReassembly feeds every TCP direction's segments through its own
// fast-mode Assembler (created at the SYN, as the engine does per stream)
// and flushes it at the direction's FIN/RST. It returns the delivered
// bytes, which must equal the oracle's uncut in-order total, and the root
// span ID.
func replayReassembly(t *Trace, tr *Tracer) (int64, uint64) {
	asms := make([]*reassembly.Assembler, len(t.Dirs))
	var delivered int64
	emit := func(b []byte, _ bool) { delivered += int64(len(b)) }
	root := timeBursts(t, tr, "replay.reassembly", "reassembly.Segment", func(lo, hi int) {
		for j := lo; j < hi; j++ {
			fi := &t.Info[j]
			if !t.Dirs[fi.Dir].TCP {
				continue
			}
			if fi.Flags&pkt.FlagSYN != 0 {
				a := reassembly.New(reassembly.Config{Mode: reassembly.ModeFast})
				a.Init(fi.Seq)
				asms[fi.Dir] = a
				continue
			}
			a := asms[fi.Dir]
			if fi.PayLen > 0 {
				a.Segment(fi.Seq, t.Payload(j), emit)
			}
			if fi.Flags&(pkt.FlagFIN|pkt.FlagRST) != 0 {
				a.Flush(emit)
				asms[fi.Dir] = nil
			}
		}
	})
	return delivered, root
}

// memResult counts the memory replay's operations.
type memResult struct {
	Root                      uint64
	Admits, Chunks, Exhausted int64
}

// replayMem drives the memory manager the way the engine does per payload
// packet (Decide, then Reserve for the stored bytes; nothing past the
// cutoff) and per chunk (AllocBlock when a direction's chunk starts;
// Release plus a batched ReturnBlocks once a chunk fills or its direction
// ends). The admission and block calls get separate spans per burst.
func replayMem(t *Trace, w Workload, tr *Tracer) memResult {
	cfg := coreConfig(w)
	chunk := int64(core.DefaultChunkSize)
	if w.ChunkSize > 0 {
		chunk = w.ChunkSize
	}
	mm := newMem(cfg)
	defer mm.Close()
	pos := make([]int64, len(t.Dirs))
	fill := make([]int64, len(t.Dirs))
	blk := make([]mem.Handle, len(t.Dirs))
	ret := make([][]mem.Handle, queues)
	stored := make([]bool, satBurst) // admitted frames of the current burst
	root := tr.NewID()
	res := memResult{Root: root}
	r0 := now()
	for i := 0; i < len(t.Frames); i += satBurst {
		end := min(i+satBurst, len(t.Frames))
		s := now()
		for j := i; j < end; j++ {
			fi := &t.Info[j]
			n := int64(fi.PayLen)
			stored[j-i] = false
			if n == 0 || (w.Cutoff >= 0 && pos[fi.Dir] >= w.Cutoff) {
				continue
			}
			if mm.Decide(0, pos[fi.Dir], int(n)) == mem.Admit {
				mm.Reserve(int(n))
				stored[j-i] = true
			}
			pos[fi.Dir] += n
			res.Admits++
		}
		tr.Add(Span{Name: "mem.admit", Start: s, End: now(), Parent: root})
		s = now()
		var rel int64
		for j := i; j < end; j++ {
			fi := &t.Info[j]
			d := fi.Dir
			if stored[j-i] {
				if fill[d] == 0 {
					h, _ := mm.AllocBlock(int(fi.Queue))
					if h == mem.NoBlock {
						res.Exhausted++
					}
					blk[d] = h
				}
				fill[d] += int64(fi.PayLen)
			}
			if fill[d] > 0 && (fill[d] >= chunk || fi.Flags&(pkt.FlagFIN|pkt.FlagRST) != 0) {
				ret[fi.Queue] = append(ret[fi.Queue], blk[d])
				rel += fill[d]
				res.Chunks++
				fill[d], blk[d] = 0, mem.NoBlock
			}
		}
		if rel > 0 {
			mm.Release(int(rel))
		}
		for q, hs := range ret {
			if len(hs) > 0 {
				mm.ReturnBlocks(q, hs)
				ret[q] = hs[:0]
			}
		}
		tr.Add(Span{Name: "mem.block", Start: s, End: now(), Parent: root})
	}
	tr.Add(Span{Name: "replay.mem", Start: r0, End: now(), ID: root})
	return res
}

// replayEvents moves n events through one event ring between two
// goroutines: the producer publishes PushBatch batches of the workload's
// mean flush size, the consumer drains with PopBatch(128) and parks in
// Wait when the ring is empty, as the worker does. It returns ns per
// event.
func replayEvents(n int, batch int, tr *Tracer) (float64, error) {
	if batch < 1 {
		batch = 1
	}
	q := event.NewQueue(0)
	src := make([]event.Event, batch)
	for i := range src {
		src[i] = event.Event{Type: event.Data, Accounted: 1}
	}
	done := make(chan int)
	s := now()
	go func() {
		dst := make([]event.Event, 128)
		got := 0
		for {
			k := q.PopBatch(dst)
			if k == 0 {
				if _, ok := q.Wait(); !ok {
					break
				}
				k = 1
			}
			got += k
		}
		done <- got
	}()
	for sent := 0; sent < n; {
		b := src[:min(batch, n-sent)]
		for len(b) > 0 {
			k := q.PushBatch(b)
			b = b[k:]
			sent += k
			if len(b) > 0 {
				runtime.Gosched()
			}
		}
	}
	q.Close()
	got := <-done
	e := now()
	tr.Add(Span{Name: "event.ring", Start: s, End: e})
	if got != n {
		return 0, fmt.Errorf("event ring replay: consumer got %d of %d events", got, n)
	}
	return float64(e-s) / float64(n), nil
}
