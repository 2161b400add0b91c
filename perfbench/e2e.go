package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"scap"
	"scap/internal/metrics"
)

// satBurst is the closed-loop burst size: one InjectBatch of this many
// frames is outstanding at a time, the batch size ReplaySource uses.
const satBurst = 64

// pacedTick is the open-loop send period; each tick sends PacedFPS/1000
// frames in one InjectBatch.
const pacedTick = time.Millisecond

// app is the benchmark's application: data and termination callbacks that
// record what the socket delivered for each stream direction, so the run
// can compare it with the oracle. A direction's events all reach the one
// worker draining its core, so crc is single-writer; Close orders those
// writes before check reads them. With a tracer, every callback also
// records a span tagged with its stream.
type app struct {
	t       *Trace
	withCRC bool
	got     []atomic.Int64
	term    []atomic.Int32
	termNS  []atomic.Int64
	crc     []uint32
	// unknown counts callbacks for streams the oracle has no direction
	// for; any is a failure.
	unknown atomic.Int64
	tr      *Tracer
	parent  uint64
}

func newApp(t *Trace, tr *Tracer, parent uint64, withCRC bool) *app {
	n := len(t.Dirs)
	a := &app{
		t: t, tr: tr, parent: parent, withCRC: withCRC,
		got: make([]atomic.Int64, n), term: make([]atomic.Int32, n), termNS: make([]atomic.Int64, n),
	}
	if a.withCRC {
		a.crc = make([]uint32, n)
	}
	return a
}

func (a *app) dir(sd *scap.Stream) int32 {
	if d, ok := a.t.DirIdx[sd.Key()]; ok {
		return d
	}
	a.unknown.Add(1)
	return -1
}

func (a *app) span(name string, sd *scap.Stream, start int64) {
	a.tr.Add(Span{Name: name, Start: start, End: now(), Parent: a.parent, Stream: sd.ID(), Track: 1 + int(sd.ID()>>48)})
}

func (a *app) onData(sd *scap.Stream) {
	start := int64(0)
	if a.tr != nil {
		start = now()
	}
	if d := a.dir(sd); d >= 0 {
		a.got[d].Add(int64(len(sd.Data)))
		if a.withCRC {
			a.crc[d] = crc32.Update(a.crc[d], castagnoli, sd.Data)
		}
	}
	if a.tr != nil {
		a.span("cb.data", sd, start)
	}
}

func (a *app) onClose(sd *scap.Stream) {
	t := now()
	if d := a.dir(sd); d >= 0 {
		a.term[d].Add(1)
		a.termNS[d].Store(t)
	}
	if a.tr != nil {
		a.span("cb.termination", sd, t)
	}
}

// check compares the deliveries with the oracle and returns the failed
// direction count plus a description of the first few failures. Callbacks
// for streams outside the oracle count as one more failure.
func (a *app) check() (failed int, msgs []string) {
	if n := a.unknown.Load(); n > 0 {
		failed++
		msgs = append(msgs, fmt.Sprintf("%d callbacks for streams the trace does not contain", n))
	}
	for i := range a.t.Dirs {
		d := &a.t.Dirs[i]
		var why string
		switch {
		case a.got[i].Load() != d.Expect:
			why = fmt.Sprintf("delivered %d bytes, want %d", a.got[i].Load(), d.Expect)
		case a.term[i].Load() != 1:
			why = fmt.Sprintf("%d terminations, want 1", a.term[i].Load())
		case a.withCRC && a.crc[i] != d.CRC:
			why = fmt.Sprintf("crc32c %08x, want %08x", a.crc[i], d.CRC)
		default:
			continue
		}
		failed++
		if len(msgs) < 10 {
			msgs = append(msgs, fmt.Sprintf("%v: %s", d.Key, why))
		}
	}
	return failed, msgs
}

// openHandle creates and starts a socket for w, returning the time spent in
// Create plus StartCapture.
func openHandle(w Workload, a *app) (*scap.Handle, time.Duration, error) {
	t0 := time.Now()
	h, err := scap.Create(scap.Config{ReassemblyMode: scap.TCPFast, Queues: queues, UseFDIR: w.FDIR})
	if err != nil {
		return nil, 0, err
	}
	setup := time.Since(t0)
	if err := h.SetCutoff(w.Cutoff); err != nil {
		return nil, 0, err
	}
	if w.ChunkSize > 0 {
		if err := h.SetParameter(scap.ParamChunkSize, w.ChunkSize); err != nil {
			return nil, 0, err
		}
	}
	h.DispatchData(a.onData)
	h.DispatchTermination(a.onClose)
	t1 := time.Now()
	if err := h.StartCapture(); err != nil {
		return nil, 0, err
	}
	return h, setup + time.Since(t1), nil
}

// memSampler tracks peak Go heap-in-use plus stack bytes.
type memSampler struct {
	stop chan struct{}
	done chan int64
}

var memSamples = []rtmetrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
	{Name: "/memory/classes/heap/stacks:bytes"},
}

func heapInUse() int64 {
	s := make([]rtmetrics.Sample, len(memSamples))
	copy(s, memSamples)
	rtmetrics.Read(s)
	var n int64
	for _, v := range s {
		n += int64(v.Value.Uint64())
	}
	return n
}

// startMemSampler samples every 2 ms until stop is called.
func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan int64)}
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		peak := heapInUse()
		for {
			select {
			case <-m.stop:
				m.done <- max(peak, heapInUse())
				return
			case <-tick.C:
				peak = max(peak, heapInUse())
			}
		}
	}()
	return m
}

// Stop ends sampling and returns the peak.
func (m *memSampler) Stop() int64 {
	close(m.stop)
	return <-m.done
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// satResult is one saturation window.
type satResult struct {
	Root    uint64
	Setup   time.Duration
	Wall    time.Duration
	CPU     time.Duration
	PeakMem int64
	Frames  int
	Offered int
	Failed  int
	Msgs    []string
}

// saturate runs one closed-loop window: Create+StartCapture, the whole
// trace through InjectBatch in satBurst bursts, then Close. The window
// runs from the first burst until Close returns.
func saturate(t *Trace, w Workload, tr *Tracer) (satResult, error) {
	runtime.GC()
	base := heapInUse()
	win := tr.NewID()
	a := newApp(t, tr, win, tr != nil)
	s0 := now()
	h, setup, err := openHandle(w, a)
	if err != nil {
		return satResult{}, err
	}
	tr.Add(Span{Name: "scap.Create+StartCapture", Start: s0, End: now(), Parent: win})
	ms := startMemSampler()
	c0 := cpuTime()
	t0 := now()
	frames := t.Frames
	for i := 0; i < len(frames); i += satBurst {
		bs := now()
		if err := h.InjectBatch(frames[i:min(i+satBurst, len(frames))]); err != nil {
			return satResult{}, err
		}
		tr.Add(Span{Name: "scap.InjectBatch", Start: bs, End: now(), Parent: win})
	}
	cs := now()
	if err := h.Close(); err != nil {
		return satResult{}, err
	}
	t1 := now()
	cpu := cpuTime() - c0
	peak := ms.Stop()
	tr.Add(Span{Name: "scap.Close", Start: cs, End: t1, Parent: win})
	tr.Add(Span{Name: "window.saturation", Start: s0, End: t1, ID: win})
	failed, msgs := a.check()
	return satResult{
		Root: win, Setup: setup, Wall: time.Duration(t1 - t0), CPU: cpu, PeakMem: peak - base,
		Frames: len(frames), Offered: len(t.Dirs), Failed: failed, Msgs: msgs,
	}, nil
}

// pacedResult is one open-loop pass.
type pacedResult struct {
	Setup time.Duration
	// Slices holds one close latency per TCP connection, grouped by the
	// 100 ms of the pass its final FIN/RST was due in (full slices only).
	Slices  [][]float64
	MaxLag  time.Duration
	Offered int
	Failed  int
	Msgs    []string
	// Scrape is the pass's /metrics payload, fetched once after Close
	// when the pass was asked to serve.
	Scrape *metrics.Payload
}

// pace runs one open-loop pass: one burst of w.PacedFPS/1000 frames per
// millisecond, due at a fixed schedule regardless of how the socket keeps
// up. Each TCP connection's close latency runs from the due time of the
// burst carrying its final FIN/RST to its last termination callback.
func pace(t *Trace, w Workload, tr *Tracer, serve bool) (pacedResult, error) {
	runtime.GC()
	win := tr.NewID()
	// Callbacks get spans in the traced saturation window only: on
	// flow_churn each window has ~8·10^5 of them.
	a := newApp(t, nil, win, tr != nil)
	s0 := now()
	h, setup, err := openHandle(w, a)
	if err != nil {
		return pacedResult{}, err
	}
	tr.Add(Span{Name: "scap.Create+StartCapture", Start: s0, End: now(), Parent: win})
	var srv *scap.DebugServer
	if serve {
		if srv, err = h.Serve("127.0.0.1:0"); err != nil {
			return pacedResult{}, err
		}
		defer srv.Close()
	}
	burst := w.PacedFPS / int(time.Second/pacedTick)
	frames := t.Frames
	start := now() + int64(pacedTick)
	var maxLag int64
	for k, i := 0, 0; i < len(frames); k, i = k+1, i+burst {
		due := start + int64(k)*int64(pacedTick)
		if d := due - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		bs := now()
		maxLag = max(maxLag, bs-due)
		if err := h.InjectBatch(frames[i:min(i+burst, len(frames))]); err != nil {
			return pacedResult{}, err
		}
		tr.Add(Span{Name: "scap.InjectBatch", Start: bs, End: now(), Parent: win})
	}
	cs := now()
	if err := h.Close(); err != nil {
		return pacedResult{}, err
	}
	tr.Add(Span{Name: "scap.Close", Start: cs, End: now(), Parent: win})
	tr.Add(Span{Name: "window.paced", Start: s0, End: now(), ID: win})
	res := pacedResult{Setup: setup, MaxLag: time.Duration(maxLag), Offered: len(t.Dirs)}
	res.Failed, res.Msgs = a.check()
	termNS := make([]int64, len(a.termNS))
	for i := range termNS {
		termNS[i] = a.termNS[i].Load()
	}
	res.Slices = closeSlices(t, termNS, start, burst)
	if srv != nil {
		if res.Scrape, err = scrape(srv.Addr()); err != nil {
			return pacedResult{}, err
		}
	}
	return res, nil
}

// sliceTicks is how many send ticks make one latency slice: 100 ms, about
// 2·10^3 connections on every workload, so each slice's p99 has 20
// samples beyond it.
const sliceTicks = int(100 * time.Millisecond / pacedTick)

// closeSlices returns, per TCP connection, the milliseconds from the due
// time of the burst that carried its final FIN/RST (burst k is due at
// start + k·pacedTick) to the later of its directions' termination
// callbacks, grouped into one slice per sliceTicks of due time. Only full
// slices are kept, so every slice has the same offered load. A connection
// with a direction that never terminated is skipped; check already counts
// it as failed.
func closeSlices(t *Trace, termNS []int64, start int64, burst int) [][]float64 {
	full := (len(t.Frames) / burst) / sliceTicks
	out := make([][]float64, full)
	for _, c := range t.Conns {
		a, b := termNS[c.Dirs[0]], termNS[c.Dirs[1]]
		k := c.Last / burst
		if a == 0 || b == 0 || k/sliceTicks >= full {
			continue
		}
		due := start + int64(k)*int64(pacedTick)
		out[k/sliceTicks] = append(out[k/sliceTicks], float64(max(a, b)-due)/1e6)
	}
	return out
}

func scrape(addr string) (*metrics.Payload, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return metrics.ParsePayload(body)
}

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
