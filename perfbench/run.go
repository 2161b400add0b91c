package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"scap/internal/metrics"
	"scap/internal/sim"
)

// Run structure. The first saturation windows of a process run while the
// heap is still growing and read up to 40% slow, so they are discarded.
// Interference from other tenants of a shared host only ever makes a
// window slower, and comes and goes within a run; so each time is the
// quartile of the measured windows (or latency slices) on the fast side
// (the 25th percentile of times, the 75th of rates), which a run only
// loses when interference covers three quarters of it. Memory and set-up
// figures are medians.
const (
	satWarmup = 2
	minSat    = 3
	// satShare is the part of the budget spent in the saturation phase;
	// the paced phase takes the rest.
	satShare = 0.5
)

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(t *Trace, w Workload, budget time.Duration, rep *report) error {
	start, steal0 := time.Now(), hostSteal()
	defer noteSteal(rep, start, steal0)
	var setup, fps, cpu, peak []float64
	for i := 0; ; i++ {
		r, err := saturate(t, w, nil)
		if err != nil {
			return err
		}
		rep.count(r.Offered, r.Failed, r.Msgs)
		setup = append(setup, r.Setup.Seconds())
		if i >= satWarmup {
			fps = append(fps, float64(r.Frames)/r.Wall.Seconds())
			cpu = append(cpu, float64(r.CPU.Nanoseconds())/float64(r.Frames))
			peak = append(peak, float64(r.PeakMem)/(1<<20))
		}
		if i+1 >= satWarmup+minSat && time.Since(start) >= time.Duration(float64(budget)*satShare) {
			break
		}
	}
	var p50s, p99s []float64
	var samples int
	var maxLag time.Duration
	for {
		p0 := time.Now()
		r, err := pace(t, w, nil, false)
		if err != nil {
			return err
		}
		rep.count(r.Offered, r.Failed, r.Msgs)
		setup = append(setup, r.Setup.Seconds())
		maxLag = max(maxLag, r.MaxLag)
		for _, s := range r.Slices {
			samples += len(s)
			p50s = append(p50s, quantile(s, 0.5))
			p99s = append(p99s, quantile(s, 0.99))
		}
		if len(p99s) > 0 && time.Since(start)+time.Since(p0) > budget {
			break
		}
	}
	rep.set("setup_s", median(setup), "s")
	rep.set("cpu_ns_per_frame", quantile(cpu, 0.25), "ns")
	rep.set("peak_mem_mb", median(peak), "MiB")
	// Wall-clock figures: printed with every run but not on the result
	// line, because on a shared VM they track the neighbours' load (see
	// README.md, "Gated and printed metrics").
	rep.extra["frames_per_s"] = Metric{quantile(fps, 0.75), "frames/s"}
	rep.extra["close_p50_ms"] = Metric{quantile(p50s, 0.25), "ms"}
	rep.extra["close_p99_ms"] = Metric{quantile(p99s, 0.25), "ms"}
	rep.extra["fail_ratio"] = Metric{float64(rep.res.Failed) / float64(max(rep.res.Attempted, 1)), "ratio"}
	rep.extra["close_samples"] = Metric{float64(samples), "connections"}
	rep.extra["close_slices"] = Metric{float64(len(p99s)), "slices"}
	rep.extra["saturation_windows"] = Metric{float64(len(fps)), "windows"}
	rep.extra["driver.paced_lag_max_ms"] = Metric{float64(maxLag) / 1e6, "ms"}
	rep.detail["close_p99_by_slice_ms"] = p99s
	rep.detail["frames_per_s_by_window"] = fps
	rep.detail["cpu_ns_per_frame_by_window"] = cpu
	return nil
}

// runTraced produces the per-layer metrics: untraced reference windows,
// one traced saturation window and one traced paced pass through the
// public API (with CRC-32C output checks and a single /metrics scrape),
// then the isolated layer replays. All spans go to one Chrome trace file.
func runTraced(t *Trace, w Workload, seed int64, spanPath string, rep *report) error {
	start, steal0 := time.Now(), hostSteal()
	defer noteSteal(rep, start, steal0)
	frames := float64(len(t.Frames))
	var refFPS, refCPU []float64
	for i := 0; i < satWarmup+minSat; i++ {
		r, err := saturate(t, w, nil)
		if err != nil {
			return err
		}
		rep.count(r.Offered, r.Failed, r.Msgs)
		if i >= satWarmup {
			refFPS = append(refFPS, frames/r.Wall.Seconds())
			refCPU = append(refCPU, float64(r.CPU.Nanoseconds())/frames)
		}
	}
	tr := NewTracer(1 + queues)
	sat, err := saturate(t, w, tr)
	if err != nil {
		return err
	}
	rep.count(sat.Offered, sat.Failed, sat.Msgs)
	paced, err := pace(t, w, tr, true)
	if err != nil {
		return err
	}
	rep.count(paced.Offered, paced.Failed, paced.Msgs)

	// Layer replays: one untraced pass warms the heap, then the traced one.
	if _, err := replayPipeline(t, w, nil, seed); err != nil {
		return err
	}
	pipe, err := replayPipeline(t, w, tr, seed)
	if err != nil {
		return err
	}
	pipeRoot := pipe.Root
	decodeRoot := replayDecode(t, tr)
	probes, ftRoot := replayFlowtab(t, tr, seed)
	asmBytes, asmRoot := replayReassembly(t, tr)
	mr := replayMem(t, w, tr)
	memRoot := mr.Root
	batch := 1
	if pipe.Flushes > 0 {
		batch = int(pipe.Events) / pipe.Flushes
	}
	evNS, err := replayEvents(int(pipe.Events), batch, tr)
	if err != nil {
		return err
	}

	// Replay checks: each replay must reproduce what the oracle expects,
	// or its timings describe the wrong work.
	var wantBytes, wantFull int64
	for _, d := range t.Dirs {
		wantBytes += d.Expect
		if d.TCP {
			wantFull += d.Full
		}
	}
	if pipe.Delivered != wantBytes || pipe.Terminations != len(t.Dirs) {
		rep.fail("engine replay delivered %d bytes and %d terminations, want %d and %d", pipe.Delivered, pipe.Terminations, wantBytes, len(t.Dirs))
	}
	if asmBytes != wantFull {
		rep.fail("reassembly replay delivered %d bytes, want %d", asmBytes, wantFull)
	}

	spans := tr.Spans()
	self := SelfTimes(spans)
	perFrame := func(name string, root uint64) float64 {
		return float64(SumSelf(spans, self, name, root)) / frames
	}
	nicNS := perFrame("nic.steer", pipeRoot)
	coreNS := perFrame("core.HandleFrames", pipeRoot)
	drainNS := perFrame("event.drain", pipeRoot)
	sc := paced.Scrape
	counter := func(name string) float64 {
		if c := sc.Counter(name); c != nil {
			return float64(c.Total)
		}
		return 0
	}
	quant := func(name string, p float64) float64 {
		if h := sc.Histogram(name); h != nil {
			return metrics.QuantileFromSnap(*h, p) / 1e3
		}
		return 0
	}
	chunks := 0.0
	if h := sc.Histogram("chunk_bytes"); h != nil {
		chunks = float64(h.Count)
	}
	fallback := ratio(float64(pipe.ArenaExhausted), float64(pipe.Chunks))
	fallback = max(fallback, ratio(counter("arena_exhausted_total"), chunks), ratio(float64(mr.Exhausted), float64(mr.Chunks)))
	if fallback != 0 {
		rep.fail("mem.arena_fallback_ratio = %g: chunks ran on the heap fallback", fallback)
	}
	cpuRef := quantile(refCPU, 0.25)
	sum := nicNS + coreNS + drainNS

	rep.set("nic.steer_ns", nicNS, "ns")
	rep.set("pkt.decode_ns", perFrame("pkt.Decode", decodeRoot), "ns")
	rep.set("core.engine_ns", coreNS, "ns")
	rep.set("core.alloc_b_per_kframe", float64(pipe.AllocBytes)*1000/frames, "B")
	rep.set("core.events_per_kframe", float64(pipe.Events)*1000/frames, "events")
	rep.set("event.drain_ns", drainNS, "ns")
	rep.set("flowtab.op_ns", perFrame("flowtab.ops", ftRoot), "ns")
	rep.set("flowtab.probe_groups_per_lookup", probes, "groups")
	rep.set("reassembly.ns_per_kb", float64(SumSelf(spans, self, "reassembly.Segment", asmRoot))/(float64(asmBytes)/1024), "ns")
	rep.set("mem.admit_ns", float64(SumSelf(spans, self, "mem.admit", memRoot))/float64(max(mr.Admits, 1)), "ns")
	rep.set("mem.block_ns", float64(SumSelf(spans, self, "mem.block", memRoot))/float64(max(mr.Chunks, 1)), "ns")
	rep.set("mem.arena_fallback_ratio", fallback, "ratio")
	rep.set("event.ns_per_event", evNS, "ns")
	rep.set("nic.fdir_drop_ratio", ratio(counter("nic_dropped_filter_total"), counter("nic_frames_total")), "ratio")
	rep.set("core.cutoff_pkt_ratio", ratio(counter("cutoff_pkts_total"), counter("packets_total")), "ratio")
	rep.set("scap.inject_wait_ns", perFrame("scap.InjectBatch", sat.Root)-nicNS, "ns")
	rep.set("stage.ingest_engine_p99_us", quant("stage_ingest_engine_ns", 0.99), "us")
	rep.set("stage.ring_worker_p50_us", quant("stage_ring_worker_ns", 0.5), "us")
	rep.set("stage.ring_worker_p99_us", quant("stage_ring_worker_ns", 0.99), "us")
	rep.set("recon.residual_frac", (cpuRef-sum)/cpuRef, "ratio")
	rep.set("trace.overhead_frac", 1-(frames/sat.Wall.Seconds())/quantile(refFPS, 0.75), "ratio")
	rep.set("driver.paced_lag_max_ms", float64(paced.MaxLag)/1e6, "ms")
	rep.extra["cpu_ns_per_frame (untraced reference)"] = Metric{cpuRef, "ns"}
	rep.extra["fail_ratio"] = Metric{float64(rep.res.Failed) / float64(max(rep.res.Attempted, 1)), "ratio"}

	printReconciliation(t, nicNS, coreNS, drainNS, cpuRef, pipe, rep)
	rep.notes = append(rep.notes, fmt.Sprintf("spans: %d written to %s (open in ui.perfetto.dev)", len(spans), spanPath))
	return tr.WriteChrome(spanPath)
}

// noteSteal reports the share of the run's CPU capacity the hypervisor
// gave to other guests. A run with a large share measured the host, not
// the program; the figures of such runs read slow and spread wide.
func noteSteal(rep *report, start time.Time, steal0 int64) {
	capacity := float64(time.Since(start)) * float64(runtime.NumCPU())
	rep.extra["host.steal_frac"] = Metric{float64(hostSteal()-steal0) / capacity, "ratio"}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printReconciliation lists the isolated top-level layer costs, their sum
// and the residual against the measured CPU per frame, beside the
// matching constants of the paper-calibrated cost model in internal/sim
// (read-only here; it prices the paper's 2 GHz testbed, not this code).
func printReconciliation(t *Trace, nicNS, coreNS, drainNS, cpuRef float64, pipe pipelineResult, rep *report) {
	frames := float64(len(t.Frames))
	cm := sim.DefaultCostModel()
	cyc := 1e9 / cm.CoreHz
	payPerFrame := float64(t.PayloadBytes) / frames
	chunksPerFrame := float64(pipe.Chunks) / frames
	modelKernel := (cm.ScapPerPacket + cm.ScapPerByte*payPerFrame) * cyc
	modelEvent := cm.EventPerChunk * chunksPerFrame * cyc
	sum := nicNS + coreNS + drainNS
	lines := []string{
		"reconciliation, ns per frame (isolated layer replays vs untraced end-to-end CPU):",
		fmt.Sprintf("  %-28s %10.1f", "nic.steer_ns", nicNS),
		fmt.Sprintf("  %-28s %10.1f", "core.engine_ns", coreNS),
		fmt.Sprintf("  %-28s %10.1f", "event.drain_ns", drainNS),
		fmt.Sprintf("  %-28s %10.1f", "sum of layers", sum),
		fmt.Sprintf("  %-28s %10.1f", "cpu_ns_per_frame", cpuRef),
		fmt.Sprintf("  %-28s %10.1f  (%.1f%% of cpu_ns_per_frame)", "residual", cpuRef-sum, 100*(cpuRef-sum)/cpuRef),
		fmt.Sprintf("sim.DefaultCostModel at %.0f GHz: ScapPerPacket %.0f cyc + ScapPerByte %.1f cyc/B x %.0f B payload/frame = %.1f ns/frame (measured nic+core %.1f);",
			cm.CoreHz/1e9, cm.ScapPerPacket, cm.ScapPerByte, payPerFrame, modelKernel, nicNS+coreNS),
		fmt.Sprintf("  EventPerChunk %.0f cyc x %.4f chunks/frame = %.1f ns/frame (measured event.drain %.1f)", cm.EventPerChunk, chunksPerFrame, modelEvent, drainNS),
	}
	rep.notes = append(rep.notes, lines...)
	rep.detail["reconciliation_ns_per_frame"] = map[string]float64{
		"nic.steer_ns": nicNS, "core.engine_ns": coreNS, "event.drain_ns": drainNS, "sum": sum,
		"cpu_ns_per_frame": cpuRef, "residual": cpuRef - sum,
		"model.kernel_ns": modelKernel, "model.event_ns": modelEvent,
	}
}

// hostSteal returns the cumulative time, in ns over all CPUs, that the
// hypervisor ran something else while this VM's vCPUs were runnable (the
// steal column of /proc/stat, in USER_HZ = 100 ticks per second); 0 where
// that is unavailable.
func hostSteal() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	st, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return st * int64(time.Second/100)
}
