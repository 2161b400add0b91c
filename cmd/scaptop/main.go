// Command scaptop is a terminal viewer for a running Scap socket's debug
// server (Handle.Serve): it polls /metrics and renders totals, per-core
// rates and memory pressure, then the last flight-recorder records from
// /debug/flight as the recent overload events — top(1) for the capture path.
//
// Usage:
//
//	scaptop -addr 127.0.0.1:6060             # watch a live capture
//	scaptop -addr 127.0.0.1:6060 -plain -n 3 # three plain snapshots
//	scaptop -addr 127.0.0.1:6060 -json       # one raw /metrics payload, then exit
//	scaptop -smoke                           # self-contained end-to-end check
//	scaptop -flight-smoke                    # end-to-end flight-recorder check
//	scaptop -ctlplane-smoke                  # end-to-end adaptive-controller check
//	scaptop -streams-smoke                   # end-to-end stream-journal check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"scap"
	"scap/internal/ctlplane"
	"scap/internal/metrics"
	"scap/internal/streamscope"
	"scap/internal/trace"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:6060", "debug server address (Handle.Serve)")
		interval    = flag.Duration("interval", time.Second, "poll interval")
		count       = flag.Int("n", 0, "number of polls (0 = until interrupted)")
		plain       = flag.Bool("plain", false, "append snapshots instead of redrawing the screen")
		jsonOnce    = flag.Bool("json", false, "print one raw /metrics payload as JSON and exit")
		smoke       = flag.Bool("smoke", false, "run an in-process capture, scrape it once, and exit")
		flightSmoke = flag.Bool("flight-smoke", false, "run an in-process capture and verify /debug/flight")
		ctlSmoke    = flag.Bool("ctlplane-smoke", false, "run an in-process overloaded capture and verify /debug/ctlplane")
		strSmoke    = flag.Bool("streams-smoke", false, "run an in-process capture and verify /debug/streams and /debug/history")
	)
	flag.Parse()

	if *smoke {
		if err := runSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "scaptop -smoke:", err)
			os.Exit(1)
		}
		return
	}
	if *flightSmoke {
		if err := runFlightSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "scaptop -flight-smoke:", err)
			os.Exit(1)
		}
		return
	}
	if *ctlSmoke {
		if err := runCtlplaneSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "scaptop -ctlplane-smoke:", err)
			os.Exit(1)
		}
		return
	}
	if *strSmoke {
		if err := runStreamsSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "scaptop -streams-smoke:", err)
			os.Exit(1)
		}
		return
	}
	if *jsonOnce {
		body, err := fetchBody(*addr, "/metrics")
		if err != nil {
			fmt.Fprintln(os.Stderr, "scaptop:", err)
			os.Exit(1)
		}
		os.Stdout.Write(body)
		return
	}

	for i := 0; *count == 0 || i < *count; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		p, err := fetch(*addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scaptop:", err)
			os.Exit(1)
		}
		if !*plain {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		fmt.Print(render(p))
		// The other panels come from their own endpoints; one that is
		// disabled or absent (older binary) renders nothing.
		var fd metrics.FlightDump
		if fetchJSON(*addr, "/debug/flight", &fd) == nil {
			fmt.Print(renderFlight(&fd))
		}
		var cs ctlplane.Snapshot
		if fetchJSON(*addr, "/debug/ctlplane", &cs) == nil {
			fmt.Print(renderCtlplane(&cs))
		}
		var sd streamscope.Dump
		if fetchJSON(*addr, "/debug/streams", &sd) == nil {
			fmt.Print(renderStreams(&sd))
		}
		var hd metrics.HistoryDump
		if fetchJSON(*addr, "/debug/history", &hd) == nil {
			fmt.Print(renderHistory(&hd))
		}
	}
}

// recentFlight is how many of the newest flight records the overload block
// shows.
const recentFlight = 10

// renderFlight formats the recent overload events block: the newest
// flight-recorder records, oldest first, one per line.
func renderFlight(d *metrics.FlightDump) string {
	recs := d.Records
	if len(recs) == 0 {
		return ""
	}
	if len(recs) > recentFlight {
		recs = recs[len(recs)-recentFlight:]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\nrecent overload events (last %d of %d):\n", len(recs), d.Total)
	for _, r := range recs {
		fmt.Fprintf(&b, "  %s  %-20s core=%d value=%d", time.Unix(0, r.TimeUnixNano).Format("15:04:05.000"), r.KindName, r.Core, r.Value)
		if r.Aux != 0 {
			fmt.Fprintf(&b, " aux=%d", r.Aux)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// renderCtlplane formats the adaptive controller's one-line status: mode,
// live pressure, the active knob positions, and the last decision taken.
// Disabled controllers render nothing.
func renderCtlplane(s *ctlplane.Snapshot) string {
	if s == nil || !s.Enabled {
		return ""
	}
	var b strings.Builder
	cutoff := "none"
	if s.DynCutoff >= 0 {
		cutoff = fmt.Sprintf("%d", s.DynCutoff)
	}
	budget := fmt.Sprintf("%d", s.FDIRBudget)
	if s.FDIRBudget < 0 {
		budget = "unlimited"
	}
	ppl := "no"
	if s.UnderPPL {
		ppl = "yes"
	}
	fmt.Fprintf(&b, "ctlplane mode=%s mem=%.1f%% arena=%.1f%% ppl=%s clamp=%s fdir-budget=%s p99(ring→worker)=%s",
		s.Mode, 100*s.MemFraction, 100*s.ArenaFraction, ppl, cutoff, budget,
		time.Duration(s.P99RingWorkerNs).Round(time.Microsecond))
	if len(s.Watermarks) > 0 {
		b.WriteString(" wm=[")
		for i, w := range s.Watermarks {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.2f", w)
		}
		b.WriteByte(']')
	}
	if n := len(s.Decisions); n > 0 {
		d := s.Decisions[n-1]
		fmt.Fprintf(&b, "  last=%s(%d)@%s", d.Action, d.Value,
			time.Unix(0, d.TimeUnixNano).Format("15:04:05.000"))
	}
	b.WriteByte('\n')
	return b.String()
}

// renderStreams formats the stream-journal status line: pool population,
// sampling stride, and the top offender — the anomalous journal with the
// most recorded events.
func renderStreams(d *streamscope.Dump) string {
	if d == nil || d.Cores == 0 {
		return ""
	}
	var top *streamscope.JournalSnap
	for i := range d.Journals {
		js := &d.Journals[i]
		if js.AnomalyMask == 0 {
			continue
		}
		if top == nil || js.TotalEvents > top.TotalEvents {
			top = js
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "streams  journals=%d sampled=%d anomalies=%d stride=1/%d",
		len(d.Journals), d.Sampled, d.Anomalies, d.SampleEvery)
	if top != nil {
		fmt.Fprintf(&b, "  top=%s [%s] events=%d", top.Key, strings.Join(top.Anomalies, ","), top.TotalEvents)
	}
	b.WriteByte('\n')
	return b.String()
}

// sparkRunes is the eight-level bar alphabet sparklines draw with.
var sparkRunes = []rune("\u2581\u2582\u2583\u2584\u2585\u2586\u2587\u2588")

// sparkline draws the last sparkWidth values scaled against their max.
const sparkWidth = 60

func sparkline(vals []float64) string {
	if len(vals) > sparkWidth {
		vals = vals[len(vals)-sparkWidth:]
	}
	maxV := 0.0
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if maxV > 0 {
			i = int(v/maxV*float64(len(sparkRunes)-1) + 0.5)
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// renderHistory formats the sparkline block from the history ring: the
// frame-inject rate and the arena occupancy over the retained window.
func renderHistory(hd *metrics.HistoryDump) string {
	if hd == nil || len(hd.Points) == 0 {
		return ""
	}
	var inject, occ []float64
	for _, pt := range hd.Points {
		for _, c := range pt.Counters {
			if c.Name == "nic_frames_total" {
				inject = append(inject, c.Rate)
			}
		}
		var used, total float64
		for _, g := range pt.Gauges {
			switch g.Name {
			case "arena_blocks_inuse":
				used = float64(g.Value)
			case "arena_blocks_total":
				total = float64(g.Value)
			}
		}
		if total > 0 {
			occ = append(occ, used/total)
		} else {
			occ = append(occ, 0)
		}
	}
	var b strings.Builder
	if len(inject) > 0 {
		fmt.Fprintf(&b, "history  inject/s %s now=%.0f/s\n", sparkline(inject), inject[len(inject)-1])
	}
	if len(occ) > 0 {
		fmt.Fprintf(&b, "         arena%%   %s now=%.1f%%\n", sparkline(occ), 100*occ[len(occ)-1])
	}
	return b.String()
}

// fetchBody reads one debug-server endpoint's raw response body.
func fetchBody(addr, path string) ([]byte, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// fetchJSON scrapes one debug endpoint and decodes its JSON body into v. A
// disabled subsystem serves {"enabled": false}, which decodes to a zero
// value that the render functions draw as nothing.
func fetchJSON(addr, path string, v any) error {
	body, err := fetchBody(addr, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// fetch scrapes one /metrics payload.
func fetch(addr string) (*metrics.Payload, error) {
	body, err := fetchBody(addr, "/metrics")
	if err != nil {
		return nil, err
	}
	return metrics.ParsePayload(body)
}

// perCoreRows is the counter set shown per core, in display order.
var perCoreRows = []struct{ name, label string }{
	{"frames_total", "frames/s"},
	{"packets_total", "pkts/s"},
	{"stored_bytes_total", "stored B/s"},
	{"ppl_dropped_pkts_total", "ppl-drop/s"},
	{"cutoff_pkts_total", "cutoff/s"},
	{"events_lost_total", "ev-lost/s"},
}

// render formats one payload as the full-screen view.
func render(p *metrics.Payload) string {
	var b strings.Builder
	ts := time.Unix(0, p.TimeUnixNano).Format("15:04:05")
	fmt.Fprintf(&b, "scaptop  %s  window %.1fs  cores %d\n\n", ts, p.WindowSeconds, p.Cores)

	total := func(name string) uint64 {
		if c := p.Counter(name); c != nil {
			return c.Total
		}
		return 0
	}
	rate := func(name string) float64 {
		if c := p.Counter(name); c != nil {
			return c.Rate
		}
		return 0
	}
	fmt.Fprintf(&b, "frames   %12d  %10.0f/s    nic-ring-drop %10d  %8.0f/s\n",
		total("nic_frames_total"), rate("nic_frames_total"),
		total("nic_dropped_ring_total"), rate("nic_dropped_ring_total"))
	fmt.Fprintf(&b, "packets  %12d  %10.0f/s    nic-fdir-drop %10d  %8.0f/s\n",
		total("packets_total"), rate("packets_total"),
		total("nic_dropped_filter_total"), rate("nic_dropped_filter_total"))
	fmt.Fprintf(&b, "stored B %12d  %10.0f/s    ppl-drop      %10d  %8.0f/s\n",
		total("stored_bytes_total"), rate("stored_bytes_total"),
		total("ppl_dropped_pkts_total"), rate("ppl_dropped_pkts_total"))
	fmt.Fprintf(&b, "streams  %12d created       cutoff-pkts   %10d  %8.0f/s\n",
		total("streams_created_total"),
		total("cutoff_pkts_total"), rate("cutoff_pkts_total"))

	used, size := gaugeVal(p, "memory_used_bytes"), gaugeVal(p, "memory_size_bytes")
	pct := 0.0
	if size > 0 {
		pct = 100 * float64(used) / float64(size)
	}
	fmt.Fprintf(&b, "memory   %12d / %d bytes (%.1f%%), highwater %d\n",
		used, size, pct, gaugeVal(p, "memory_highwater_bytes"))
	fmt.Fprintf(&b, "arena    %12d / %d blocks in use (%d B/block, %d segs committed), free: global %d",
		gaugeVal(p, "arena_blocks_inuse"), gaugeVal(p, "arena_blocks_total"),
		gaugeVal(p, "arena_block_size_bytes"), gaugeVal(p, "arena_segments_committed"),
		gaugeVal(p, "arena_freelist_global"))
	for core := 0; core < p.Cores; core++ {
		fmt.Fprintf(&b, " c%d=%d", core, gaugeVal(p, fmt.Sprintf("arena_freelist_core%d", core)))
	}
	b.WriteString("\n")

	// Flow-table health: average slot groups touched per lookup (the
	// cache-line cost of a probe) and per-core occupancy/capacity.
	if lk := total("flowtab_lookups_total"); lk > 0 {
		perLookup := float64(total("flowtab_probe_groups_total")) / float64(lk)
		fmt.Fprintf(&b, "flowtab  %12d lookups (%.2f groups/lookup), swept %d groups, %d rehashes, occ:",
			lk, perLookup, total("flowtab_swept_groups_total"), total("flowtab_grows_total"))
		for core := 0; core < p.Cores; core++ {
			fmt.Fprintf(&b, " c%d=%d/%d", core,
				gaugeVal(p, fmt.Sprintf("flowtab_occupancy_core%d", core)),
				gaugeVal(p, fmt.Sprintf("flowtab_capacity_core%d", core)))
		}
		b.WriteString("\n")
	}
	// Sketch front-end: record-suppression volume and heavy-hitter counts.
	if obs := total("sketch_observed_pkts_total"); obs > 0 {
		fmt.Fprintf(&b, "sketch   %12d pkts observed, %d suppressed  %8.0f/s, heavies:",
			obs, total("sketch_suppressed_pkts_total"), rate("sketch_suppressed_pkts_total"))
		for core := 0; core < p.Cores; core++ {
			fmt.Fprintf(&b, " c%d=%d", core, gaugeVal(p, fmt.Sprintf("sketch_heavies_core%d", core)))
		}
		b.WriteString("\n")
	}
	b.WriteString(renderLatency(p))
	b.WriteString("\n")

	// Per-core rate table: one column per counter, one row per core.
	fmt.Fprintf(&b, "core")
	for _, r := range perCoreRows {
		fmt.Fprintf(&b, "  %12s", r.label)
	}
	b.WriteByte('\n')
	for core := 0; core < p.Cores; core++ {
		fmt.Fprintf(&b, "%4d", core)
		for _, r := range perCoreRows {
			v := 0.0
			if c := p.Counter(r.name); c != nil && core < len(c.PerCoreRate) {
				v = c.PerCoreRate[core]
			}
			fmt.Fprintf(&b, "  %12.0f", v)
		}
		b.WriteByte('\n')
	}

	b.WriteString(renderDrops(p))

	return b.String()
}

// latencyStages is the pipeline latency line's histogram set, in pipeline
// order (names registered by StartCapture / Create).
var latencyStages = []struct{ name, label string }{
	{"stage_ingest_engine_ns", "ingest→engine"},
	{"stage_engine_ring_ns", "engine→ring"},
	{"stage_ring_worker_ns", "ring→worker"},
	{"callback_ns", "callback"},
}

// renderLatency formats the per-stage p50/p99 latency line from the stage
// histograms; stages with no observations are skipped.
func renderLatency(p *metrics.Payload) string {
	var b strings.Builder
	for _, st := range latencyStages {
		h := p.Histogram(st.name)
		if h == nil || h.Count == 0 {
			continue
		}
		if b.Len() == 0 {
			b.WriteString("latency ")
		}
		p50 := time.Duration(metrics.QuantileFromSnap(*h, 0.50))
		p99 := time.Duration(metrics.QuantileFromSnap(*h, 0.99))
		fmt.Fprintf(&b, " %s p50=%s p99=%s", st.label, p50.Round(time.Microsecond), p99.Round(time.Microsecond))
	}
	if b.Len() > 0 {
		b.WriteByte('\n')
	}
	return b.String()
}

// renderDrops formats the drop-attribution table: one row per cause, with
// totals and windowed rates, plus per-core totals where available.
func renderDrops(p *metrics.Payload) string {
	if len(p.Drops) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("\ndrops by cause:\n")
	fmt.Fprintf(&b, "  %-16s %12s %10s  %s\n", "cause", "total", "rate/s", "per-core")
	for i := range p.Drops {
		d := &p.Drops[i]
		cause := d.Cause
		if cause == "" {
			cause = d.Name
		}
		fmt.Fprintf(&b, "  %-16s %12d %10.0f  %v\n", cause, d.Total, d.Rate, d.PerCore)
	}
	return b.String()
}

func gaugeVal(p *metrics.Payload, name string) int64 {
	if g := p.Gauge(name); g != nil {
		return g.Value
	}
	return 0
}

// runSmoke is the CI end-to-end check (make serve-smoke): replay a small
// synthetic trace through a real socket with Serve enabled, scrape /metrics
// over HTTP, and require nonzero packets_total.
func runSmoke() error {
	h, err := scap.Create(scap.Config{Queues: 2, MemorySize: 64 << 20})
	if err != nil {
		return err
	}
	h.DispatchData(func(sd *scap.Stream) {})
	if err := h.StartCapture(); err != nil {
		return err
	}
	srv, err := h.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	gen := trace.ConcurrentStreamsWorkload(1, 200, 16, 40, 1460)
	if err := h.ReplaySource(gen, 1e9); err != nil {
		return err
	}
	p, err := fetch(srv.Addr())
	if err != nil {
		return err
	}
	pk := p.Counter("packets_total")
	if pk == nil || pk.Total == 0 {
		return fmt.Errorf("packets_total missing or zero in /metrics payload")
	}
	if len(pk.PerCore) != 2 {
		return fmt.Errorf("packets_total per-core = %v, want 2 cores", pk.PerCore)
	}
	if err := h.Close(); err != nil {
		return err
	}
	fmt.Printf("serve-smoke OK: packets_total=%d per-core=%v frames=%d\n",
		pk.Total, pk.PerCore, p.Counter("nic_frames_total").Total)
	fmt.Print(render(p))
	return nil
}

// runFlightSmoke is the CI flight-recorder end-to-end check (make
// flight-smoke): replay a short trace with a low cutoff so the engines emit
// flight records, then require /debug/flight to return at least one record
// and a valid Chrome trace-event export.
func runFlightSmoke() error {
	h, err := scap.Create(scap.Config{Queues: 2, MemorySize: 64 << 20})
	if err != nil {
		return err
	}
	// Most generated flows exceed this, so cutoff records are guaranteed.
	if err := h.SetCutoff(512); err != nil {
		return err
	}
	h.DispatchData(func(sd *scap.Stream) {})
	if err := h.StartCapture(); err != nil {
		return err
	}
	srv, err := h.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	gen := trace.ConcurrentStreamsWorkload(2, 200, 16, 40, 1460)
	if err := h.ReplaySource(gen, 1e9); err != nil {
		return err
	}

	var dump metrics.FlightDump
	if err := fetchJSON(srv.Addr(), "/debug/flight", &dump); err != nil {
		return fmt.Errorf("/debug/flight: %v", err)
	}
	if len(dump.Records) == 0 || dump.Total == 0 {
		return fmt.Errorf("no flight records after cutoff-heavy replay: total=%d", dump.Total)
	}

	var tr metrics.ChromeTrace
	if err := fetchJSON(srv.Addr(), "/debug/flight?format=chrome", &tr); err != nil {
		return fmt.Errorf("chrome trace: %v", err)
	}
	if tr.DisplayTimeUnit != "ms" || len(tr.TraceEvents) != len(dump.Records) {
		return fmt.Errorf("chrome trace shape: unit=%q events=%d records=%d",
			tr.DisplayTimeUnit, len(tr.TraceEvents), len(dump.Records))
	}
	for _, ev := range tr.TraceEvents {
		if ev.Name == "" || ev.Cat != "flight" || (ev.Ph != "i" && ev.Ph != "X") || ev.TS < 0 {
			return fmt.Errorf("malformed trace event: %+v", ev)
		}
	}
	fmt.Print(renderFlight(&dump))
	if err := h.Close(); err != nil {
		return err
	}
	fmt.Printf("flight-smoke OK: records=%d (total %d), chrome events=%d\n",
		len(dump.Records), dump.Total, len(tr.TraceEvents))
	return nil
}

// runCtlplaneSmoke is the CI control-plane end-to-end check (make
// ctlplane-smoke): run a capture with a deliberately tiny memory budget, a
// fast controller, and slow application callbacks so memory pressure builds
// for real, then require /debug/ctlplane to show the controller reacted (a
// recorded decision and a control-plane flight record).
func runCtlplaneSmoke() error {
	h, err := scap.Create(scap.Config{
		Queues:     2,
		MemorySize: 2 << 20, // tiny: ~2 MiB so the replay overloads it
		Sketch:     scap.SketchConfig{Enabled: true},
		Control: scap.ControlConfig{
			Enabled:       true,
			Interval:      2 * time.Millisecond,
			EnterFraction: 0.5,
			ExitFraction:  0.3,
			Cooldown:      10 * time.Millisecond,
			HoldTicks:     2,
			CutoffStart:   64 << 10,
			CutoffFloor:   16 << 10,
		},
	})
	if err != nil {
		return err
	}
	// Slow consumers: each data callback holds its chunk (and arena block)
	// for a while, so in-flight memory accumulates ahead of the replay.
	h.DispatchData(func(sd *scap.Stream) { time.Sleep(200 * time.Microsecond) })
	if err := h.StartCapture(); err != nil {
		return err
	}
	srv, err := h.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	gen := trace.ConcurrentStreamsWorkload(3, 400, 64, 60, 1460)
	if err := h.ReplaySource(gen, 1e9); err != nil {
		return err
	}

	// The controller runs on the wall clock; give it a few intervals to
	// observe the tail of the episode before scraping.
	var cs ctlplane.Snapshot
	deadline := time.Now().Add(2 * time.Second)
	for {
		cs = ctlplane.Snapshot{}
		if err := fetchJSON(srv.Addr(), "/debug/ctlplane", &cs); err != nil {
			return err
		}
		if len(cs.Decisions) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !cs.Enabled {
		return fmt.Errorf("/debug/ctlplane reports controller disabled")
	}
	if cs.Ticks == 0 {
		return fmt.Errorf("controller never ticked")
	}
	if len(cs.Decisions) == 0 {
		return fmt.Errorf("no control decisions after overload replay (mode=%s mem=%.2f arena=%.2f)",
			cs.Mode, cs.MemFraction, cs.ArenaFraction)
	}
	var tightened bool
	for _, d := range cs.Decisions {
		if d.Action == "tighten" {
			tightened = true
		}
	}
	if !tightened {
		return fmt.Errorf("controller decided %d times but never tightened: %+v", len(cs.Decisions), cs.Decisions)
	}

	// The same decisions must be visible in the flight recorder.
	var dump metrics.FlightDump
	if err := fetchJSON(srv.Addr(), "/debug/flight", &dump); err != nil {
		return fmt.Errorf("/debug/flight: %v", err)
	}
	var ctlRecords int
	for _, r := range dump.Records {
		if strings.HasPrefix(r.KindName, "ctl_") {
			ctlRecords++
		}
	}
	if ctlRecords == 0 {
		return fmt.Errorf("no ctl_* flight records among %d records", len(dump.Records))
	}
	fmt.Print(renderCtlplane(&cs))
	if err := h.Close(); err != nil {
		return err
	}
	fmt.Printf("ctlplane-smoke OK: decisions=%d ctl flight records=%d mode=%s\n",
		len(cs.Decisions), ctlRecords, cs.Mode)
	return nil
}

// runStreamsSmoke is the CI stream-journal end-to-end check (make
// streams-smoke): run a cutoff-heavy capture with the sampler effectively
// off (a huge stride), so every journal that appears must have been promoted
// by an anomaly, then require /debug/streams to carry a cutoff-promoted
// journal, the chrome export to carry one named track per journal, and
// /debug/history to accumulate points for the sparklines. When
// SCAP_STREAMS_TRACE_OUT names a file, the Perfetto-loadable chrome export
// is written there (the CI artifact).
func runStreamsSmoke() error {
	h, err := scap.Create(scap.Config{
		Queues:     2,
		MemorySize: 64 << 20,
		Streams:    scap.StreamsConfig{SampleEvery: 1 << 20},
		History:    scap.HistoryConfig{Interval: 20 * time.Millisecond},
	})
	if err != nil {
		return err
	}
	// Most generated flows exceed this, so cutoff promotions are guaranteed.
	if err := h.SetCutoff(512); err != nil {
		return err
	}
	h.DispatchData(func(sd *scap.Stream) {})
	if err := h.StartCapture(); err != nil {
		return err
	}
	srv, err := h.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	gen := trace.ConcurrentStreamsWorkload(4, 200, 16, 40, 1460)
	if err := h.ReplaySource(gen, 1e9); err != nil {
		return err
	}

	// The history ring samples on the wall clock; give it a couple of
	// intervals so the sparklines have something to draw. Close stops it,
	// so this wait comes first.
	var hd metrics.HistoryDump
	deadline := time.Now().Add(2 * time.Second)
	for {
		hd = metrics.HistoryDump{}
		if err := fetchJSON(srv.Addr(), "/debug/history", &hd); err != nil {
			return err
		}
		if len(hd.Points) >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(hd.Points) < 2 {
		return fmt.Errorf("history ring never accumulated points")
	}
	// Close joins the engines, so the journal dump and its chrome export
	// below see the same, final pool; the debug server outlives the Handle.
	if err := h.Close(); err != nil {
		return err
	}

	var sd streamscope.Dump
	if err := fetchJSON(srv.Addr(), "/debug/streams", &sd); err != nil {
		return err
	}
	if len(sd.Journals) == 0 || sd.Anomalies == 0 {
		return fmt.Errorf("no anomaly-promoted journals after cutoff-heavy replay: %d journals, %d anomalies",
			len(sd.Journals), sd.Anomalies)
	}
	var cutoffJournals int
	for i := range sd.Journals {
		js := &sd.Journals[i]
		if js.Sampled {
			return fmt.Errorf("journal %s claims sampler origin under a 1-in-%d stride", js.Key, 1<<20)
		}
		for _, a := range js.Anomalies {
			if a == "cutoff" {
				cutoffJournals++
				break
			}
		}
	}
	if cutoffJournals == 0 {
		return fmt.Errorf("no cutoff-promoted journal among %d journals", len(sd.Journals))
	}

	body, err := fetchBody(srv.Addr(), "/debug/streams?format=chrome")
	if err != nil {
		return err
	}
	var tr metrics.ChromeTrace
	if err := json.Unmarshal(body, &tr); err != nil {
		return fmt.Errorf("parse chrome streams trace: %v", err)
	}
	var tracks, events int
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name":
			tracks++
			if name, _ := ev.Args["name"].(string); !strings.HasPrefix(name, "stream ") {
				return fmt.Errorf("track name %q lacks stream prefix", name)
			}
		case ev.Ph == "i" || ev.Ph == "X":
			events++
			if ev.TS < 0 {
				return fmt.Errorf("negative trace timestamp: %+v", ev)
			}
		}
	}
	if tracks != len(sd.Journals) || events == 0 {
		return fmt.Errorf("chrome export shape: %d named tracks (want %d), %d events",
			tracks, len(sd.Journals), events)
	}
	if out := os.Getenv("SCAP_STREAMS_TRACE_OUT"); out != "" {
		if err := os.WriteFile(out, body, 0o644); err != nil {
			return fmt.Errorf("write trace artifact: %v", err)
		}
		fmt.Printf("streams-smoke: wrote chrome trace artifact to %s (%d bytes)\n", out, len(body))
	}

	fmt.Print(renderStreams(&sd))
	fmt.Print(renderHistory(&hd))
	fmt.Printf("streams-smoke OK: journals=%d (cutoff-promoted %d), chrome tracks=%d events=%d, history points=%d\n",
		len(sd.Journals), cutoffJournals, tracks, events, len(hd.Points))
	return nil
}
