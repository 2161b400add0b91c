package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"scap/internal/metrics"
)

// samplePayload is a captured /metrics response shape; the parse test pins
// the wire contract between Handle.Serve and this viewer.
const samplePayload = `{
  "time_unix_nano": 1700000001000000000,
  "window_seconds": 1,
  "cores": 2,
  "counters": [
    {"name": "frames_total", "unit": "frames", "total": 1200, "per_core": [700, 500], "rate": 1200, "per_core_rate": [700, 500]},
    {"name": "packets_total", "unit": "packets", "paper": "Fig. 7 processed packets", "total": 1000, "per_core": [600, 400], "rate": 1000, "per_core_rate": [600, 400]},
    {"name": "ppl_dropped_pkts_total", "unit": "packets", "total": 50, "per_core": [30, 20], "rate": 50, "per_core_rate": [30, 20]},
    {"name": "nic_frames_total", "unit": "frames", "total": 1300, "rate": 1300},
    {"name": "flowtab_lookups_total", "unit": "lookups", "total": 2000, "per_core": [1200, 800], "rate": 2000},
    {"name": "flowtab_probe_groups_total", "unit": "groups", "total": 2100, "per_core": [1260, 840], "rate": 2100},
    {"name": "sketch_observed_pkts_total", "unit": "packets", "total": 900, "per_core": [500, 400], "rate": 900},
    {"name": "sketch_suppressed_pkts_total", "unit": "packets", "family": "drops", "cause": "sketch", "total": 333, "per_core": [200, 133], "rate": 333}
  ],
  "gauges": [
    {"name": "memory_used_bytes", "unit": "bytes", "value": 1048576},
    {"name": "memory_size_bytes", "unit": "bytes", "value": 67108864},
    {"name": "flowtab_occupancy_core0", "unit": "streams", "value": 150},
    {"name": "flowtab_capacity_core0", "unit": "slots", "value": 1024},
    {"name": "sketch_heavies_core0", "unit": "flows", "value": 5}
  ],
  "histograms": [
    {"name": "chunk_bytes", "unit": "bytes", "count": 12, "sum": 196608,
     "buckets": [{"le": 16384, "count": 10}, {"le": 0, "count": 2}]},
    {"name": "stage_ring_worker_ns", "unit": "ns", "count": 100, "sum": 6400000,
     "buckets": [{"le": 32768, "count": 40}, {"le": 65536, "count": 59}, {"le": 131072, "count": 1}, {"le": 0, "count": 0}]},
    {"name": "callback_ns", "unit": "ns", "count": 0, "buckets": [{"le": 1024, "count": 0}, {"le": 0, "count": 0}]}
  ],
  "drops": [
    {"name": "ppl_dropped_pkts_total", "unit": "packets", "family": "drops", "cause": "ppl", "total": 50, "per_core": [30, 20], "rate": 50, "per_core_rate": [30, 20]},
    {"name": "cutoff_pkts_total", "unit": "packets", "family": "drops", "cause": "cutoff", "total": 7, "per_core": [7, 0], "rate": 7}
  ]
}`

func TestParseEndpointPayload(t *testing.T) {
	p, err := metrics.ParsePayload([]byte(samplePayload))
	if err != nil {
		t.Fatal(err)
	}
	if p.Cores != 2 || p.WindowSeconds != 1 {
		t.Fatalf("header = cores %d window %v", p.Cores, p.WindowSeconds)
	}
	pk := p.Counter("packets_total")
	if pk == nil || pk.Total != 1000 || pk.Rate != 1000 {
		t.Fatalf("packets_total = %+v", pk)
	}
	if len(pk.PerCoreRate) != 2 || pk.PerCoreRate[1] != 400 {
		t.Fatalf("per-core rates = %v", pk.PerCoreRate)
	}
	if g := p.Gauge("memory_used_bytes"); g == nil || g.Value != 1<<20 {
		t.Fatalf("memory gauge = %+v", g)
	}
	if len(p.Drops) != 2 || p.Drops[0].Cause != "ppl" || p.Drops[1].Total != 7 {
		t.Fatalf("drops table = %+v", p.Drops)
	}
	if h := p.Histogram("stage_ring_worker_ns"); h == nil || h.Count != 100 {
		t.Fatalf("stage histogram = %+v", h)
	}
}

func TestRender(t *testing.T) {
	p, err := metrics.ParsePayload([]byte(samplePayload))
	if err != nil {
		t.Fatal(err)
	}
	out := render(p)
	for _, want := range []string{
		"cores 2",
		"packets",
		"1000/s",
		"memory",
		// Pipeline latency line: quantiles interpolated from the stage
		// histogram; the zero-count callback histogram is skipped.
		"ring→worker p50=37µs p99=66µs",
		// Drop-attribution table.
		"drops by cause:",
		"ppl",
		"cutoff                      7",
		// Flow-table probe-cost line: 2100/2000 groups per lookup.
		"(1.05 groups/lookup)",
		"c0=150/1024",
		// Sketch front-end line.
		"333 suppressed",
		"heavies: c0=5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	// Two per-core rows.
	if !strings.Contains(out, "\n   0  ") || !strings.Contains(out, "\n   1  ") {
		t.Errorf("render output missing per-core rows:\n%s", out)
	}
	if strings.Contains(out, "callback p50") {
		t.Errorf("zero-count callback histogram should be skipped:\n%s", out)
	}
}

// sampleFlight is a /debug/flight response shape: the overload-events block
// renders its newest records.
const sampleFlight = `{
  "time_unix_nano": 1700000001000000000, "cores": 2, "capacity_per_core": 1024, "total_recorded": 12,
  "records": [
    {"seq": 1, "time_unix_nano": 1700000000100000000, "core": 0, "kind": 7, "kind_name": "nic_ring_full", "value": 512},
    {"seq": 2, "time_unix_nano": 1700000000200000000, "core": 0, "kind": 3, "kind_name": "fdir_install", "value": 11},
    {"seq": 3, "time_unix_nano": 1700000000300000000, "core": 0, "kind": 3, "kind_name": "fdir_install", "value": 12},
    {"seq": 4, "time_unix_nano": 1700000000400000000, "core": 0, "kind": 3, "kind_name": "fdir_install", "value": 13},
    {"seq": 5, "time_unix_nano": 1700000000450000000, "core": 0, "kind": 3, "kind_name": "fdir_install", "value": 14},
    {"seq": 1, "time_unix_nano": 1700000000500000000, "core": 1, "kind": 0, "kind_name": "ppl_enter", "value": 910},
    {"seq": 6, "time_unix_nano": 1700000000550000000, "core": 0, "kind": 4, "kind_name": "fdir_remove", "value": 11},
    {"seq": 7, "time_unix_nano": 1700000000600000000, "core": 0, "kind": 4, "kind_name": "fdir_remove", "value": 12},
    {"seq": 8, "time_unix_nano": 1700000000650000000, "core": 0, "kind": 6, "kind_name": "event_ring_overflow", "value": 3},
    {"seq": 2, "time_unix_nano": 1700000000700000000, "core": 1, "kind": 1, "kind_name": "ppl_exit", "value": 200000000},
    {"seq": 9, "time_unix_nano": 1700000000800000000, "core": 0, "kind": 8, "kind_name": "nic_ring_recover", "value": 42, "aux": 250000000},
    {"seq": 10, "time_unix_nano": 1700000000900000000, "core": 0, "kind": 4, "kind_name": "fdir_remove", "value": 13}
  ]
}`

func TestRenderFlight(t *testing.T) {
	var d metrics.FlightDump
	if err := json.Unmarshal([]byte(sampleFlight), &d); err != nil {
		t.Fatal(err)
	}
	out := renderFlight(&d)
	for _, want := range []string{
		"recent overload events (last 10 of 12):",
		"ppl_enter            core=1 value=910",
		"nic_ring_recover     core=0 value=42 aux=250000000",
		"event_ring_overflow",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("renderFlight output missing %q:\n%s", want, out)
		}
	}
	// Only the newest ten records, oldest first: the two oldest drop out.
	if strings.Contains(out, "nic_ring_full ") || strings.Contains(out, "fdir_install         core=0 value=11") {
		t.Errorf("renderFlight kept records older than the newest ten:\n%s", out)
	}
	if lines := strings.Count(out, "\n  "); lines != 10 {
		t.Errorf("renderFlight drew %d records, want 10:\n%s", lines, out)
	}
	if renderFlight(&metrics.FlightDump{}) != "" {
		t.Error("an empty recorder should render nothing")
	}
}

// TestJSONOneShot covers the -json path: the raw /metrics body is passed
// through byte-for-byte (machine consumers get the server's exact payload,
// not a re-marshal).
func TestJSONOneShot(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/metrics" {
			http.NotFound(rw, req)
			return
		}
		io.WriteString(rw, samplePayload)
	}))
	defer srv.Close()

	body, err := fetchBody(strings.TrimPrefix(srv.URL, "http://"), "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != samplePayload {
		t.Fatalf("-json must print the raw payload unmodified:\n%s", body)
	}
	// What -json prints still parses as the wire format.
	if _, err := metrics.ParsePayload(body); err != nil {
		t.Fatal(err)
	}
}

// TestFetchBodyError pins the non-200 error path shared by every mode.
func TestFetchBodyError(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	if _, err := fetchBody(strings.TrimPrefix(srv.URL, "http://"), "/metrics"); err == nil {
		t.Fatal("want an error for a 404 response")
	}
}
