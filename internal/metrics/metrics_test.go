package metrics

import (
	"fmt"
	"sync"
	"testing"
)

func TestCounterPerCoreTotals(t *testing.T) {
	r := NewRegistry(4)
	c := r.NewCounter(Desc{Name: "packets_total", Unit: "packets"})
	for core := 0; core < 4; core++ {
		cell := c.Cell(core)
		for i := 0; i <= core; i++ {
			cell.Inc()
		}
	}
	if got := c.Total(); got != 1+2+3+4 {
		t.Fatalf("Total = %d, want 10", got)
	}
	pc := c.PerCore(nil)
	want := []uint64{1, 2, 3, 4}
	for i, v := range want {
		if pc[i] != v {
			t.Fatalf("PerCore = %v, want %v", pc, want)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry(1)
	r.NewCounter(Desc{Name: "x"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewGauge(Desc{Name: "x"})
}

// TestRegistryConcurrency hammers cells, gauges, histograms, and the flight
// recorder from many goroutines while another takes snapshots; the -race run is
// the real assertion.
func TestRegistryConcurrency(t *testing.T) {
	const cores = 4
	const iters = 2000
	r := NewRegistry(cores)
	c := r.NewCounter(Desc{Name: "frames_total"})
	g := r.NewGauge(Desc{Name: "inflight"})
	h := r.NewHistogram(Desc{Name: "batch"}, 8)
	var wg sync.WaitGroup
	for core := 0; core < cores; core++ {
		wg.Add(1)
		go func(core int) {
			defer wg.Done()
			cell := c.Cell(core)
			for i := 0; i < iters; i++ {
				cell.Add(2)
				g.Add(1)
				h.Observe(core, uint64(i%300))
				if i%512 == 0 {
					r.Flight().Note(core, FlightNICRingFull, 0, 0)
				}
			}
		}(core)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	s := r.Snapshot()
	if got := s.CounterTotal("frames_total"); got != cores*iters*2 {
		t.Fatalf("frames_total = %d, want %d", got, cores*iters*2)
	}
	if got := s.GaugeValue("inflight"); got != cores*iters {
		t.Fatalf("inflight = %d, want %d", got, cores*iters)
	}
	var hcount uint64
	for _, hs := range s.Histograms {
		if hs.Name == "batch" {
			hcount = hs.Count
		}
	}
	if hcount != cores*iters {
		t.Fatalf("histogram count = %d, want %d", hcount, cores*iters)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram(Desc{Name: "h"}, 2, 4) // le 1,2,4,8,16 + overflow
	for i, v := range []uint64{0, 1, 2, 3, 4, 5, 16, 17, 1000} {
		h.Observe(i%2, v) // spread over both rows; snapshot must merge them
	}
	s := h.snapshot()
	if s.Count != 9 {
		t.Fatalf("count = %d, want 9", s.Count)
	}
	if s.Sum != 0+1+2+3+4+5+16+17+1000 {
		t.Fatalf("sum = %d", s.Sum)
	}
	wantLe := []uint64{1, 2, 4, 8, 16, 0}
	wantN := []uint64{2, 1, 2, 1, 1, 2} // {0,1} {2} {3,4} {5} {16} {17,1000}
	if len(s.Buckets) != len(wantLe) {
		t.Fatalf("buckets = %d, want %d", len(s.Buckets), len(wantLe))
	}
	for i := range wantLe {
		if s.Buckets[i].Le != wantLe[i] || s.Buckets[i].Count != wantN[i] {
			t.Fatalf("bucket %d = {le:%d n:%d}, want {le:%d n:%d}",
				i, s.Buckets[i].Le, s.Buckets[i].Count, wantLe[i], wantN[i])
		}
	}
}

// TestFlightKindStrings: every flight kind has a unique wire name, and
// every overload occurrence kind the capture path records (PPL edges, NIC
// ring-full episodes, event-ring overflow, FDIR churn) is among them.
func TestFlightKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := FlightKind(0); int(k) < len(flightKindNames); k++ {
		s := k.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Fatalf("kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	for _, name := range []string{"ppl_enter", "ppl_exit", "nic_ring_full", "nic_ring_recover",
		"event_ring_overflow", "fdir_install", "fdir_remove"} {
		if !seen[name] {
			t.Errorf("no flight kind named %q", name)
		}
	}
	if FlightKind(200).String() != "unknown" {
		t.Fatal("out-of-range kind should stringify as unknown")
	}
}

func TestSlabExhaustionPanics(t *testing.T) {
	r := NewRegistry(1)
	for i := 0; i < slabSlots; i++ {
		r.NewCounter(Desc{Name: fmt.Sprintf("c%d", i)})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("slab exhaustion did not panic")
		}
	}()
	r.NewCounter(Desc{Name: "one_too_many"})
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry(1)
	v := uint64(7)
	r.NewCounterFunc(Desc{Name: "ext_total"}, func() uint64 { return v })
	r.NewGaugeFunc(Desc{Name: "ext_now"}, func() int64 { return int64(v) * 2 })
	s := r.Snapshot()
	if s.CounterTotal("ext_total") != 7 || s.GaugeValue("ext_now") != 14 {
		t.Fatalf("func metrics: counter=%d gauge=%d", s.CounterTotal("ext_total"), s.GaugeValue("ext_now"))
	}
}
