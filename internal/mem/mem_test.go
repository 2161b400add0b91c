package mem

import (
	"math/rand"
	"testing"
)

// admit is the engine's admission sequence: a PPL decision, then a
// reservation of the stored bytes when the packet is admitted.
func admit(m *Manager, priority int, streamPos int64, size int) Decision {
	d := m.Decide(priority, streamPos, size)
	if d == Admit {
		m.Reserve(size)
	}
	return d
}

func TestAdmitBelowBaseThreshold(t *testing.T) {
	m := New(Config{Size: 1000, BaseThreshold: 0.9, Priorities: 2, OverloadCutoff: 10})
	// Below base threshold everything is admitted, even beyond the
	// overload cutoff and at the lowest priority.
	for i := 0; i < 8; i++ {
		if d := admit(m, 0, 1<<20, 100); d != Admit {
			t.Fatalf("admission %d = %v", i, d)
		}
	}
	if m.Used() != 800 {
		t.Errorf("used = %d", m.Used())
	}
}

func TestWatermarkSpacing(t *testing.T) {
	m := New(Config{Size: 1000, BaseThreshold: 0.8, Priorities: 4})
	want := []float64{0.85, 0.9, 0.95, 1.0}
	for p, w := range want {
		if got := m.Watermark(p); got < w-1e-9 || got > w+1e-9 {
			t.Errorf("Watermark(%d) = %v, want %v", p, got, w)
		}
	}
	// Out-of-range priorities clamp.
	if m.Watermark(99) != m.Watermark(3) || m.Watermark(-1) != m.Watermark(0) {
		t.Error("clamping broken")
	}
}

func TestLowPriorityDropsFirst(t *testing.T) {
	m := New(Config{Size: 1000, BaseThreshold: 0.5, Priorities: 2})
	// Fill to 70%: above base (50%), above low watermark (75%)? No:
	// watermark(low)=0.75, watermark(high)=1.0.
	if !m.Reserve(700) {
		t.Fatal("reserve failed")
	}
	// 700+100 = 80% > 75%: low priority drops, high admits.
	if d := admit(m, 0, 0, 100); d != DropPriority {
		t.Errorf("low-priority admission = %v, want DropPriority", d)
	}
	if d := admit(m, 1, 0, 100); d != Admit {
		t.Errorf("high-priority admission = %v, want Admit", d)
	}
}

func TestOverloadCutoffRegion(t *testing.T) {
	m := New(Config{Size: 1000, BaseThreshold: 0.5, Priorities: 1, OverloadCutoff: 4096})
	m.Reserve(600) // 60%: inside pressure region (50%..100%)
	// A packet early in its stream is admitted; one beyond the overload
	// cutoff is dropped.
	if d := admit(m, 0, 100, 50); d != Admit {
		t.Errorf("early bytes = %v", d)
	}
	if d := admit(m, 0, 8192, 50); d != DropOverloadCutoff {
		t.Errorf("late bytes = %v, want DropOverloadCutoff", d)
	}
	if s := m.Stats(); s.DroppedCutoff != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestNoMemoryDrop(t *testing.T) {
	m := New(Config{Size: 100, BaseThreshold: 0.9, Priorities: 1})
	m.Reserve(100)
	if d := admit(m, 0, 0, 1); d != DropNoMemory {
		t.Errorf("decision = %v, want DropNoMemory", d)
	}
}

func TestReleaseRestoresAdmission(t *testing.T) {
	m := New(Config{Size: 1000, BaseThreshold: 0.5, Priorities: 2})
	m.Reserve(900)
	if d := admit(m, 0, 0, 50); d != DropPriority {
		t.Fatalf("expected drop at 95%%, got %v", d)
	}
	m.Release(600) // back to 30%
	if d := admit(m, 0, 0, 50); d != Admit {
		t.Errorf("post-release decision = %v", d)
	}
}

func TestReleaseUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on underflow")
		}
	}()
	New(Config{Size: 10}).Release(1)
}

// TestPPLMonotonicity is the property test from DESIGN.md: at any occupancy,
// if a packet of priority p is admitted (ignoring cutoff), every packet of
// priority > p at the same occupancy is admitted too; and if priority p is
// dropped by watermark, every lower priority is dropped too.
func TestPPLMonotonicity(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(6)
		size := int64(1000)
		base := 0.3 + r.Float64()*0.6
		used := int64(r.Intn(1000))
		pktSize := 1 + r.Intn(50)
		results := make([]Decision, n)
		for p := 0; p < n; p++ {
			m := New(Config{Size: size, BaseThreshold: base, Priorities: n})
			m.Reserve(int(used))
			results[p] = admit(m, p, 0, pktSize)
		}
		for p := 1; p < n; p++ {
			if results[p-1] == Admit && results[p] != Admit {
				t.Fatalf("trial %d: priority %d admitted but %d dropped (used=%d base=%v n=%d): %v",
					trial, p-1, p, used, base, n, results)
			}
		}
	}
}

func TestHighestPriorityDropsOnlyWhenFull(t *testing.T) {
	m := New(Config{Size: 1000, BaseThreshold: 0.5, Priorities: 3})
	m.Reserve(999)
	// Highest priority watermark is 1.0: a packet that fits is admitted.
	if d := admit(m, 2, 0, 1); d != Admit {
		t.Errorf("decision = %v", d)
	}
	if d := admit(m, 2, 0, 1); d != DropNoMemory {
		t.Errorf("decision = %v", d)
	}
}

func TestHighWaterTracking(t *testing.T) {
	m := New(Config{Size: 1000})
	m.Reserve(400)
	m.Release(100)
	m.Reserve(50)
	if m.Stats().HighWater != 400 {
		t.Errorf("highwater = %d", m.Stats().HighWater)
	}
}

func TestDefaults(t *testing.T) {
	m := New(Config{})
	if m.Size() != 1<<30 {
		t.Errorf("default size = %d", m.Size())
	}
	if w := m.Watermark(0); w != 1.0 {
		t.Errorf("single-priority watermark = %v, want 1.0", w)
	}
}
