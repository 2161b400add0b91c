package mem

import "testing"

func BenchmarkAdmitUncontended(b *testing.B) {
	m := New(Config{Size: 1 << 30, Priorities: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if admit(m, 1, 0, 1024) == Admit {
			m.Release(1024)
		}
	}
}

// BenchmarkMemAdmitParallel contends Decide/Reserve/Release across
// GOMAXPROCS — the per-packet PPL decision every core makes against the one
// shared Manager.
func BenchmarkMemAdmitParallel(b *testing.B) {
	m := New(Config{Size: 1 << 30, Priorities: 2})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if admit(m, 1, 0, 1460) == Admit {
				m.Release(1460)
			}
		}
	})
}

func BenchmarkDecideUnderPressure(b *testing.B) {
	m := New(Config{Size: 1 << 20, BaseThreshold: 0.5, Priorities: 4, OverloadCutoff: 1 << 14})
	m.Reserve(900 << 10) // ~86%: inside the watermark region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decide(i&3, int64(i)<<6, 1460)
	}
}
