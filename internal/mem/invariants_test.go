package mem

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentAccountingInvariants hammers Decide/Reserve/Release from
// several goroutines while a sampler watches the accounting invariants: Used never goes negative, HighWater only moves up, and once
// every reservation has been released the budget is exactly back to zero.
func TestConcurrentAccountingInvariants(t *testing.T) {
	m := New(Config{Size: 1 << 20, Priorities: 4})
	const workers = 8
	const opsPer = 5000

	stop := make(chan struct{})
	var samplerWg sync.WaitGroup
	samplerWg.Add(1)
	go func() {
		defer samplerWg.Done()
		var lastHW int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if u := m.Used(); u < 0 {
				t.Errorf("Used = %d, went negative", u)
				return
			}
			if hw := m.Stats().HighWater; hw < lastHW {
				t.Errorf("HighWater moved backwards: %d -> %d", lastHW, hw)
				return
			} else {
				lastHW = hw
			}
		}
	}()

	var admits atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPer; i++ {
				size := 1 + r.Intn(4096)
				if r.Intn(2) == 0 {
					if admit(m, r.Intn(4), int64(r.Intn(1<<20)), size) == Admit {
						admits.Add(1)
						m.Release(size)
					}
				} else {
					// Reserve is unconditional; it must always be paired
					// with a release regardless of the over-budget report.
					m.Reserve(size)
					m.Release(size)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	samplerWg.Wait()

	if u := m.Used(); u != 0 {
		t.Errorf("Used = %d after balanced releases, want 0", u)
	}
	st := m.Stats()
	if st.Admitted != admits.Load() {
		t.Errorf("Stats.Admitted = %d, want %d", st.Admitted, admits.Load())
	}
	if st.HighWater <= 0 {
		t.Errorf("HighWater = %d, want > 0", st.HighWater)
	}
}
