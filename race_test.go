package scap

import (
	"sync"
	"testing"
	"time"
)

// TestGetStatsDuringInjection polls Handle.GetStats from separate
// goroutines while frames are being injected. Under `go test -race` this
// exercises the cross-goroutine snapshot paths — Engine.Stats (atomic
// counters), NIC.Stats (mutex), and the memory manager — and fails if any
// of them regresses to an unsynchronized read (e.g. reverting Engine.Stats
// to `return e.stats` with plain counter fields). Each poller also checks
// that the monotone counters never go backwards between its successive
// snapshots, which a torn or misattributed read would break.
func TestGetStatsDuringInjection(t *testing.T) {
	h, err := Create(Config{Queues: 2, UseFDIR: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetCutoff(4 << 10); err != nil {
		t.Fatal(err)
	}
	h.DispatchData(func(sd *Stream) {})
	if err := h.StartCapture(); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev Stats
			for {
				select {
				case <-done:
					return
				default:
				}
				st, err := h.GetStats()
				if err != nil {
					t.Errorf("GetStats: %v", err)
					return
				}
				if st.Packets < prev.Packets || st.PayloadBytes < prev.PayloadBytes || st.FramesReceived < prev.FramesReceived {
					t.Errorf("counters went backwards: packets %d→%d, payload %d→%d, frames %d→%d",
						prev.Packets, st.Packets, prev.PayloadBytes, st.PayloadBytes, prev.FramesReceived, st.FramesReceived)
					return
				}
				prev = st
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}

	gen := smallGen(7, 60)
	if err := h.ReplaySource(gen, 1e9); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := h.GetStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesReceived == 0 || st.StreamsCreated == 0 {
		t.Errorf("workload did not run: frames=%d streams=%d", st.FramesReceived, st.StreamsCreated)
	}
}

// TestConcurrentInjectors drives InjectFrame from several goroutines at
// once while a poller reads statistics: the injectMu clock serialization
// and the NIC mutex are both on the line under -race.
func TestConcurrentInjectors(t *testing.T) {
	h, err := Create(Config{Queues: 2})
	if err != nil {
		t.Fatal(err)
	}
	h.DispatchData(func(sd *Stream) {})
	if err := h.StartCapture(); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := h.GetStats(); err != nil {
				t.Errorf("GetStats: %v", err)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen := smallGen(int64(100+g), 10)
			ts := int64(g) * int64(time.Millisecond)
			for {
				frame := gen.Next()
				if frame == nil {
					return
				}
				ts += int64(time.Microsecond)
				// The generator yields a fresh frame each Next (InjectFrame
				// takes ownership without copying) and the socket clock bumps
				// non-increasing timestamps, so concurrent injectors are fine.
				if err := h.InjectFrame(frame, ts); err != nil {
					t.Errorf("InjectFrame: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	pollWG.Wait()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}
