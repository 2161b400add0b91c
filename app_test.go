package scap

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"scap/internal/trace"
)

// TestMultipleApplicationsShareCapture exercises §5.6: two apps with
// different filters and cutoffs share one socket; the kernel keeps the
// union (largest cutoff, streams matching either filter) and each app sees
// only its own subset.
func TestMultipleApplicationsShareCapture(t *testing.T) {
	h, err := Create(Config{Queues: 2})
	if err != nil {
		t.Fatal(err)
	}

	web, err := h.NewApp("web-monitor")
	if err != nil {
		t.Fatal(err)
	}
	if err := web.SetFilter("port 80"); err != nil {
		t.Fatal(err)
	}
	if err := web.SetCutoff(100); err != nil {
		t.Fatal(err)
	}

	mail, err := h.NewApp("mail-monitor")
	if err != nil {
		t.Fatal(err)
	}
	if err := mail.SetFilter("port 25"); err != nil {
		t.Fatal(err)
	}
	if err := mail.SetCutoff(CutoffUnlimited); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	webBytes := map[uint64]int{}
	mailBytes := map[uint64]int{}
	var webWrongPort, mailWrongPort bool
	web.DispatchData(func(sd *Stream) {
		mu.Lock()
		defer mu.Unlock()
		if sd.Key().SrcPort != 80 && sd.Key().DstPort != 80 {
			webWrongPort = true
		}
		webBytes[sd.ID()] += len(sd.Data)
	})
	mail.DispatchData(func(sd *Stream) {
		mu.Lock()
		defer mu.Unlock()
		if sd.Key().SrcPort != 25 && sd.Key().DstPort != 25 {
			mailWrongPort = true
		}
		mailBytes[sd.ID()] += len(sd.Data)
	})
	var webTerms, mailTerms int
	web.DispatchTermination(func(sd *Stream) { mu.Lock(); webTerms++; mu.Unlock() })
	mail.DispatchTermination(func(sd *Stream) { mu.Lock(); mailTerms++; mu.Unlock() })

	if err := h.StartCapture(); err != nil {
		t.Fatal(err)
	}
	gen := trace.NewGenerator(trace.GenConfig{
		Seed: 31, Flows: 60, Concurrency: 8, TCPFraction: 1,
		MinFlowBytes: 1000, MaxFlowBytes: 20000,
		ServerPorts: []trace.PortWeight{
			{Port: 80, Weight: 0.4}, {Port: 25, Weight: 0.3}, {Port: 443, Weight: 0.3},
		},
	})
	if err := h.ReplaySource(gen, 1e9); err != nil {
		t.Fatal(err)
	}
	h.Close()

	mu.Lock()
	defer mu.Unlock()
	if webWrongPort || mailWrongPort {
		t.Error("an app received a stream outside its filter")
	}
	if len(webBytes) == 0 || len(mailBytes) == 0 {
		t.Fatalf("apps starved: web=%d mail=%d streams", len(webBytes), len(mailBytes))
	}
	for id, n := range webBytes {
		if n > 100 {
			t.Errorf("web app stream %d got %d bytes beyond its 100-byte cutoff", id, n)
		}
	}
	// The mail app is uncut: it must see large streams in full.
	maxMail := 0
	for _, n := range mailBytes {
		if n > maxMail {
			maxMail = n
		}
	}
	if maxMail <= 100 {
		t.Errorf("mail app max stream %d bytes — union cutoff not applied in kernel", maxMail)
	}
	if webTerms == 0 || mailTerms == 0 {
		t.Error("termination events missing for apps")
	}
	// 443-only streams matched neither filter: the kernel discarded them.
	stats, _ := h.GetStats()
	if stats.Packets == 0 {
		t.Error("no packets processed")
	}
}

// TestAppCutoffByStreamPosition checks that an app cutoff is a stream
// position: with 256-byte chunks and a 32-byte overlap, an app with cutoff
// 300 receives exactly stream bytes [0, 300) — the overlap tail repeated at
// the head of each chunk does not count against the cutoff twice — while an
// uncut app on the same socket receives the whole stream.
func TestAppCutoffByStreamPosition(t *testing.T) {
	h, err := Create(Config{Queues: 1})
	if err != nil {
		t.Fatal(err)
	}
	h.SetParameter(ParamChunkSize, 256)
	h.SetParameter(ParamOverlapSize, 32)
	stream := randomPayload(7, 2000)
	var mu sync.Mutex
	// covered[name][i] counts deliveries of stream byte i to that app.
	covered := map[string][]int{}
	var bad []string
	for _, cfg := range []struct {
		name   string
		cutoff int64
	}{{"cut300", 300}, {"uncut", CutoffUnlimited}} {
		a, err := h.NewApp(cfg.name)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.SetCutoff(cfg.cutoff); err != nil {
			t.Fatal(err)
		}
		cov := make([]int, len(stream))
		covered[cfg.name] = cov
		a.DispatchData(func(sd *Stream) {
			mu.Lock()
			defer mu.Unlock()
			if sd.Key().DstPort != 80 {
				return
			}
			off := bytes.Index(stream, sd.Data)
			if len(sd.Data) == 0 || off < 0 {
				bad = append(bad, fmt.Sprintf("%s: %d delivered bytes are not a slice of the stream", a.Name(), len(sd.Data)))
				return
			}
			for i := off; i < off+len(sd.Data); i++ {
				cov[i]++
			}
		})
	}
	if err := h.StartCapture(); err != nil {
		t.Fatal(err)
	}
	injectClientStream(t, h, 41001, stream)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, b := range bad {
		t.Error(b)
	}
	for name, want := range map[string]int{"cut300": 300, "uncut": len(stream)} {
		got := 0
		for got < len(stream) && covered[name][got] > 0 {
			got++
		}
		extra := 0
		for _, n := range covered[name][got:] {
			if n > 0 {
				extra++
			}
		}
		if got != want || extra != 0 {
			t.Errorf("%s received stream bytes [0, %d) plus %d bytes beyond, want exactly [0, %d)", name, got, extra, want)
		}
	}
}

func TestAppUnfilteredDisablesKernelFilter(t *testing.T) {
	h, _ := Create(Config{Queues: 1})
	all, _ := h.NewApp("see-everything")
	var mu sync.Mutex
	ports := map[uint16]bool{}
	all.DispatchTermination(func(sd *Stream) {
		mu.Lock()
		ports[sd.Key().DstPort] = true
		ports[sd.Key().SrcPort] = true
		mu.Unlock()
	})
	filtered, _ := h.NewApp("web-only")
	filtered.SetFilter("port 80")

	h.StartCapture()
	gen := trace.NewGenerator(trace.GenConfig{
		Seed: 32, Flows: 30, Concurrency: 4, TCPFraction: 1,
		MinFlowBytes: 500, MaxFlowBytes: 2000,
		ServerPorts: []trace.PortWeight{{Port: 80, Weight: 0.5}, {Port: 9999, Weight: 0.5}},
	})
	h.ReplaySource(gen, 1e9)
	h.Close()
	mu.Lock()
	defer mu.Unlock()
	if !ports[9999] {
		t.Error("unfiltered app did not see non-web streams — kernel filter too narrow")
	}
}

func TestNewAppAfterStartFails(t *testing.T) {
	h, _ := Create(Config{Queues: 1})
	h.StartCapture()
	defer h.Close()
	if _, err := h.NewApp("late"); err != ErrStarted {
		t.Errorf("err = %v, want ErrStarted", err)
	}
}
