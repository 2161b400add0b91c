package mem

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// drainAll allocates until the arena reports exhaustion, returning every
// handle it got. Used to count how many blocks are reachable.
func drainAll(t *testing.T, m *Manager, core int) []Handle {
	t.Helper()
	var hs []Handle
	for {
		h, store := m.AllocBlock(core)
		if h == NoBlock {
			return hs
		}
		if len(store) != m.BlockSize() {
			t.Fatalf("block %d storage %d bytes, want %d", h, len(store), m.BlockSize())
		}
		hs = append(hs, h)
		if len(hs) > m.Blocks() {
			t.Fatalf("allocated %d blocks from an arena of %d", len(hs), m.Blocks())
		}
	}
}

// drainAllCores empties every core's free-list (a block parked in one
// core's cache is deliberately not reachable from another), verifying the
// arena's total block count survives whatever churn preceded the call.
func drainAllCores(t *testing.T, m *Manager, cores int) []Handle {
	t.Helper()
	var hs []Handle
	for core := 0; core < cores; core++ {
		hs = append(hs, drainAll(t, m, core)...)
	}
	return hs
}

// TestArenaNoDoubleHandout drives random alloc/free sequences across cores
// (testing/quick supplies the scripts) and asserts the allocator never
// hands out a block that is still outstanding.
func TestArenaNoDoubleHandout(t *testing.T) {
	const cores = 3
	f := func(script []uint16) bool {
		m := New(Config{Size: 32 * 1024, BlockSize: 1024, Cores: cores})
		out := make(map[Handle]int) // handle -> owning core
		var order []Handle          // insertion order, for deterministic frees
		for _, op := range script {
			core := int(op) % cores
			if op%3 != 0 && len(order) > 0 {
				// Free (or worker-return) the oldest outstanding block.
				h := order[0]
				order = order[1:]
				if op%2 == 0 {
					m.FreeBlock(out[h], h)
				} else {
					m.ReturnBlocks(out[h], []Handle{h})
				}
				delete(out, h)
				continue
			}
			h, _ := m.AllocBlock(core)
			if h == NoBlock {
				continue // exhaustion is legal; double hand-out is not
			}
			if _, dup := out[h]; dup {
				t.Logf("block %d handed out twice", h)
				return false
			}
			out[h] = core
			order = append(order, h)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestArenaRefillSpillConservation checks that arbitrary alloc/free churn —
// including the per-core cache refill and spill paths against the global
// pool — neither creates nor loses blocks: after everything is freed, the
// arena hands out exactly its full block count again.
func TestArenaRefillSpillConservation(t *testing.T) {
	const cores = 2
	f := func(script []uint8, seed int64) bool {
		m := New(Config{Size: 64 * 1024, BlockSize: 1024, Cores: cores})
		total := m.Blocks()
		rng := rand.New(rand.NewSource(seed))
		type owned struct {
			h    Handle
			core int
		}
		var out []owned
		for _, op := range script {
			core := int(op) % cores
			switch {
			case op%4 == 0 && len(out) > 0:
				i := rng.Intn(len(out))
				m.FreeBlock(out[i].core, out[i].h)
				out[i] = out[len(out)-1]
				out = out[:len(out)-1]
			case op%4 == 1 && len(out) > 0:
				i := rng.Intn(len(out))
				m.ReturnBlocks(out[i].core, []Handle{out[i].h})
				out[i] = out[len(out)-1]
				out = out[:len(out)-1]
			default:
				if h, _ := m.AllocBlock(core); h != NoBlock {
					out = append(out, owned{h, core})
				}
			}
		}
		if got := int(m.BlocksInUse()); got != len(out) {
			t.Logf("BlocksInUse %d, outstanding %d", got, len(out))
			return false
		}
		for _, o := range out {
			m.FreeBlock(o.core, o.h)
		}
		if got := m.BlocksInUse(); got != 0 {
			t.Logf("BlocksInUse %d after freeing everything", got)
			return false
		}
		hs := drainAllCores(t, m, cores)
		if len(hs) != total {
			t.Logf("recovered %d blocks, want %d", len(hs), total)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestArenaExhaustion pins the exhaustion contract: a fully drained arena
// answers NoBlock (and a nil store), and freeing any block makes the next
// allocation succeed again.
func TestArenaExhaustion(t *testing.T) {
	m := New(Config{Size: 8 * 1024, BlockSize: 1024, Cores: 1})
	hs := drainAll(t, m, 0)
	if len(hs) != m.Blocks() {
		t.Fatalf("drained %d blocks, arena has %d", len(hs), m.Blocks())
	}
	if h, store := m.AllocBlock(0); h != NoBlock || store != nil {
		t.Fatalf("exhausted arena returned handle %d store %d bytes", h, len(store))
	}
	m.FreeBlock(0, hs[0])
	if h, _ := m.AllocBlock(0); h == NoBlock {
		t.Fatal("allocation still failing after a free")
	}
}

// TestArenaOutOfRangeCore exercises the shared (cache-less) path used by
// callers outside the configured core range: it must be safe and conserve
// blocks like any other.
func TestArenaOutOfRangeCore(t *testing.T) {
	m := New(Config{Size: 8 * 1024, BlockSize: 1024, Cores: 1})
	h, store := m.AllocBlock(99)
	if h == NoBlock || len(store) != 1024 {
		t.Fatalf("out-of-range core alloc: handle %d store %d", h, len(store))
	}
	m.FreeBlock(99, h)
	if got := m.BlocksInUse(); got != 0 {
		t.Fatalf("BlocksInUse %d after free", got)
	}
}

// TestArenaConcurrentLifecycle reproduces the capture topology under -race:
// per core, one "engine" goroutine allocating and freeing (the single
// writer of the core's cache) and one "worker" goroutine returning consumed
// blocks through the SPSC ring, with a per-block owner bit catching any
// double hand-out across the whole arena.
func TestArenaConcurrentLifecycle(t *testing.T) {
	const cores = 4
	const opsPer = 20000
	m := New(Config{Size: 1 << 20, BlockSize: 4096, Cores: cores})
	owner := make([]int32, m.Blocks()+1) // 1-indexed by handle

	var wg sync.WaitGroup
	for core := 0; core < cores; core++ {
		ch := make(chan Handle, 256)
		wg.Add(2)
		// Engine: allocates, hands some blocks to the worker, frees the rest.
		go func(core int, ch chan<- Handle) {
			defer wg.Done()
			defer close(ch)
			rng := rand.New(rand.NewSource(int64(core)))
			var held []Handle
			for i := 0; i < opsPer; i++ {
				h, _ := m.AllocBlock(core)
				if h != NoBlock {
					if owner[h] != 0 {
						// Racy read is fine: any non-zero observation means
						// two goroutines held the block at once.
						t.Errorf("core %d: block %d already owned", core, h)
						return
					}
					owner[h] = int32(core + 1)
					held = append(held, h)
				}
				if len(held) > 0 && rng.Intn(2) == 0 {
					h := held[len(held)-1]
					held = held[:len(held)-1]
					owner[h] = 0
					if rng.Intn(2) == 0 {
						m.FreeBlock(core, h)
					} else {
						ch <- h
					}
				}
			}
			for _, h := range held {
				owner[h] = 0
				m.FreeBlock(core, h)
			}
		}(core, ch)
		// Worker: batches consumed blocks back to the core's return ring.
		go func(core int, ch <-chan Handle) {
			defer wg.Done()
			var batch []Handle
			for h := range ch {
				batch = append(batch, h)
				if len(batch) == 16 {
					m.ReturnBlocks(core, batch)
					batch = batch[:0]
				}
			}
			m.ReturnBlocks(core, batch)
		}(core, ch)
	}
	wg.Wait()
	if got := m.BlocksInUse(); got != 0 {
		t.Fatalf("BlocksInUse %d after all goroutines released everything", got)
	}
	if hs := drainAllCores(t, m, cores); len(hs) != m.Blocks() {
		t.Fatalf("recovered %d blocks, want %d", len(hs), m.Blocks())
	}
}
