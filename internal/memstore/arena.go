// Package memstore is DrTM+R's memory store layer (§6.3): a general
// key-value interface over per-machine battery-backed memory, offered in two
// flavours — an RDMA-friendly unordered hash store used for remote-capable
// tables (from DrTM), and an ordered B+-tree store for local range scans
// (from DBX). Records carry the DrTM+R metadata layout of Fig 3.
package memstore

import (
	"fmt"
	"sync"

	"drtmr/internal/htm"
	"drtmr/internal/sim"
)

// Arena is a cacheline-granular allocator over one machine's registered
// memory region. Allocation is a bump pointer plus per-size-class free
// lists, which is all an OLTP store with fixed-size records needs.
//
// Offsets handed out are stable for the life of the machine — they are the
// RDMA addresses remote machines cache — so the arena never compacts.
type Arena struct {
	eng *htm.Engine

	mu    sync.Mutex
	next  uint64
	limit uint64
	free  map[int][]uint64 // size class (bytes) -> free offsets
}

// NewArena creates an allocator over eng's memory, starting at startOff
// (the region below is reserved by the caller for fixed infrastructure like
// heartbeat words and log rings).
func NewArena(eng *htm.Engine, startOff uint64) *Arena {
	start := uint64(sim.AlignUp(int(startOff)))
	if start == 0 {
		// Offset 0 is the null sentinel throughout the store (hash
		// chain terminators, unresolved record locations), so the
		// first cacheline is never handed out.
		start = sim.CachelineSize
	}
	return &Arena{
		eng:   eng,
		next:  start,
		limit: uint64(eng.Size()),
		free:  make(map[int][]uint64),
	}
}

// Alloc returns a cacheline-aligned offset for n bytes (rounded up to whole
// cachelines). It panics on exhaustion: the simulated NVRAM is sized by the
// experiment configuration, and running out is a setup bug, not a runtime
// condition to paper over.
func (a *Arena) Alloc(n int) uint64 {
	size := sim.AlignUp(n)
	a.mu.Lock()
	defer a.mu.Unlock()
	if list := a.free[size]; len(list) > 0 {
		off := list[len(list)-1]
		a.free[size] = list[:len(list)-1]
		return off
	}
	if a.next+uint64(size) > a.limit {
		panic(fmt.Sprintf("memstore: arena exhausted (need %d, used %d of %d)",
			size, a.next, a.limit))
	}
	off := a.next
	a.next += uint64(size)
	return off
}

// Zero clears n bytes at off non-transactionally (for freshly allocated
// blocks before they are published).
func (a *Arena) Zero(off uint64, n int) {
	mem := a.eng.Mem()
	for i := 0; i < n; i++ {
		mem[off+uint64(i)] = 0
	}
}

// Free returns a block to its size class.
func (a *Arena) Free(off uint64, n int) {
	size := sim.AlignUp(n)
	a.mu.Lock()
	a.free[size] = append(a.free[size], off)
	a.mu.Unlock()
}
