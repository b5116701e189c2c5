package htm

import (
	"encoding/binary"

	"drtmr/internal/sim"
)

// Non-transactional accesses model two things at once:
//
//  1. Plain CPU loads/stores outside any RTM region (fallback handlers,
//     initialization, auxiliary threads).
//  2. Incoming one-sided RDMA operations, which on the paper's hardware are
//     cache coherent with the CPU and therefore behave exactly like a remote
//     core's plain accesses with respect to RTM: they unconditionally abort
//     a conflicting hardware transaction (strong atomicity / strong
//     consistency, §2.1).
//
// Atomicity is per cacheline only: a multi-line ReadNonTx/WriteNonTx can
// observe or produce a torn view across lines. This is deliberate — it is
// precisely the hazard that forces DrTM+R's per-line version fields and
// lock-check-before-local-read (§4.3, Fig 4).

// nonTxLine performs fn on one cacheline, first aborting conflicting
// transactions. write selects the conflict rule: reads only conflict with a
// transactional writer; writes conflict with both writer and readers.
func (e *Engine) nonTxLine(lineIdx uint64, write bool, fn func()) {
	for {
		s := e.shardFor(lineIdx)
		s.mu.Lock()
		var (
			buf     [4]victim
			vs      []victim
			pending bool
		)
		if i := s.find(lineIdx); i >= 0 {
			vs, pending = s.lines[i].conflicts(nil, write, buf[:0])
		}
		if len(vs) == 0 && !pending {
			fn()
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		abortVictims(e, vs, pending)
	}
}

// ReadNonTx copies n bytes at off into buf (allocating if needed), atomically
// per cacheline.
func (e *Engine) ReadNonTx(off uint64, n int, buf []byte) []byte {
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if n == 0 {
		return buf
	}
	pos := off
	remaining := n
	outPos := 0
	for remaining > 0 {
		lineIdx := sim.LineOf(uintptr(pos))
		lineEnd := (lineIdx + 1) << sim.CachelineShift
		chunk := int(lineEnd - pos)
		if chunk > remaining {
			chunk = remaining
		}
		e.nonTxLine(lineIdx, false, func() {
			copy(buf[outPos:outPos+chunk], e.mem[pos:pos+uint64(chunk)])
		})
		pos += uint64(chunk)
		outPos += chunk
		remaining -= chunk
	}
	return buf
}

// WriteNonTx stores data at off, atomically per cacheline.
func (e *Engine) WriteNonTx(off uint64, data []byte) {
	pos := off
	inPos := 0
	remaining := len(data)
	for remaining > 0 {
		lineIdx := sim.LineOf(uintptr(pos))
		lineEnd := (lineIdx + 1) << sim.CachelineShift
		chunk := int(lineEnd - pos)
		if chunk > remaining {
			chunk = remaining
		}
		e.nonTxLine(lineIdx, true, func() {
			copy(e.mem[pos:pos+uint64(chunk)], data[inPos:inPos+chunk])
		})
		pos += uint64(chunk)
		inPos += chunk
		remaining -= chunk
	}
}

// Load64NonTx atomically reads a little-endian uint64 (must not straddle a
// cacheline; DrTM+R metadata fields never do).
func (e *Engine) Load64NonTx(off uint64) uint64 {
	var v uint64
	e.nonTxLine(sim.LineOf(uintptr(off)), false, func() {
		v = binary.LittleEndian.Uint64(e.mem[off : off+8])
	})
	return v
}

// Store64NonTx atomically writes a little-endian uint64.
func (e *Engine) Store64NonTx(off uint64, v uint64) {
	e.nonTxLine(sim.LineOf(uintptr(off)), true, func() {
		binary.LittleEndian.PutUint64(e.mem[off:off+8], v)
	})
}

// CAS64NonTx performs a compare-and-swap of the uint64 at off. It is atomic
// with respect to every engine-mediated access of that line.
//
// Callers other than the RDMA NIC must not use this: the simulated NIC
// provides only IBV_ATOMIC_HCA atomicity (RDMA atomics serialize against
// each other at the NIC, not against CPU atomics), and DrTM+R relies on that
// restriction — lock words are only ever CASed through RDMA, even for local
// records in the fallback handler (§6.2).
func (e *Engine) CAS64NonTx(off uint64, old, new uint64) (prev uint64, swapped bool) {
	e.nonTxLine(sim.LineOf(uintptr(off)), true, func() {
		prev = binary.LittleEndian.Uint64(e.mem[off : off+8])
		if prev == old {
			binary.LittleEndian.PutUint64(e.mem[off:off+8], new)
			swapped = true
		}
	})
	return prev, swapped
}

// FAA64NonTx performs fetch-and-add on the uint64 at off, returning the
// previous value. Same atomicity caveats as CAS64NonTx.
func (e *Engine) FAA64NonTx(off uint64, delta uint64) (prev uint64) {
	e.nonTxLine(sim.LineOf(uintptr(off)), true, func() {
		prev = binary.LittleEndian.Uint64(e.mem[off : off+8])
		binary.LittleEndian.PutUint64(e.mem[off:off+8], prev+delta)
	})
	return prev
}
