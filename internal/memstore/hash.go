package memstore

import (
	"encoding/binary"

	"drtmr/internal/htm"
	"drtmr/internal/sim"
)

// HashTable is the RDMA-friendly unordered store (from DrTM, §6.3). The
// whole structure lives in the machine's registered memory so that remote
// machines can traverse it with one-sided RDMA READs:
//
//   - The main bucket array is allocated contiguously at table creation, so
//     a remote machine can compute any bucket's RDMA address from the table
//     metadata alone (base + hash(key)*64).
//
//   - A bucket is exactly one cacheline — one RDMA READ fetches it
//     atomically — holding three (key, recordOffset) slots and a chain
//     pointer to an overflow bucket:
//
//     | reserved u64 | k0 u64 | o0 u64 | k1 u64 | o1 u64 | k2 u64 | o2 u64 | next u64 |
//
//   - Mutations (insert/delete) happen only on the host machine, inside an
//     HTM transaction (§4.3): strong atomicity makes them atomic against
//     concurrent local readers and remote RDMA bucket reads alike.
//
// Keys are offset by +1 internally so that 0 can mean "empty slot"; user key
// math.MaxUint64 is therefore not storable, which no workload uses.
// Hash slots store a *packed location*: the record offset in the low 40
// bits and the low 24 bits of the record's incarnation above it. A remote
// machine that resolves a key through the index can then detect — from the
// record image alone — that the binding it followed has been freed/reused
// in the window between the bucket read and the record read (§4.3's
// incarnation check, as in DrTM's hash table).
const (
	offLocBits = 40
	offLocMask = uint64(1)<<offLocBits - 1
	// IncLocMask is the incarnation part kept in a packed location.
	IncLocMask = uint64(1)<<24 - 1
)

// PackLoc packs (record offset, incarnation) into one slot word.
func PackLoc(off, inc uint64) uint64 {
	return off&offLocMask | (inc&IncLocMask)<<offLocBits
}

// SplitLoc unpacks a slot word into (offset, low 24 incarnation bits).
func SplitLoc(packed uint64) (off, inc24 uint64) {
	return packed & offLocMask, packed >> offLocBits & IncLocMask
}

const (
	// BucketSlots is the number of key/offset pairs per bucket.
	BucketSlots = 3
	bucketBytes = sim.CachelineSize

	bucketSlot0Off = 8 // after the reserved header word
	bucketNextOff  = 56
)

// HashTable is the host-side handle. Remote machines use only the exported
// geometry (Base, NumBuckets) plus the Parse* helpers on fetched images.
type HashTable struct {
	eng   *htm.Engine
	arena *Arena

	base       uint64
	numBuckets uint64
}

// NewHashTable allocates the main bucket array. numBuckets is rounded up to
// a power of two.
func NewHashTable(eng *htm.Engine, arena *Arena, numBuckets int) *HashTable {
	n := uint64(1)
	for n < uint64(numBuckets) {
		n <<= 1
	}
	base := arena.Alloc(int(n) * bucketBytes)
	arena.Zero(base, int(n)*bucketBytes)
	return &HashTable{eng: eng, arena: arena, base: base, numBuckets: n}
}

// Base returns the RDMA offset of the main bucket array.
func (h *HashTable) Base() uint64 { return h.base }

// NumBuckets returns the (power of two) main bucket count.
func (h *HashTable) NumBuckets() uint64 { return h.numBuckets }

// BucketOff computes the offset of key's main bucket — identical math on
// every machine, which is what lets a remote machine address the bucket
// without any communication.
func (h *HashTable) BucketOff(key uint64) uint64 {
	return BucketOffFor(h.base, h.numBuckets, key)
}

// BucketOffFor is BucketOff for remote callers that only have the geometry.
func BucketOffFor(base, numBuckets, key uint64) uint64 {
	return base + (hashKey(key+1)&(numBuckets-1))*bucketBytes
}

// hashKey is a 64-bit finalizer (splitmix64) — cheap and well distributed.
func hashKey(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// ParseBucket scans a fetched 64-byte bucket image for key, returning the
// record offset if present and the overflow chain offset (0 = end).
func ParseBucket(img []byte, key uint64) (recOff uint64, next uint64, found bool) {
	ik := key + 1
	for s := 0; s < BucketSlots; s++ {
		so := bucketSlot0Off + s*16
		if binary.LittleEndian.Uint64(img[so:so+8]) == ik {
			return binary.LittleEndian.Uint64(img[so+8 : so+16]), 0, true
		}
	}
	return 0, binary.LittleEndian.Uint64(img[bucketNextOff : bucketNextOff+8]), false
}

// Lookup resolves key to its record offset on the local machine. The chain
// walk reads buckets non-transactionally (each bucket is one line, so each
// read is atomic, same as the remote RDMA path).
func (h *HashTable) Lookup(key uint64) (recOff uint64, ok bool) {
	var img [bucketBytes]byte
	off := h.BucketOff(key)
	for off != 0 {
		h.eng.ReadNonTx(off, bucketBytes, img[:])
		recOff, next, found := ParseBucket(img[:], key)
		if found {
			return recOff, true
		}
		off = next
	}
	return 0, false
}

// retryHTM runs fn in an HTM transaction with bounded retries, falling back
// to a slow path never — hash mutations touch at most two lines and always
// succeed eventually. Conflicts retry with scheduler yields.
func (h *HashTable) retryHTM(fn func(tx *htm.Txn) error) error {
	for {
		tx := h.eng.Begin()
		err := fn(tx)
		if _, aborted := err.(*htm.AbortError); err != nil && !aborted {
			tx.Abort(0xFF)
			tx.Release()
			return err
		}
		if err == nil {
			err = tx.Commit()
		}
		tx.Release()
		if err == nil {
			return nil
		}
		sim.Spin(0)
	}
}

// Insert binds key to recOff. Returns ErrKeyExists if the key is present.
// Structural growth (appending an overflow bucket) allocates from the arena
// inside the transaction; the allocation is leaked if the transaction
// retries, which is harmless (arena blocks are cheap) and keeps the
// fast path simple.
func (h *HashTable) Insert(key uint64, recOff uint64) error {
	ik := key + 1
	return h.retryHTM(func(tx *htm.Txn) error {
		off := h.BucketOff(key)
		var buf [bucketBytes]byte
		for {
			img, err := tx.Read(off, bucketBytes, buf[:])
			if err != nil {
				return err
			}
			// Duplicate check + first free slot in this bucket.
			freeSlot := -1
			for s := 0; s < BucketSlots; s++ {
				so := bucketSlot0Off + s*16
				k := binary.LittleEndian.Uint64(img[so : so+8])
				if k == ik {
					return ErrKeyExists
				}
				if k == 0 && freeSlot < 0 {
					freeSlot = s
				}
			}
			next := binary.LittleEndian.Uint64(img[bucketNextOff : bucketNextOff+8])
			if freeSlot >= 0 && next == 0 {
				// Safe to use a free slot only in the chain's last
				// bucket... actually the key could exist further
				// down the chain only if next != 0, which we just
				// excluded, so claim the slot.
				return putSlot(tx, off, freeSlot, ik, recOff)
			}
			if next != 0 {
				// Remember a free slot? Simpler: walk on; insert
				// prefers chain tail after full duplicate check.
				if freeSlot >= 0 {
					// Check rest of chain for duplicates first.
					dup, err := h.chainHas(tx, next, ik)
					if err != nil {
						return err
					}
					if dup {
						return ErrKeyExists
					}
					return putSlot(tx, off, freeSlot, ik, recOff)
				}
				off = next
				continue
			}
			// Chain tail, bucket full: append an overflow bucket.
			nb := h.arena.Alloc(bucketBytes)
			h.arena.Zero(nb, bucketBytes)
			if err := putSlot(tx, nb, 0, ik, recOff); err != nil {
				return err
			}
			var nxt [8]byte
			binary.LittleEndian.PutUint64(nxt[:], nb)
			return tx.Write(off+bucketNextOff, nxt[:])
		}
	})
}

// load is Insert written straight into memory, for Table.Load. It makes the
// choice Insert makes — after a duplicate check of the whole chain, the first
// free slot in chain order, else a new overflow bucket at the tail — so a
// loaded table has the layout an inserted one has.
func (h *HashTable) load(key uint64, recOff uint64) error {
	mem := h.eng.Mem()
	ik := key + 1
	var slot, tail uint64 // the first free slot's offset (0: none yet), the chain's last bucket
	for off := h.BucketOff(key); off != 0; off = binary.LittleEndian.Uint64(mem[off+bucketNextOff:]) {
		for s := uint64(0); s < BucketSlots; s++ {
			so := off + bucketSlot0Off + s*16
			switch binary.LittleEndian.Uint64(mem[so:]) {
			case ik:
				return ErrKeyExists
			case 0:
				if slot == 0 {
					slot = so
				}
			}
		}
		tail = off
	}
	if slot == 0 {
		nb := h.arena.Alloc(bucketBytes)
		h.arena.Zero(nb, bucketBytes)
		binary.LittleEndian.PutUint64(mem[tail+bucketNextOff:], nb)
		slot = nb + bucketSlot0Off
	}
	binary.LittleEndian.PutUint64(mem[slot:], ik)
	binary.LittleEndian.PutUint64(mem[slot+8:], recOff)
	return nil
}

func (h *HashTable) chainHas(tx *htm.Txn, off uint64, ik uint64) (bool, error) {
	var buf [bucketBytes]byte
	for off != 0 {
		img, err := tx.Read(off, bucketBytes, buf[:])
		if err != nil {
			return false, err
		}
		for s := 0; s < BucketSlots; s++ {
			so := bucketSlot0Off + s*16
			if binary.LittleEndian.Uint64(img[so:so+8]) == ik {
				return true, nil
			}
		}
		off = binary.LittleEndian.Uint64(img[bucketNextOff : bucketNextOff+8])
	}
	return false, nil
}

func putSlot(tx *htm.Txn, bucketOff uint64, slot int, ik, recOff uint64) error {
	var kv [16]byte
	binary.LittleEndian.PutUint64(kv[:8], ik)
	binary.LittleEndian.PutUint64(kv[8:], recOff)
	return tx.Write(bucketOff+uint64(bucketSlot0Off+slot*16), kv[:])
}

// Delete unbinds key, returning the record offset it mapped to.
func (h *HashTable) Delete(key uint64) (recOff uint64, err error) {
	ik := key + 1
	err = h.retryHTM(func(tx *htm.Txn) error {
		off := h.BucketOff(key)
		var buf [bucketBytes]byte
		for off != 0 {
			img, rerr := tx.Read(off, bucketBytes, buf[:])
			if rerr != nil {
				return rerr
			}
			for s := 0; s < BucketSlots; s++ {
				so := bucketSlot0Off + s*16
				if binary.LittleEndian.Uint64(img[so:so+8]) == ik {
					recOff = binary.LittleEndian.Uint64(img[so+8 : so+16])
					var zero [16]byte
					return tx.Write(off+uint64(so), zero[:])
				}
			}
			off = binary.LittleEndian.Uint64(img[bucketNextOff : bucketNextOff+8])
		}
		return ErrKeyNotFound
	})
	return recOff, err
}
