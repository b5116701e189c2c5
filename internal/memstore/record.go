package memstore

import (
	"encoding/binary"

	"drtmr/internal/sim"
)

// Record layout (paper Fig 3). Every record starts at a fresh cacheline to
// avoid HTM false sharing (§4.2):
//
//	cacheline 0 : | lock u64 | incarnation u64 | seqnum u64 | 40 B data |
//	cacheline k : | version u16                             | 62 B data |
//
// The per-line version mirrors the low 16 bits of the sequence number and
// lets a one-sided RDMA READ detect a torn multi-line view (§4.3): RDMA
// WRITEs are atomic only within a cacheline, so a reader racing a writer can
// see some new lines and some old ones; mismatched versions expose that.
const (
	// Metadata offsets within a record.
	LockOff = 0
	IncOff  = 8
	SeqOff  = 16

	headerBytes    = 24
	line0Data      = sim.CachelineSize - headerBytes // 40
	versionBytes   = 2
	lineKData      = sim.CachelineSize - versionBytes // 62
	seqVersionMask = 0xFFFF
)

// RecordLines returns the number of cachelines a record with valueSize bytes
// of user data occupies.
func RecordLines(valueSize int) int {
	if valueSize <= line0Data {
		return 1
	}
	rest := valueSize - line0Data
	return 1 + (rest+lineKData-1)/lineKData
}

// RecordBytes returns the allocated size of a record.
func RecordBytes(valueSize int) int {
	return RecordLines(valueSize) * sim.CachelineSize
}

// Lock word encoding (§5.2): zero means free; a held lock encodes the owner
// machine so that survivors can passively release locks left dangling by a
// failed machine ("the worker thread will check whether the owner of the
// locked record is the member of the current configuration").
const lockHeldBit = 1

// LockWord builds the held-lock value for a machine.
func LockWord(owner uint32) uint64 {
	return uint64(owner)<<1 | lockHeldBit
}

// LockOwner decodes the owner machine from a held lock word.
func LockOwner(w uint64) (owner uint32, held bool) {
	return uint32(w >> 1), w&lockHeldBit != 0
}

// SeqIsCommittable reports whether a sequence number denotes a committable
// (fully replicated) record under the optimistic replication scheme (§5.1):
// even = committable, odd = committed locally but not yet replicated.
func SeqIsCommittable(seq uint64) bool { return seq&1 == 0 }

// ClosestCommittable returns the committable sequence number nearest above
// the given one: the value a record settles at once its in-flight update is
// fully replicated. Used as the read-validation target (Table 4):
// (SN_old + 1) &^ 1.
func ClosestCommittable(seq uint64) uint64 { return (seq + 1) &^ 1 }

// ScatterValue writes valueSize bytes of user data into a record image of
// recBytes length, skipping the header and per-line version slots.
// rec is the raw record bytes (starting at the record's first cacheline).
func ScatterValue(rec []byte, value []byte) {
	pos := headerBytes
	remaining := value
	n := copy(rec[pos:sim.CachelineSize], remaining)
	remaining = remaining[n:]
	line := 1
	for len(remaining) > 0 {
		base := line * sim.CachelineSize
		n = copy(rec[base+versionBytes:base+sim.CachelineSize], remaining)
		remaining = remaining[n:]
		line++
	}
}

// GatherValue extracts valueSize bytes of user data from a record image into
// a fresh buffer.
func GatherValue(rec []byte, valueSize int) []byte { return GatherValueInto(nil, rec, valueSize) }

// GatherValueInto is GatherValue on dst's storage when it has room for
// valueSize bytes, which a caller that owns a value buffer (a transaction's
// slab) uses to copy a record's value without an allocation of its own. dst
// may be rec itself: every piece moves toward the front, so gathering in
// place reads each byte before it is overwritten.
func GatherValueInto(dst, rec []byte, valueSize int) []byte {
	out := dst[:0]
	if cap(out) < valueSize {
		out = make([]byte, 0, valueSize)
	}
	take := valueSize
	n := min(line0Data, take)
	out = append(out, rec[headerBytes:headerBytes+n]...)
	take -= n
	for base := sim.CachelineSize; take > 0; base += sim.CachelineSize {
		n = min(lineKData, take)
		out = append(out, rec[base+versionBytes:base+versionBytes+n]...)
		take -= n
	}
	return out
}

// StampVersions writes seq's low 16 bits into every per-line version slot of
// a record image (lines 1..k; line 0 carries the full seqnum itself).
func StampVersions(rec []byte, seq uint64) {
	v := uint16(seq & seqVersionMask)
	for base := sim.CachelineSize; base < len(rec); base += sim.CachelineSize {
		binary.LittleEndian.PutUint16(rec[base:base+versionBytes], v)
	}
}

// VersionsConsistent checks that every per-line version of a record image
// matches the low 16 bits of the seqnum in its header — the §4.3 remote-read
// consistency check.
func VersionsConsistent(rec []byte) bool {
	seq := binary.LittleEndian.Uint64(rec[SeqOff : SeqOff+8])
	want := uint16(seq & seqVersionMask)
	for base := sim.CachelineSize; base < len(rec); base += sim.CachelineSize {
		if binary.LittleEndian.Uint16(rec[base:base+versionBytes]) != want {
			return false
		}
	}
	return true
}

// RecLock, RecInc, RecSeq decode header fields from a record image.
func RecLock(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec[LockOff : LockOff+8]) }

// RecInc returns the incarnation field of a record image.
func RecInc(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec[IncOff : IncOff+8]) }

// RecSeq returns the sequence number field of a record image.
func RecSeq(rec []byte) uint64 { return binary.LittleEndian.Uint64(rec[SeqOff : SeqOff+8]) }

// PutRecSeq stores a sequence number into a record image.
func PutRecSeq(rec []byte, seq uint64) {
	binary.LittleEndian.PutUint64(rec[SeqOff:SeqOff+8], seq)
}

// PutRecInc stores an incarnation into a record image.
func PutRecInc(rec []byte, inc uint64) {
	binary.LittleEndian.PutUint64(rec[IncOff:IncOff+8], inc)
}

// BuildRecordImage assembles a full record image: header (lock=0, given
// incarnation and seq) plus scattered value and stamped versions. Used when
// constructing the payload of an RDMA WRITE-back (C.5) and by loading.
func BuildRecordImage(valueSize int, value []byte, inc, seq uint64) []byte {
	return BuildRecordImageInto(nil, valueSize, value, inc, seq)
}

// BuildRecordImageInto is BuildRecordImage on dst's storage when it has room:
// an image that is installed and then dropped is built on its installer's
// scratch.
func BuildRecordImageInto(dst []byte, valueSize int, value []byte, inc, seq uint64) []byte {
	rec := append(dst[:0], make([]byte, RecordBytes(valueSize))...)
	PutRecInc(rec, inc)
	PutRecSeq(rec, seq)
	ScatterValue(rec, value)
	StampVersions(rec, seq)
	return rec
}
