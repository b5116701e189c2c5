package memstore

import (
	"errors"
	"fmt"
	"sync"

	"drtmr/internal/htm"
	"drtmr/internal/sim"
)

// Errors returned by the store layer.
var (
	ErrKeyExists   = errors.New("memstore: key already exists")
	ErrKeyNotFound = errors.New("memstore: key not found")
)

// TableID names a database table. All machines create the same tables with
// the same specs in the same order, which makes table geometry (bucket array
// base, record size) identical cluster-wide — the property that lets a
// machine compute RDMA addresses into any peer's store.
type TableID uint8

// TableSpec declares a table's shape.
type TableSpec struct {
	Name string
	// ValueSize is the fixed user-data size of every record.
	ValueSize int
	// ExpectedRows sizes the hash bucket array (~2 slots headroom/row).
	ExpectedRows int
	// Ordered additionally maintains a local B+-tree index for scans.
	Ordered bool
}

// Table is one typed record collection.
type Table struct {
	ID   TableID
	Spec TableSpec

	// RecBytes and RecLines are the record geometry for Spec.ValueSize.
	RecBytes int
	RecLines int

	store   *Store
	hash    *HashTable
	ordered *BTree // nil unless Spec.Ordered
}

// Store is one machine's memory store: the key-value layer under the
// transaction layer (Fig 1).
type Store struct {
	eng   *htm.Engine
	arena *Arena

	mu     sync.RWMutex
	tables map[TableID]*Table
}

// NewStore creates a store over the machine's HTM engine, allocating from
// arena.
func NewStore(eng *htm.Engine, arena *Arena) *Store {
	return &Store{eng: eng, arena: arena, tables: make(map[TableID]*Table)}
}

// Engine returns the machine's HTM engine (the transaction layer needs it
// for protocol operations on record offsets).
func (s *Store) Engine() *htm.Engine { return s.eng }

// Arena returns the machine's allocator.
func (s *Store) Arena() *Arena { return s.arena }

// CreateTable registers a table. Panics on duplicate IDs — table creation
// is static setup code.
func (s *Store) CreateTable(id TableID, spec TableSpec) *Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tables[id]; dup {
		panic(fmt.Sprintf("memstore: duplicate table id %d (%s)", id, spec.Name))
	}
	buckets := spec.ExpectedRows/BucketSlots + 1
	if buckets < 16 {
		buckets = 16
	}
	t := &Table{
		ID:       id,
		Spec:     spec,
		RecBytes: RecordBytes(spec.ValueSize),
		RecLines: RecordLines(spec.ValueSize),
		store:    s,
		hash:     NewHashTable(s.eng, s.arena, buckets),
	}
	if spec.Ordered {
		t.ordered = NewBTree()
	}
	s.tables[id] = t
	return t
}

// Table returns a registered table.
func (s *Store) Table(id TableID) *Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[id]
}

// Hash exposes the table's hash index geometry for remote addressing.
func (t *Table) Hash() *HashTable { return t.hash }

// Ordered returns the local ordered index (nil for unordered tables).
func (t *Table) Ordered() *BTree { return t.ordered }

// Lookup resolves key to its record offset on this machine.
func (t *Table) Lookup(key uint64) (off uint64, ok bool) {
	packed, ok := t.hash.Lookup(key)
	if !ok {
		return 0, false
	}
	off, _ = SplitLoc(packed)
	return off, true
}

// Insert allocates and initializes a record for key with the given value and
// publishes it in the indexes. The record starts unlocked, committable
// (even seqnum 0) and with its incarnation bumped past whatever previously
// lived in the block, so any stale cached (offset, incarnation) pair held by
// a remote machine is detectably dead (§4.3).
func (t *Table) Insert(key uint64, value []byte) (uint64, error) {
	return t.InsertWithSeq(key, value, 0)
}

// InsertWithSeq inserts a record whose initial sequence number is seq. The
// transaction layer inserts with seq=1 (odd: committed-but-unreplicated)
// when optimistic replication is on, and bumps it to 2 once the insert's
// log entries are durable (§5.1 applied to inserts).
func (t *Table) InsertWithSeq(key uint64, value []byte, seq uint64) (uint64, error) {
	return t.insert(key, value, seq, false)
}

// Load is Insert for loading a table before its machine is shared: it writes
// the record and its hash slot straight into memory, with no HTM region and
// no line registry. Only a loader that runs before any worker, applier or
// remote machine can reach the store may call it (a workload loader between
// cluster.New and Cluster.Start). The table is laid out exactly as Insert
// would lay it out.
func (t *Table) Load(key uint64, value []byte) (uint64, error) {
	return t.insert(key, value, 0, true)
}

// stackImage is the largest record image insert builds on the stack: eight
// cachelines, a value of up to 474 bytes.
const stackImage = 8 * sim.CachelineSize

func (t *Table) insert(key uint64, value []byte, seq uint64, direct bool) (uint64, error) {
	if len(value) > t.Spec.ValueSize {
		return 0, fmt.Errorf("memstore: value size %d exceeds table %s's %d",
			len(value), t.Spec.Name, t.Spec.ValueSize)
	}
	off := t.store.arena.Alloc(t.RecBytes)
	mem := t.store.eng.Mem()
	prevInc := RecInc(mem[off : off+uint64(headerBytes)])
	bind := t.hash.Insert
	if direct {
		end := off + uint64(t.RecBytes)
		BuildRecordImageInto(mem[off:off:end], t.Spec.ValueSize, value, prevInc+1, seq)
		bind = t.hash.load
	} else {
		// The image is built on the stack (a record past stackImage's lines
		// takes a heap buffer). The record is unreachable until the hash
		// insert publishes it, so a non-transactional bulk write is safe here.
		var stk [stackImage]byte
		img := BuildRecordImageInto(stk[:0], t.Spec.ValueSize, value, prevInc+1, seq)
		t.store.eng.WriteNonTx(off, img)
	}
	if err := bind(key, PackLoc(off, prevInc+1)); err != nil {
		t.store.arena.Free(off, t.RecBytes)
		return 0, err
	}
	if t.ordered != nil {
		t.ordered.Put(key, off)
	}
	return off, nil
}

// Delete unbinds key, bumps the record's incarnation (invalidating cached
// locations and failing in-flight validations against it) and frees the
// block.
func (t *Table) Delete(key uint64) error {
	packed, err := t.hash.Delete(key)
	if err != nil {
		return err
	}
	off, _ := SplitLoc(packed)
	if t.ordered != nil {
		t.ordered.Delete(key)
	}
	// Bump incarnation under strong atomicity so concurrent transactions
	// that read the record abort/fail validation.
	t.store.eng.FAA64NonTx(off+IncOff, 1)
	t.store.arena.Free(off, t.RecBytes)
	return nil
}

// ReadValueNonTx gathers the record's user value bytes without any protocol
// protection — for tests, loading verification and recovery only.
func (t *Table) ReadValueNonTx(off uint64) []byte {
	img := t.store.eng.ReadNonTx(off, t.RecBytes, nil)
	return GatherValue(img, t.Spec.ValueSize)
}
