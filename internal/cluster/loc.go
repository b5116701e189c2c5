package cluster

import (
	"sync"

	"drtmr/internal/memstore"
	"drtmr/internal/rdma"
)

// LocKey names a record of another machine: the machine, its table, its key.
type LocKey struct {
	Node  rdma.NodeID
	Table memstore.TableID
	Key   uint64
}

// Loc is where a record lives: its offset in the machine's memory and the
// incarnation it held when the index was read (memstore.IncLocMask bits).
// A record whose header shows another incarnation was freed since.
type Loc struct {
	Off, Inc uint64
}

// LookupRemote walks tbl's hash index on qp's target with one-sided RDMA
// READs, one bucket at a time, and reports where key lives. wait settles each
// READ: rdma.Completion.Wait charges the round trip to the worker, a
// coroutine scheduler's await runs other transactions during it. err is the
// first verb error; found is false when no bucket holds key.
func LookupRemote(qp *rdma.QP, tbl *memstore.Table, key uint64, wait func(rdma.Completion) error) (loc Loc, found bool, err error) {
	h := tbl.Hash()
	bucketOff := memstore.BucketOffFor(h.Base(), h.NumBuckets(), key)
	var img [64]byte
	for bucketOff != 0 {
		b, comp := qp.ReadAsync(bucketOff, 64, img[:])
		if err := wait(comp); err != nil {
			return Loc{}, false, err
		}
		packed, next, ok := memstore.ParseBucket(b, key)
		if ok {
			off, inc := memstore.SplitLoc(packed)
			return Loc{Off: off, Inc: inc}, true, nil
		}
		bucketOff = next
	}
	return Loc{}, false, nil
}

// LocCache is the RDMA-friendly location cache (§6.3): it maps remote keys to
// where LookupRemote last found them, so repeated accesses skip the bucket
// walk. A user that finds a cached record's incarnation changed drops the
// entry and looks the key up again. The zero value is empty; it is safe for
// concurrent use.
type LocCache struct {
	shards [64]locShard
}

type locShard struct {
	mu sync.Mutex
	m  map[LocKey]Loc
}

func (c *LocCache) shard(k LocKey) *locShard {
	return &c.shards[(k.Key*31+uint64(k.Table)*7+uint64(k.Node))&63]
}

// Get returns k's cached location.
func (c *LocCache) Get(k LocKey) (Loc, bool) {
	s := c.shard(k)
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

// Put caches k's location.
func (c *LocCache) Put(k LocKey, v Loc) {
	s := c.shard(k)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[LocKey]Loc)
	}
	s.m[k] = v
	s.mu.Unlock()
}

// Drop forgets k's location.
func (c *LocCache) Drop(k LocKey) {
	s := c.shard(k)
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
}
