package memstore

import "sync"

// BTree is the ordered store (§6.3): a B+-tree mapping uint64 keys to record
// offsets, used for tables that need range scans (TPC-C's NEW-ORDER "oldest
// order per district", ORDER-LINE scans for stock-level, customer-by-name).
//
// Substitution note: the paper uses DBX's HTM-protected B+-tree, reported
// comparable to state-of-the-art concurrent B+-trees. The simulated HTM
// engine only covers arena memory, so this tree lives on the Go heap under a
// readers-writer lock instead. The interface and the concurrency guarantees
// the transaction layer relies on (thread-safe point and range access to an
// ordered key->offset index) are identical; the index itself is never
// accessed remotely — ordered tables are always partitioned so scans are
// machine-local, as in the paper's TPC-C layout.
type BTree struct {
	mu   sync.RWMutex
	root btnode
	size int
}

const btOrder = 32 // max keys per node

type btnode interface {
	// insert returns (newRight, sepKey, grew) when the node split.
	insert(key, val uint64) (btnode, uint64, bool)
	get(key uint64) (uint64, bool)
	del(key uint64) bool
	// scan calls fn for keys in [lo, hi]; returns false to stop early.
	scan(lo, hi uint64, fn func(key, val uint64) bool) bool
	min() (uint64, uint64, bool)
}

type btleaf struct {
	keys []uint64
	vals []uint64
	next *btleaf
}

type btinner struct {
	keys []uint64 // len(children)-1 separators
	kids []btnode
}

// NewBTree returns an empty tree.
func NewBTree() *BTree {
	return &BTree{root: &btleaf{}}
}

// Len returns the number of entries.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Put inserts or replaces key -> val.
func (t *BTree) Put(key, val uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	before := t.count(key)
	right, sep, grew := t.root.insert(key, val)
	if grew {
		t.root = &btinner{keys: []uint64{sep}, kids: []btnode{t.root, right}}
	}
	if before == 0 {
		t.size++
	}
}

func (t *BTree) count(key uint64) int {
	if _, ok := t.root.get(key); ok {
		return 1
	}
	return 0
}

// Get returns the value bound to key.
func (t *BTree) Get(key uint64) (uint64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root.get(key)
}

// Delete removes key, reporting whether it was present. Underflow is not
// rebalanced (nodes may become sparse); OLTP delete patterns (TPC-C delivery
// consuming NEW-ORDER rows in key order) leave empty leaves that scans skip,
// which is the standard lazy-delete trade-off.
func (t *BTree) Delete(key uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root.del(key) {
		t.size--
		return true
	}
	return false
}

// Scan visits entries with keys in [lo, hi] in ascending order; fn returns
// false to stop.
func (t *BTree) Scan(lo, hi uint64, fn func(key, val uint64) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.root.scan(lo, hi, fn)
}

// Min returns the smallest entry.
func (t *BTree) Min() (key, val uint64, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root.min()
}

// MinGE returns the smallest entry with key >= lo (the "oldest NEW-ORDER"
// primitive in TPC-C delivery).
func (t *BTree) MinGE(lo uint64) (key, val uint64, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for in, inner := n.(*btinner); inner; in, inner = n.(*btinner) {
		n = in.kids[in.childFor(lo)]
	}
	l := n.(*btleaf)
	i, _ := l.find(lo)
	for ; l != nil; l, i = l.next, 0 {
		if i < len(l.keys) {
			return l.keys[i], l.vals[i], true
		}
	}
	return 0, 0, false
}

// --- leaf ---

func (l *btleaf) find(key uint64) (int, bool) {
	lo, hi := 0, len(l.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(l.keys) && l.keys[lo] == key
}

func (l *btleaf) insert(key, val uint64) (btnode, uint64, bool) {
	i, found := l.find(key)
	if found {
		l.vals[i] = val
		return nil, 0, false
	}
	l.keys = append(l.keys, 0)
	l.vals = append(l.vals, 0)
	copy(l.keys[i+1:], l.keys[i:])
	copy(l.vals[i+1:], l.vals[i:])
	l.keys[i] = key
	l.vals[i] = val
	if len(l.keys) <= btOrder {
		return nil, 0, false
	}
	mid := len(l.keys) / 2
	right := &btleaf{
		keys: append([]uint64(nil), l.keys[mid:]...),
		vals: append([]uint64(nil), l.vals[mid:]...),
		next: l.next,
	}
	l.keys = l.keys[:mid]
	l.vals = l.vals[:mid]
	l.next = right
	return right, right.keys[0], true
}

func (l *btleaf) get(key uint64) (uint64, bool) {
	i, found := l.find(key)
	if !found {
		return 0, false
	}
	return l.vals[i], true
}

func (l *btleaf) del(key uint64) bool {
	i, found := l.find(key)
	if !found {
		return false
	}
	l.keys = append(l.keys[:i], l.keys[i+1:]...)
	l.vals = append(l.vals[:i], l.vals[i+1:]...)
	return true
}

func (l *btleaf) scan(lo, hi uint64, fn func(key, val uint64) bool) bool {
	i, _ := l.find(lo)
	for n := l; n != nil; n = n.next {
		for ; i < len(n.keys); i++ {
			if n.keys[i] > hi {
				return false
			}
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
		i = 0
	}
	return true
}

func (l *btleaf) min() (uint64, uint64, bool) {
	for n := l; n != nil; n = n.next {
		if len(n.keys) > 0 {
			return n.keys[0], n.vals[0], true
		}
	}
	return 0, 0, false
}

// --- inner ---

func (n *btinner) childFor(key uint64) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (n *btinner) insert(key, val uint64) (btnode, uint64, bool) {
	ci := n.childFor(key)
	right, sep, grew := n.kids[ci].insert(key, val)
	if !grew {
		return nil, 0, false
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sep
	n.kids = append(n.kids, nil)
	copy(n.kids[ci+2:], n.kids[ci+1:])
	n.kids[ci+1] = right
	if len(n.kids) <= btOrder {
		return nil, 0, false
	}
	mid := len(n.keys) / 2
	sepUp := n.keys[mid]
	rightNode := &btinner{
		keys: append([]uint64(nil), n.keys[mid+1:]...),
		kids: append([]btnode(nil), n.kids[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.kids = n.kids[:mid+1]
	return rightNode, sepUp, true
}

func (n *btinner) get(key uint64) (uint64, bool) {
	return n.kids[n.childFor(key)].get(key)
}

func (n *btinner) del(key uint64) bool {
	return n.kids[n.childFor(key)].del(key)
}

func (n *btinner) scan(lo, hi uint64, fn func(key, val uint64) bool) bool {
	// Descend to the leaf containing lo; the leaf chain handles the rest.
	return n.kids[n.childFor(lo)].scan(lo, hi, fn)
}

func (n *btinner) min() (uint64, uint64, bool) {
	return n.kids[0].min()
}
