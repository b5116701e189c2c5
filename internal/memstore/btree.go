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
}

const btOrder = 32 // max keys per node

type btnode interface {
	// insert returns (newRight, sepKey, grew) when the node split.
	insert(key, val uint64) (btnode, uint64, bool)
}

// A node keeps its entries in fixed arrays inside it, with room for the
// entry that overflows it, so an insert never grows a node and a split
// allocates just the new right half.
type btleaf struct {
	n    int // entries in keys[:n], vals[:n]
	keys [btOrder + 1]uint64
	vals [btOrder + 1]uint64
	next *btleaf
}

type btinner struct {
	n    int // separators in keys[:n], children in kids[:n+1]
	keys [btOrder]uint64
	kids [btOrder + 1]btnode
}

// NewBTree returns an empty tree.
func NewBTree() *BTree {
	return &BTree{root: &btleaf{}}
}

// Put inserts or replaces key -> val.
func (t *BTree) Put(key, val uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if right, sep, grew := t.root.insert(key, val); grew {
		root := &btinner{n: 1}
		root.keys[0] = sep
		root.kids[0], root.kids[1] = t.root, right
		t.root = root
	}
}

// Get returns the value bound to key.
func (t *BTree) Get(key uint64) (uint64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	l := t.leafFor(key)
	if i, found := l.find(key); found {
		return l.vals[i], true
	}
	return 0, false
}

// Delete removes key, reporting whether it was present. Underflow is not
// rebalanced (nodes may become sparse); OLTP delete patterns (TPC-C delivery
// consuming NEW-ORDER rows in key order) leave empty leaves that scans skip,
// which is the standard lazy-delete trade-off.
func (t *BTree) Delete(key uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leafFor(key)
	i, found := l.find(key)
	if found {
		copy(l.keys[i:l.n], l.keys[i+1:l.n])
		copy(l.vals[i:l.n], l.vals[i+1:l.n])
		l.n--
	}
	return found
}

// Scan visits entries with keys in [lo, hi] in ascending order; fn returns
// false to stop. It walks the leaf chain from lo's leaf itself, so fn does
// not escape and a caller's closure stays on its stack.
func (t *BTree) Scan(lo, hi uint64, fn func(key, val uint64) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	l := t.leafFor(lo)
	for i, _ := l.find(lo); l != nil; l, i = l.next, 0 {
		for ; i < l.n; i++ {
			if l.keys[i] > hi || !fn(l.keys[i], l.vals[i]) {
				return
			}
		}
	}
}

// MinGE returns the smallest entry with key >= lo (the "oldest NEW-ORDER"
// primitive in TPC-C delivery).
func (t *BTree) MinGE(lo uint64) (key, val uint64, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	l := t.leafFor(lo)
	for i, _ := l.find(lo); l != nil; l, i = l.next, 0 {
		if i < l.n {
			return l.keys[i], l.vals[i], true
		}
	}
	return 0, 0, false
}

// leafFor descends to the leaf whose range holds key. Caller holds t.mu.
func (t *BTree) leafFor(key uint64) *btleaf {
	n := t.root
	for in, inner := n.(*btinner); inner; in, inner = n.(*btinner) {
		n = in.kids[in.childFor(key)]
	}
	return n.(*btleaf)
}

// --- leaf ---

func (l *btleaf) find(key uint64) (int, bool) {
	lo, hi := 0, l.n
	for lo < hi {
		mid := (lo + hi) / 2
		if l.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < l.n && l.keys[lo] == key
}

func (l *btleaf) insert(key, val uint64) (btnode, uint64, bool) {
	i, found := l.find(key)
	if found {
		l.vals[i] = val
		return nil, 0, false
	}
	copy(l.keys[i+1:l.n+1], l.keys[i:l.n])
	copy(l.vals[i+1:l.n+1], l.vals[i:l.n])
	l.keys[i], l.vals[i] = key, val
	l.n++
	if l.n <= btOrder {
		return nil, 0, false
	}
	mid := l.n / 2
	right := &btleaf{n: l.n - mid, next: l.next}
	copy(right.keys[:], l.keys[mid:l.n])
	copy(right.vals[:], l.vals[mid:l.n])
	l.n = mid
	l.next = right
	return right, right.keys[0], true
}

// --- inner ---

func (n *btinner) childFor(key uint64) int {
	lo, hi := 0, n.n
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
	copy(n.keys[ci+1:n.n+1], n.keys[ci:n.n])
	copy(n.kids[ci+2:n.n+2], n.kids[ci+1:n.n+1])
	n.keys[ci], n.kids[ci+1] = sep, right
	n.n++
	if n.n < btOrder {
		return nil, 0, false
	}
	mid := n.n / 2
	rightNode := &btinner{n: n.n - mid - 1}
	copy(rightNode.keys[:], n.keys[mid+1:n.n])
	copy(rightNode.kids[:], n.kids[mid+1:n.n+1])
	clear(n.kids[mid+1 : n.n+1])
	n.n = mid
	return rightNode, n.keys[mid], true
}
