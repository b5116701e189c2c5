// Fixture for the lockorder analyzer: acquisition-order cycles, locks held
// across coroutine yields (channel ops and coroutine switches, transitively),
// locks held across wire I/O, and the //drtmr:allow suppression contract.
package lockorder

import (
	"io"
	"sync"
)

type pair struct {
	a  sync.Mutex
	b  sync.Mutex
	ch chan int
	w  io.Writer
}

// lockAB and lockBA together form an a→b / b→a cycle; each acquisition that
// closes the cycle is reported in the function that makes it.
func (p *pair) lockAB() {
	p.a.Lock()
	p.b.Lock() // want "lock order cycle: acquiring lockorder.pair.b while lockorder.pair.a held closes cycle \[lockorder.pair.a → lockorder.pair.b → lockorder.pair.a\]"
	p.b.Unlock()
	p.a.Unlock()
}

func (p *pair) lockBA() {
	p.b.Lock()
	p.a.Lock() // want "lock order cycle: acquiring lockorder.pair.a while lockorder.pair.b held closes cycle \[lockorder.pair.b → lockorder.pair.a → lockorder.pair.b\]"
	p.a.Unlock()
	p.b.Unlock()
}

// Consistent nesting elsewhere is not a cycle by itself — these two uses of
// the same order produce no finding.
type nested struct {
	outer sync.Mutex
	inner sync.Mutex
}

func (n *nested) one() {
	n.outer.Lock()
	n.inner.Lock()
	n.inner.Unlock()
	n.outer.Unlock()
}

func (n *nested) two() {
	n.outer.Lock()
	defer n.outer.Unlock()
	n.inner.Lock()
	defer n.inner.Unlock()
}

// A direct channel operation under a mutex parks the coroutine while every
// sibling on the worker can block on the same mutex.
func (p *pair) heldAcrossSend() {
	p.a.Lock()
	p.ch <- 1 // want "lockorder.pair.a held across channel send"
	p.a.Unlock()
}

// parkHere yields; holding a lock across a call to it is the transitive
// version of the same bug.
func (p *pair) parkHere() {
	<-p.ch
}

func (p *pair) heldAcrossYield() {
	p.a.Lock()
	defer p.a.Unlock()
	p.parkHere() // want "lockorder.pair.a held across call to lockorder.\(\*pair\).parkHere, which may yield"
}

// Releasing before the yield is fine.
func (p *pair) releasedBeforeYield() {
	p.a.Lock()
	p.a.Unlock()
	p.parkHere()
}

// Wire I/O under a mutex stretches the critical section across a syscall.
func (p *pair) heldAcrossWire(buf []byte) {
	p.a.Lock()
	p.w.Write(buf) // want "lockorder.pair.a held across call to io.\(Writer\).Write, which may perform wire I/O"
	p.a.Unlock()
}

// The same shape with an audited reason is suppressed.
func (p *pair) allowedWire(buf []byte) {
	p.a.Lock()
	p.w.Write(buf) //drtmr:allow lockorder per-connection write mutex intentionally serializes frames
	p.a.Unlock()
}

// A reason-less directive does not suppress and is itself flagged.
func (p *pair) reasonlessWire(buf []byte) {
	p.a.Lock()
	p.w.Write(buf) //drtmr:allow lockorder // want "held across call to io" "missing the required reason"
	p.a.Unlock()
}

// Lock misuse inside a function literal is still caught (closures are
// summarized as their own pseudo-functions).
func closureHeldAcrossSend(p *pair) {
	f := func() {
		p.a.Lock()
		p.ch <- 1 // want "lockorder.pair.a held across channel send"
		p.a.Unlock()
	}
	f()
}

// A call through a function value named yield — the yield iter.Pull hands a
// coroutine's body — switches coroutines: the same bug as a channel send,
// directly and through a call.
type coro struct {
	mu    sync.Mutex
	yield func(struct{}) bool
}

func (c *coro) heldAcrossSwitch() {
	c.mu.Lock()
	c.yield(struct{}{}) // want "lockorder.coro.mu held across coroutine switch"
	c.mu.Unlock()
}

func (c *coro) park() { c.yield(struct{}{}) }

func (c *coro) heldAcrossPark() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.park() // want "lockorder.coro.mu held across call to lockorder.\(\*coro\).park, which may yield \(via coroutine switch\)"
}

// Other function values stay dynamic calls that contribute nothing.
func (c *coro) heldAcrossFuncValue(f func()) {
	c.mu.Lock()
	f()
	c.mu.Unlock()
}
