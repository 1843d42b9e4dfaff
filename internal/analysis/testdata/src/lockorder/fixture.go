// Fixture for the lockorder call-graph check: the module-wide
// lock-acquisition graph must be cycle-free.
package lockorder

import "sync"

// A and B lock each other's mutexes in opposite orders — A.Step takes
// A.mu then B.mu directly, B.Step takes B.mu and then reaches A.mu
// through lockA's transitive acquire set. That is the classic two-lock
// deadlock, reported once at the earliest witnessing edge.
type A struct {
	mu sync.Mutex
	b  *B
}

type B struct {
	mu sync.Mutex
	a  *A
}

func (a *A) Step() {
	a.mu.Lock()
	a.b.mu.Lock() // want `\[lockorder\] potential deadlock: lock-order cycle lockorder\.A\.mu -> lockorder\.B\.mu -> lockorder\.A\.mu \(lockorder\.A\.mu -> lockorder\.B\.mu at fixture\.go:23, lockorder\.B\.mu -> lockorder\.A\.mu at fixture\.go:30\)$`
	a.b.mu.Unlock()
	a.mu.Unlock()
}

func (b *B) Step() {
	b.mu.Lock()
	lockA(b.a)
	b.mu.Unlock()
}

func lockA(a *A) {
	a.mu.Lock()
	a.mu.Unlock()
}

// Acct is the transfer deadlock: two instances of one type locked in one
// body with no ordering rule. Instance-blind keys make this a self-loop,
// which the check keeps (unlike same-key edges through calls).
type Acct struct {
	mu  sync.Mutex
	bal int
}

func transfer(from, to *Acct, n int) {
	from.mu.Lock()
	to.mu.Lock() // want `\[lockorder\] potential deadlock: lock-order cycle lockorder\.Acct\.mu -> lockorder\.Acct\.mu`
	from.bal -= n
	to.bal += n
	to.mu.Unlock()
	from.mu.Unlock()
}

// C and D are compliant: both paths agree on the C-before-D order, so the
// graph stays acyclic.
type C struct {
	mu sync.Mutex
	d  *D
}

type D struct{ mu sync.Mutex }

func (c *C) One() {
	c.mu.Lock()
	c.d.mu.Lock()
	c.d.mu.Unlock()
	c.mu.Unlock()
}

func (c *C) Two() {
	c.mu.Lock()
	lockD(c.d)
	c.mu.Unlock()
}

func lockD(d *D) {
	d.mu.Lock()
	d.mu.Unlock()
}

// Tree is compliant: the parent holds Tree.mu while the child locks "the
// same" field, but through a call that is almost always a different
// instance (parent/child shards), so the same-key edge is dropped.
type Tree struct {
	mu    sync.Mutex
	child *Tree
	n     int
}

func (t *Tree) Push() {
	t.mu.Lock()
	t.child.fill()
	t.mu.Unlock()
}

func (t *Tree) fill() {
	t.mu.Lock()
	t.n++
	t.mu.Unlock()
}

// Local mutexes are scoped to their function: the opposite order against
// a field mutex in another function cannot close a cycle.
func localOrder(d *D) {
	var mu sync.Mutex
	mu.Lock()
	d.mu.Lock()
	d.mu.Unlock()
	mu.Unlock()
}

func localOrderReversed(d *D) {
	var mu sync.Mutex
	d.mu.Lock()
	mu.Lock()
	mu.Unlock()
	d.mu.Unlock()
}
