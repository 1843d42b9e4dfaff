// Fixture for the mutex-held blocking-call check.
package mutexdemo

import (
	"net"
	"sync"

	"autoresched/internal/proto"
)

type hub struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
}

func (h *hub) sendHeld() {
	h.mu.Lock()
	h.ch <- 1 // want `\[mutexheld\] channel send while a mutex is held`
	h.mu.Unlock()
}

// sendAfterUnlock is compliant: the section is closed before the send.
func (h *hub) sendAfterUnlock() {
	h.mu.Lock()
	h.mu.Unlock()
	h.ch <- 1
}

func (h *hub) dialHeld() (net.Conn, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return net.Dial("tcp", "localhost:0") // want `\[mutexheld\] call to net\.Dial while a mutex is held`
}

func callHeld(c *proto.Client, m *proto.Message, mu *sync.Mutex) (*proto.Message, error) {
	mu.Lock()
	defer mu.Unlock()
	return c.Call(m) // want `\[mutexheld\] call to \(proto\.Client\)\.Call while a mutex is held`
}

// nonBlockingSend is compliant: a select with a default never blocks.
func (h *hub) nonBlockingSend() {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case h.ch <- 1:
	default:
	}
}

func (h *hub) readLockSend() {
	h.rw.RLock()
	h.ch <- 2 // want `\[mutexheld\] channel send while a mutex is held`
	h.rw.RUnlock()
}

// litRunsLater is compliant: the goroutine body runs outside the section.
func (h *hub) litRunsLater() {
	h.mu.Lock()
	defer h.mu.Unlock()
	go func() {
		h.ch <- 3
	}()
}

// loopHeadersHeld round-trips in a for condition and a for post statement
// while the lock is held: both run inside the section.
func loopHeadersHeld(c *proto.Client, m *proto.Message, mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	for failed(c.Call(m)) { // want `\[mutexheld\] call to \(proto\.Client\)\.Call while a mutex is held`
	}
	for i := 0; i < 3; i += tries(c.Call(m)) { // want `\[mutexheld\] call to \(proto\.Client\)\.Call while a mutex is held`
	}
}

func failed(_ *proto.Message, err error) bool { return err != nil }

func tries(_ *proto.Message, _ error) int { return 1 }

// twoInstances locks two hubs in turn. Both mutexes have the key hub.mu,
// and the hold count keeps a's held after b's unlock. Locking two
// instances of one type with no ordering rule is also a lockorder cycle.
func twoInstances(a, b *hub) {
	a.mu.Lock()
	b.mu.Lock() // want `\[lockorder\] potential deadlock: lock-order cycle mutexdemo\.hub\.mu -> mutexdemo\.hub\.mu`
	b.mu.Unlock()
	a.ch <- 1 // want `\[mutexheld\] channel send while a mutex is held`
	a.mu.Unlock()
}
