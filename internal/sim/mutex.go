package sim

// Mutex is a virtual-time mutual exclusion lock for processes. Unlike
// sync.Mutex it never blocks OS threads: a contended Lock parks the
// calling process until the holder unlocks. Ownership transfers in FIFO
// arrival order, so executions stay deterministic.
//
// Processes need a Mutex only around critical sections that yield the
// virtual CPU (Sleep, Cond waits, channel ops): sections without yields
// are already atomic under the cooperative scheduler.
//
// The lock is kill-safe: a process killed while waiting never becomes
// the owner, and the idiomatic `m.Lock(p); defer m.Unlock(p)` unwinds
// correctly in that case (Unlock by a non-owner is a no-op, so the
// deferred call of a waiter that was killed before its grant does
// nothing).
type Mutex struct {
	s       *Scheduler
	owner   *Proc
	waiters []*Proc
}

// NewMutex returns an unlocked mutex bound to s.
func NewMutex(s *Scheduler) *Mutex { return &Mutex{s: s} }

// Lock acquires the mutex for p, parking it while the lock is held
// elsewhere.
func (m *Mutex) Lock(p *Proc) {
	if m.owner == nil {
		m.owner = p
		return
	}
	m.waiters = append(m.waiters, p)
	p.waitReason = "mutex"
	p.doYield()
	// Resumed either by a grant (owner == p) or by Kill (which panics
	// out of doYield before reaching here).
}

// Unlock releases the mutex held by p and hands it to the oldest live
// waiter. Unlock by a process that does not own the mutex is a no-op —
// this makes deferred unlocks safe for waiters killed before their
// grant. Unlocking a completely free mutex panics.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner == nil && len(m.waiters) == 0 {
		panic("sim: unlock of unlocked Mutex")
	}
	if m.owner != p {
		return
	}
	for len(m.waiters) > 0 {
		next := m.waiters[0]
		// Shift in place rather than reslice, so the queue's backing
		// array is reused and a grant allocates nothing.
		n := copy(m.waiters, m.waiters[1:])
		m.waiters[n] = nil
		m.waiters = m.waiters[:n]
		if next.state == procDone || next.killed {
			continue // killed while waiting; never grant
		}
		m.owner = next
		m.s.At(m.s.now, next.wake)
		return
	}
	m.owner = nil
}

// TryLock acquires the mutex for p if free, reporting success.
func (m *Mutex) TryLock(p *Proc) bool {
	if m.owner != nil {
		return false
	}
	m.owner = p
	return true
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }
