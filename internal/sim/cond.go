package sim

// Cond is a virtual-time condition variable. Processes block on it with
// Wait or WaitTimeout and are released by Broadcast. Unlike sync.Cond
// there is no associated lock: the simulation is single-threaded, so
// predicates re-checked after a wakeup cannot race.
type Cond struct {
	s       *Scheduler
	waiters []*condWaiter

	// Reason, when set, labels what blocked waiters are waiting for in
	// deadlock reports (e.g. "chan recv", "write-notify").
	Reason string
}

// condWaiter is a proc's registration on a Cond. Each Proc owns one and
// reuses it for every wait (Proc.cw).
type condWaiter struct {
	p *Proc
	// c is the cond being waited on.
	c *Cond
	// active distinguishes a live waiter from one already released (by
	// broadcast or timeout).
	active   bool
	timedOut bool
	// timer is a WaitTimeout's pending expiry event (timer.ev is nil for
	// Wait); releasing the waiter cancels it.
	timer eventRef
}

// NewCond returns a condition variable bound to s.
func NewCond(s *Scheduler) *Cond { return &Cond{s: s} }

// register enrolls p's waiter on c and labels the wait.
func (c *Cond) register(p *Proc) *condWaiter {
	w := &p.cw
	*w = condWaiter{p: p, c: c, active: true}
	c.waiters = append(c.waiters, w)
	p.waitReason = c.waitReason()
	return w
}

// Wait blocks the calling process until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.register(p)
	p.doYield()
}

// waitReason labels waits on this cond for deadlock reports.
func (c *Cond) waitReason() string {
	if c.Reason != "" {
		return c.Reason
	}
	return "cond wait"
}

// WaitTimeout blocks the calling process until the next Broadcast or until
// d elapses. It reports true if the process was woken by Broadcast and
// false on timeout.
func (c *Cond) WaitTimeout(p *Proc, d Duration) bool {
	w := c.register(p)
	if p.expire == nil {
		p.expire = p.timeout
	}
	if d < 0 {
		d = 0
	}
	w.timer = c.s.timer(d, p.expire)
	p.doYield()
	return !w.timedOut
}

// timeout is the expiry event of a WaitTimeout: the wait ends unanswered.
// It only runs for a waiter still registered: whatever releases a waiter
// earlier (Broadcast, or Kill through withdraw) cancels the event.
func (p *Proc) timeout() {
	w := &p.cw
	w.active = false
	w.timedOut = true
	w.timer = eventRef{}
	w.c.remove(w)
	p.s.step(p)
}

// Broadcast releases every currently blocked waiter. Waiters resume at the
// current virtual time, in the order they started waiting, after the
// currently running event completes.
func (c *Cond) Broadcast() {
	for i, w := range c.waiters {
		c.waiters[i] = nil
		if !w.active {
			continue
		}
		w.release()
		c.s.At(c.s.now, w.p.wake)
	}
	c.waiters = c.waiters[:0]
}

// release marks w no longer waiting and cancels its pending expiry.
func (w *condWaiter) release() {
	w.active = false
	if w.timer.ev != nil {
		w.c.s.q.cancel(w.timer)
		w.timer = eventRef{}
	}
}

// withdraw takes a still-registered waiter off its cond, for a proc that
// stops waiting without a wakeup from the cond (Kill).
func (w *condWaiter) withdraw() {
	if !w.active {
		return
	}
	w.release()
	w.c.remove(w)
}

// remove drops w from the waiter list.
func (c *Cond) remove(w *condWaiter) {
	for i, x := range c.waiters {
		if x == w {
			n := len(c.waiters) - 1
			copy(c.waiters[i:], c.waiters[i+1:])
			c.waiters[n] = nil
			c.waiters = c.waiters[:n]
			return
		}
	}
}

// WaitUntil blocks p until pred() is true, re-evaluating after every
// Broadcast on c. If pred is already true it returns immediately without
// yielding.
func (c *Cond) WaitUntil(p *Proc, pred func() bool) {
	for !pred() {
		c.Wait(p)
	}
}

// WaitUntilTimeout blocks p until pred() is true or until d of virtual
// time has elapsed in total. It reports whether pred became true.
func (c *Cond) WaitUntilTimeout(p *Proc, d Duration, pred func() bool) bool {
	deadline := c.s.now + Time(d)
	for !pred() {
		remaining := Duration(deadline - c.s.now)
		if remaining <= 0 {
			return pred()
		}
		if !c.WaitTimeout(p, remaining) {
			return pred()
		}
	}
	return true
}
