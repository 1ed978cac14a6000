// Package sim implements a deterministic discrete-event simulation kernel.
//
// All Heron protocol logic runs as cooperative processes (Proc) scheduled
// over a virtual clock. Within one scheduler exactly one process executes
// at a time; control is handed between the scheduler and each process
// through a strict alternation, so executions are fully deterministic for
// a given sequence of Spawn/After calls. Virtual time is advanced only by
// the event queue: a process gives up the CPU by sleeping, waiting on a
// Cond, or exiting, never by blocking on real OS primitives.
//
// The hand-off itself is a runtime coroutine (iter.Pull) when built with
// Go 1.23 or later, so a switch costs a direct goroutine switch with no
// trip through the Go scheduler; older toolchains use a pair of channels
// (proc_coro.go, proc_chan.go). Both give the same alternation, so the
// choice changes host speed only, never a simulated result.
//
// Wakeups allocate nothing in steady state: each Proc carries one wake
// closure and one condition-variable waiter, reused by every Sleep, Cond
// wait and Mutex grant. When Broadcast releases a WaitTimeout waiter it
// cancels the waiter's pending expiry, so polling waits leave no no-op
// timers behind in the event queue.
//
// A Scheduler is also one domain of a parallel simulation (see domain.go):
// independent partitions of a deployment can each own a scheduler, with
// the domains' virtual clocks advanced concurrently on real OS threads
// under a conservative lookahead barrier. A standalone scheduler is the
// degenerate single-domain case and behaves exactly as before.
//
// The kernel is intentionally small: events, processes, condition
// variables, and deadlock detection. Higher-level communication (RDMA
// fabric, message-passing network) is layered on top in other packages.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Time is an absolute virtual-clock instant in nanoseconds since the start
// of the simulation.
type Time int64

// Duration re-exports time.Duration for virtual delays, so call sites read
// naturally (e.g. 2*sim.Microsecond).
type Duration = time.Duration

// Convenience duration units for call sites.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// ErrDeadlock is returned by Run when the event queue drains while
// processes are still blocked: no event can ever wake them again. The
// returned error wraps this sentinel and lists each blocked process with
// its wait reason (use errors.Is to test).
var ErrDeadlock = errors.New("sim: deadlock: no pending events but processes are blocked")

// Scheduler owns the virtual clock and the event queue of one simulation
// domain, and arbitrates which of the domain's processes runs. The zero
// value is not usable; call NewScheduler (standalone) or NewDomains
// (parallel).
type Scheduler struct {
	now      Time
	q        eventQueue
	seq      uint64
	procs    map[*Proc]struct{}
	running  bool
	fatalErr error

	// eventCount counts executed events, for the runaway guard.
	eventCount uint64
	// MaxEvents aborts Run with an error after this many events when
	// non-zero. It is a backstop against accidental infinite event loops
	// in tests.
	MaxEvents uint64

	// Domain coupling; all nil/zero for a standalone scheduler.
	dom   *Domains
	domID int
	// windowEnd is the exclusive bound of the parallel window currently
	// executing, which doubles as the earliest legal delivery time for
	// cross-domain events sent from this domain.
	windowEnd Time
	// crossSeq orders this domain's outgoing cross-domain events.
	crossSeq uint64
	// windowErr carries a window's error to the coordinator.
	windowErr error
	// inbox holds cross-domain events sent to this domain but not yet
	// merged into its queue; guarded by inboxMu because senders append
	// from their own OS threads.
	inboxMu sync.Mutex
	inbox   []crossEvent
	// lateCross counts cross-domain events that violated the lookahead
	// contract and were clamped to the window boundary.
	lateCross uint64
}

// NewScheduler returns an empty standalone scheduler with the clock at
// zero.
func NewScheduler() *Scheduler {
	return &Scheduler{procs: make(map[*Proc]struct{})}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Domain returns the scheduler's domain index (0 for standalone).
func (s *Scheduler) Domain() int { return s.domID }

// At schedules fn to run at absolute time at. Scheduling in the past is an
// error in the caller; the event is clamped to the current time so that
// causality is never violated.
func (s *Scheduler) At(at Time, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.q.push(at, s.seq, fn)
}

// timer is After for a non-negative d, returning a reference to the
// queued event for callers that may cancel it.
func (s *Scheduler) timer(d Duration, fn func()) eventRef {
	s.seq++
	return s.q.push(s.now+Time(d), s.seq, fn)
}

// After schedules fn to run d from now. Negative delays are clamped to 0.
func (s *Scheduler) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+Time(d), fn)
}

// procState tracks where a process is in its lifecycle.
type procState int

const (
	procNew procState = iota + 1
	procRunnable
	procRunning
	procBlocked
	procDone
)

// Proc is a cooperative process. A Proc's body runs on its own goroutine
// but only while the scheduler has handed it control; it must yield by
// calling Sleep, a Cond wait, or returning. All Proc methods must be
// called from the process's own body (they are not safe for use from
// other goroutines or from plain events).
type Proc struct {
	s     *Scheduler
	name  string
	state procState

	// handoff passes the CPU between scheduler and proc (start, resume,
	// yield in proc_coro.go or proc_chan.go).
	handoff

	// wake resumes the proc. It is built once at spawn and reused by
	// every timer and wakeup that targets the proc, so waking allocates
	// nothing.
	wake func()
	// expire is the WaitTimeout expiry event's closure, built on the
	// proc's first timed wait.
	expire func()
	// cw is the proc's condition-variable waiter, reused across waits: a
	// proc waits on at most one Cond at a time, and a released waiter
	// leaves no reference behind (Broadcast cancels its expiry).
	cw condWaiter

	// waitReason says what a blocked process is waiting for; it feeds the
	// deadlock report.
	waitReason string

	// killed requests the proc to stop at its next yield point.
	killed bool
}

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// Scheduler returns the scheduler this process runs on.
func (p *Proc) Scheduler() *Scheduler { return p.s }

// killedErr is the panic payload used to unwind a killed process.
type killedErr struct{ name string }

func (k killedErr) Error() string { return fmt.Sprintf("sim: proc %q killed", k.name) }

// Spawn creates a process that starts at the current virtual time. The
// body runs the first time the scheduler reaches the start event.
//
// A panic in the body ends the process and is returned by Run. A
// runtime.Goexit in the body (t.Fatal, for instance) is not contained:
// with the coroutine hand-off (Go 1.23 and later) it ends the goroutine
// running the scheduler, after the process has been marked done; that is
// the caller of Run, or a worker of Domains.Run. (The channel hand-off of
// older toolchains ends only the process's own goroutine.)
func (s *Scheduler) Spawn(name string, body func(p *Proc)) *Proc {
	return s.SpawnAfter(0, name, body)
}

// SpawnAfter creates a process whose body starts d from now.
func (s *Scheduler) SpawnAfter(d Duration, name string, body func(p *Proc)) *Proc {
	p := &Proc{
		s:     s,
		name:  name,
		state: procNew,
	}
	p.wake = func() { s.step(p) }
	s.procs[p] = struct{}{}
	p.start(func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedErr); !ok {
					if s.fatalErr == nil {
						s.fatalErr = fmt.Errorf("sim: proc %q panicked: %v", p.name, r)
					}
				}
			}
			p.state = procDone
			delete(s.procs, p)
		}()
		if p.killed {
			panic(killedErr{p.name})
		}
		body(p)
	})
	s.After(d, p.wake)
	return p
}

// step hands the CPU to p and blocks the scheduler until p yields it back.
func (s *Scheduler) step(p *Proc) {
	if p.state == procDone {
		return
	}
	p.state = procRunning
	p.resume()
}

// doYield parks the calling process and returns control to the scheduler.
// The caller must already have arranged for a future resume (a timer event
// or a Cond waiter registration), otherwise the process deadlocks.
func (p *Proc) doYield() {
	p.state = procBlocked
	p.yield()
	p.state = procRunning
	p.waitReason = ""
	if p.killed {
		// Woken by Kill: withdraw a still-registered Cond wait so that
		// neither its cond nor its expiry timer keeps the dead proc.
		p.cw.withdraw()
		panic(killedErr{p.name})
	}
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	p.s.After(d, p.wake)
	p.waitReason = "sleep"
	p.doYield()
}

// Yield gives other events scheduled at the current instant a chance to
// run, then resumes. Equivalent to Sleep(0).
func (p *Proc) Yield() { p.Sleep(0) }

// Kill requests the process to terminate. The process unwinds (via panic
// with a recovered sentinel) the next time it would resume from a yield
// point. Killing an already-finished process is a no-op. Kill is intended
// for failure injection in tests and experiments.
func (p *Proc) Kill() {
	if p.state == procDone {
		return
	}
	p.killed = true
	if p.state == procBlocked || p.state == procNew {
		// Wake it up so it can unwind. Waking a Cond waiter twice is
		// harmless: the second resume finds the proc done and is a no-op.
		p.s.At(p.s.now, p.wake)
	}
}

// Killed reports whether Kill has been requested for this process.
func (p *Proc) Killed() bool { return p.killed }

// Run executes events until the queue drains or until an error occurs. It
// returns a deadlock error (errors.Is(err, ErrDeadlock)) naming the
// blocked processes and their wait reasons if processes remain blocked
// with no pending events, and the first process panic if any process
// panicked.
func (s *Scheduler) Run() error {
	return s.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes events with timestamps <= deadline. The clock is left
// at the last executed event's time (or at deadline if the queue emptied
// earlier than deadline but events remain in the future — the clock does
// not jump past pending events).
func (s *Scheduler) RunUntil(deadline Time) error {
	if s.running {
		return errors.New("sim: Run called re-entrantly")
	}
	if s.dom != nil && len(s.dom.members) > 1 {
		return errors.New("sim: RunUntil on a domain member; drive the run through Domains.Run")
	}
	s.running = true
	defer func() { s.running = false }()

	if err := s.runLocal(deadline + 1); err != nil {
		return err
	}
	if s.q.len() > 0 {
		return nil // future events remain past the deadline
	}
	return s.checkLocalDeadlock()
}

// runLocal executes events with timestamps strictly below end, leaving the
// clock at the last executed event. It is the per-domain inner loop of
// both standalone runs and parallel windows.
func (s *Scheduler) runLocal(end Time) error {
	for {
		if s.fatalErr != nil {
			return s.fatalErr
		}
		at, ok := s.q.peek()
		if !ok || at >= end {
			return nil
		}
		at, fn := s.q.pop()
		s.now = at
		s.eventCount++
		if s.MaxEvents != 0 && s.eventCount > s.MaxEvents {
			return fmt.Errorf("sim: exceeded MaxEvents=%d at t=%v", s.MaxEvents, s.now)
		}
		fn()
	}
}

// checkLocalDeadlock returns the deadlock error if any of this domain's
// processes are blocked (the caller has established that no event can
// wake them), or nil.
func (s *Scheduler) checkLocalDeadlock() error {
	if s.fatalErr != nil {
		return s.fatalErr
	}
	if n := s.blockedProcs(); len(n) > 0 {
		return deadlockError(n)
	}
	return nil
}

// deadlockError builds the wrapped ErrDeadlock listing blocked processes.
func deadlockError(blocked []string) error {
	return fmt.Errorf("%w: [%s]", ErrDeadlock, joinBlocked(blocked))
}

func joinBlocked(blocked []string) string {
	out := ""
	for i, b := range blocked {
		if i > 0 {
			out += "; "
		}
		out += b
	}
	return out
}

// blockedProcs returns a sorted "name (wait reason)" listing of processes
// that can never run again because the event queue is empty.
func (s *Scheduler) blockedProcs() []string {
	var names []string
	for p := range s.procs {
		if p.state == procBlocked {
			reason := p.waitReason
			if reason == "" {
				reason = "blocked"
			}
			names = append(names, fmt.Sprintf("%s (%s)", p.name, reason))
		}
	}
	sort.Strings(names)
	return names
}

// LiveProcs returns the number of processes that have been spawned and
// have not yet finished.
func (s *Scheduler) LiveProcs() int { return len(s.procs) }

// EventCount returns the number of events executed so far.
func (s *Scheduler) EventCount() uint64 { return s.eventCount }
