package sim

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// A WaitTimeout waiter released by Broadcast must leave nothing behind in
// the queue: its expiry would only run as a no-op, cost an event, and keep
// a heap bucket alive until it fired.
func TestBroadcastCancelsWaitTimeoutTimer(t *testing.T) {
	s := NewScheduler()
	c := NewCond(s)
	var signaled bool
	s.Spawn("waiter", func(p *Proc) {
		signaled = c.WaitTimeout(p, 100*Microsecond)
	})
	pending := -1
	s.After(Microsecond, func() {
		c.Broadcast()
		pending = s.q.len() // just the waiter's wakeup
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !signaled {
		t.Fatal("waiter should have been signaled")
	}
	if pending != 1 {
		t.Fatalf("pending events after Broadcast = %d, want 1 (the wakeup alone)", pending)
	}
	// Start, broadcast and wakeup; the cancelled expiry never runs and
	// never moves the clock.
	if n := s.EventCount(); n != 3 {
		t.Fatalf("events = %d, want 3", n)
	}
	if s.Now() != Time(Microsecond) {
		t.Fatalf("clock = %d, want %d", s.Now(), Time(Microsecond))
	}
}

// refEvent is one pending event of the reference queue.
type refEvent struct {
	at  Time
	seq uint64
}

// popSeq pops q's next event and runs it to learn its sequence number:
// the queue tests push closures that report it.
func popSeq(q *eventQueue, ran *uint64) (Time, uint64) {
	at, fn := q.pop()
	fn()
	return at, *ran
}

// TestQueueCancelMatchesSortedReference drives the bucket heap with random
// pushes, cancels and pops and checks every pop against a sorted slice:
// the order must be exactly (at, seq), including same-instant buckets and
// cancels of a bucket's first, middle or last event.
func TestQueueCancelMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref []refEvent
		refs := map[uint64]eventRef{}
		var seq, ran uint64
		var now Time
		for step := 0; step < 5000; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // push, often at an instant that already has a bucket
				at := now + Time(rng.Intn(4))
				if rng.Intn(3) == 0 && len(ref) > 0 {
					at = ref[rng.Intn(len(ref))].at
				}
				seq++
				id := seq
				refs[id] = q.push(at, id, func() { ran = id })
				ref = append(ref, refEvent{at, id})
			case op < 7: // cancel a random pending event
				if len(ref) == 0 {
					continue
				}
				i := rng.Intn(len(ref))
				q.cancel(refs[ref[i].seq])
				ref = append(ref[:i], ref[i+1:]...)
			default: // pop
				if len(ref) == 0 {
					continue
				}
				sort.Slice(ref, func(i, j int) bool {
					if ref[i].at != ref[j].at {
						return ref[i].at < ref[j].at
					}
					return ref[i].seq < ref[j].seq
				})
				want := ref[0]
				ref = ref[1:]
				if at, ok := q.peek(); !ok || at != want.at {
					t.Fatalf("seed %d step %d: peek = %d,%v, want %d", seed, step, at, ok, want.at)
				}
				at, got := popSeq(&q, &ran)
				if at != want.at || got != want.seq {
					t.Fatalf("seed %d step %d: pop = (%d,%d), want (%d,%d)",
						seed, step, at, got, want.at, want.seq)
				}
				now = at
			}
			if q.len() != len(ref) {
				t.Fatalf("seed %d step %d: len = %d, want %d", seed, step, q.len(), len(ref))
			}
			for i, b := range q.heap {
				if b.idx != i || b.pos+b.dead >= len(b.evs) {
					t.Fatalf("seed %d step %d: bucket %d has idx %d and no live event", seed, step, i, b.idx)
				}
			}
		}
	}
}

// TestQueueCancelWithinBucket pins the bucket cases: cancelling the middle
// or last event of a same-instant bucket leaves a tombstone that pop
// skips; cancelling every event drops the bucket from the heap.
func TestQueueCancelWithinBucket(t *testing.T) {
	var q eventQueue
	var ran uint64
	push := func(at Time, seq uint64) eventRef {
		return q.push(at, seq, func() { ran = seq })
	}
	refs := make([]eventRef, 4)
	for i := range refs {
		refs[i] = push(10, uint64(i+1))
	}
	later := push(20, 5)
	q.cancel(refs[1]) // middle
	q.cancel(refs[3]) // last
	q.cancel(refs[3]) // twice is a no-op
	var got []uint64
	for q.len() > 0 {
		_, seq := popSeq(&q, &ran)
		got = append(got, seq)
	}
	if want := []uint64{1, 3, 5}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("pop order %v, want %v", got, want)
	}
	q.cancel(later) // already popped: no-op

	a := push(30, 6)
	b := push(30, 7)
	push(40, 8)
	q.cancel(a)
	q.cancel(b)
	if len(q.heap) != 1 || q.heap[0].at != 40 {
		t.Fatalf("fully cancelled bucket still in the heap: %d buckets", len(q.heap))
	}
	// A push at the dropped instant opens a fresh bucket, and a cancel
	// through a stale reference to a recycled event is ignored.
	push(30, 9)
	q.cancel(a)
	if at, seq := popSeq(&q, &ran); at != 30 || seq != 9 {
		t.Fatalf("pop = (%d,%d), want (30,9)", at, seq)
	}
}

// Steady-state wakeups allocate nothing: Sleep, a Broadcast wake, and a
// WaitTimeout either expiring or released by Broadcast.
func TestWakeupsDoNotAllocate(t *testing.T) {
	cases := map[string]func(s *Scheduler){
		"sleep": func(s *Scheduler) {
			s.Spawn("sleeper", func(p *Proc) {
				for {
					p.Sleep(Microsecond)
				}
			})
		},
		"broadcast": func(s *Scheduler) {
			c := NewCond(s)
			s.Spawn("waiter", func(p *Proc) {
				for {
					c.Wait(p)
				}
			})
			s.Spawn("signaler", func(p *Proc) {
				for {
					p.Sleep(Microsecond)
					c.Broadcast()
				}
			})
		},
		"waittimeout-expires": func(s *Scheduler) {
			c := NewCond(s)
			s.Spawn("waiter", func(p *Proc) {
				for {
					c.WaitTimeout(p, Microsecond)
				}
			})
		},
		"waittimeout-released": func(s *Scheduler) {
			c := NewCond(s)
			s.Spawn("waiter", func(p *Proc) {
				for {
					c.WaitTimeout(p, 10*Microsecond)
				}
			})
			s.Spawn("signaler", func(p *Proc) {
				for {
					p.Sleep(Microsecond)
					c.Broadcast()
				}
			})
		},
		"mutex": func(s *Scheduler) {
			m := NewMutex(s)
			for i := 0; i < 2; i++ {
				s.Spawn("locker", func(p *Proc) {
					for {
						m.Lock(p)
						p.Sleep(Microsecond)
						m.Unlock(p)
					}
				})
			}
		},
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			s := NewScheduler()
			setup(s)
			advance := func() {
				if err := s.RunUntil(s.Now() + Time(Microsecond)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 10; i++ {
				advance() // warm the free lists and waiter slices
			}
			if n := testing.AllocsPerRun(200, advance); n != 0 {
				t.Fatalf("%v allocations per microsecond of steady state, want 0", n)
			}
		})
	}
}

// Kill still unwinds procs parked in WaitTimeout and Mutex.Lock: their
// expiry is cancelled with the wait, they leave the live set, and the
// deadlock report names only the procs that are really stuck.
func TestKillTimedAndMutexWaiters(t *testing.T) {
	s := NewScheduler()
	c := NewCond(s)
	park := NewCond(s)
	park.Reason = "park"
	m := NewMutex(s)
	var reached bool
	timed := s.Spawn("timed", func(p *Proc) {
		c.WaitTimeout(p, Millisecond)
		reached = true
	})
	s.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		park.Wait(p) // never broadcast: holds m forever
	})
	locker := s.SpawnAfter(Microsecond, "locker", func(p *Proc) {
		m.Lock(p)
		reached = true
	})
	s.After(5*Microsecond, func() {
		timed.Kill()
		locker.Kill()
	})
	s.After(6*Microsecond, func() {
		c.Broadcast() // the killed waiter is gone: wakes nobody
	})
	err := s.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if reached {
		t.Fatal("a killed proc continued past its yield point")
	}
	if msg := err.Error(); !strings.Contains(msg, "holder (park)") || strings.Contains(msg, "timed") || strings.Contains(msg, "locker") {
		t.Fatalf("deadlock report %q, want only holder (park)", msg)
	}
	if n := s.LiveProcs(); n != 1 {
		t.Fatalf("live procs = %d, want 1 (holder)", n)
	}
	if s.Now() != Time(6*Microsecond) {
		t.Fatalf("clock = %d: the killed waiter's expiry was not cancelled", s.Now())
	}
	if len(c.waiters) != 0 {
		t.Fatalf("killed waiter still registered on its cond")
	}
}

// Killing every waiter lets the run end cleanly.
func TestKillAllWaitersDrains(t *testing.T) {
	s := NewScheduler()
	c := NewCond(s)
	m := NewMutex(s)
	var procs []*Proc
	procs = append(procs, s.Spawn("timed", func(p *Proc) { c.WaitTimeout(p, Millisecond) }))
	procs = append(procs, s.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		defer m.Unlock(p)
		c.Wait(p)
	}))
	procs = append(procs, s.Spawn("locker", func(p *Proc) {
		m.Lock(p)
		defer m.Unlock(p)
	}))
	s.After(Microsecond, func() {
		for _, p := range procs {
			p.Kill()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := s.LiveProcs(); n != 0 {
		t.Fatalf("live procs = %d, want 0", n)
	}
	if m.Locked() {
		t.Fatal("mutex still held after every proc was killed")
	}
}
