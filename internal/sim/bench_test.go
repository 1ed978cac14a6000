package sim

import "testing"

// BenchmarkEventThroughput measures raw event scheduling + dispatch.
func BenchmarkEventThroughput(b *testing.B) {
	s := NewScheduler()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < b.N {
			s.After(Microsecond, chain)
		}
	}
	s.After(Microsecond, chain)
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSwitch measures process context-switch cost (sleep/wake).
func BenchmarkProcSwitch(b *testing.B) {
	s := NewScheduler()
	s.Spawn("switcher", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCondBroadcast measures wait/broadcast pairs.
func BenchmarkCondBroadcast(b *testing.B) {
	s := NewScheduler()
	c := NewCond(s)
	s.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Wait(p)
		}
	})
	s.Spawn("signaler", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
			c.Broadcast()
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// Queue microbenchmarks. oldHeap reproduces the scheduler's previous
// event queue — a plain binary heap of per-event allocations, no free
// list, no same-time bucketing — so old and new can be compared like for
// like (recorded numbers live in EXPERIMENTS.md).

type oldEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type oldHeap struct {
	evs []*oldEvent
	seq uint64
}

func (h *oldHeap) push(at Time, fn func()) {
	ev := &oldEvent{at: at, seq: h.seq, fn: fn}
	h.seq++
	h.evs = append(h.evs, ev)
	i := len(h.evs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.evs[i], h.evs[parent] = h.evs[parent], h.evs[i]
		i = parent
	}
}

func (h *oldHeap) less(i, j int) bool {
	a, b := h.evs[i], h.evs[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *oldHeap) pop() *oldEvent {
	root := h.evs[0]
	last := len(h.evs) - 1
	h.evs[0] = h.evs[last]
	h.evs[last] = nil
	h.evs = h.evs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.evs) && h.less(l, small) {
			small = l
		}
		if r < len(h.evs) && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h.evs[i], h.evs[small] = h.evs[small], h.evs[i]
		i = small
	}
	return root
}

var sinkTime Time

func nop() {}

// Dense burst: many events at the same instant, the pattern produced by a
// message fan-out or an open-loop arrival batch. The calendar queue turns
// each push into an O(1) append on the live bucket.
func BenchmarkQueueDenseBurstNew(b *testing.B) {
	const burst = 256
	var q eventQueue
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := Time(i)
		for j := 0; j < burst; j++ {
			q.push(at, uint64(i*burst+j), nop)
		}
		for q.len() > 0 {
			sinkTime, _ = q.pop()
		}
	}
}

func BenchmarkQueueDenseBurstOld(b *testing.B) {
	const burst = 256
	var h oldHeap
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := Time(i)
		for j := 0; j < burst; j++ {
			h.push(at, nop)
		}
		for len(h.evs) > 0 {
			sinkTime = h.pop().at
		}
	}
}

// Timer wheel: push/pop with strictly increasing times and a standing
// population, the steady-state pattern of per-proc timers.
func BenchmarkQueueTimerNew(b *testing.B) {
	const standing = 1024
	var q eventQueue
	for j := 0; j < standing; j++ {
		q.push(Time(j), uint64(j), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, _ := q.pop()
		sinkTime = at
		q.push(at+standing, uint64(standing+i), nop)
	}
}

func BenchmarkQueueTimerOld(b *testing.B) {
	const standing = 1024
	var h oldHeap
	for j := 0; j < standing; j++ {
		h.push(Time(j), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.pop()
		sinkTime = ev.at
		h.push(ev.at+standing, nop)
	}
}

// End to end: the scheduler executing windows of same-time callbacks, the
// shape of a fabric hop fan-in. Exercises free list, bucket reuse, and
// the run loop together.
func BenchmarkSchedulerFanout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		var fired int
		for w := 0; w < 64; w++ {
			at := Time(w * 100)
			for j := 0; j < 32; j++ {
				s.At(at, func() { fired++ })
			}
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		if fired != 64*32 {
			b.Fatal("missed events")
		}
	}
}
