package sim

// eventQueue is the scheduler's pending-event structure: a calendar-style
// bucket heap tuned for the simulation's two dominant scheduling
// patterns. The NIC and transport models emit dense bursts of events at
// exactly the same instant (a multicast write fans out to every replica
// with identical completion math), which a plain binary heap pays
// O(log n) per event for; here a burst lands in one bucket with an O(1)
// append. Timer-style monotone scheduling degenerates to one bucket per
// event, costing the same heap push as before but with both the event and
// the bucket recycled through free lists, killing the per-After
// allocation on the hot path.
//
// Pending events can be cancelled (cancel). A bucket whose last live
// event is cancelled leaves the heap at once, through the heap index it
// carries; an event cancelled beside live ones stays in its bucket as a
// tombstone, and pop skips it. Either way a cancelled event never runs,
// never moves the clock and is never counted.
//
// Determinism contract: pop order is exactly (at, seq) — byte-identical
// to the binary heap it replaced. Buckets with equal timestamps can
// coexist in the heap; they are ordered by the sequence number of their
// first event, and events are only ever appended to the most recently
// targeted bucket, so the sequence ranges of equal-time buckets never
// interleave.
type eventQueue struct {
	heap []*bucket
	// last is the bucket most recently pushed into; the burst fast path.
	last *bucket
	// size counts live (scheduled, not cancelled) events.
	size   int
	freeEv []*event
	freeBk []*bucket
}

// event is a scheduled closure. Events with equal time run in the order
// they were scheduled (seq breaks ties), which keeps runs deterministic.
type event struct {
	at  Time
	seq uint64
	// fn is nil for a tombstone (a cancelled event still in its bucket)
	// and for an event on the free list.
	fn func()
}

// bucket holds every event scheduled for one exact timestamp, in FIFO
// (= sequence) order. pos is the consumption cursor, so draining and
// same-instant appends can interleave without copying.
type bucket struct {
	at       Time
	firstSeq uint64
	evs      []*event
	pos      int
	// dead counts the tombstones in evs[pos:]; the bucket leaves the
	// heap as soon as they are all it has left.
	dead int
	// idx is the bucket's position in the heap.
	idx int
}

// eventRef identifies a pushed event for cancel.
type eventRef struct {
	ev  *event
	b   *bucket
	seq uint64
}

func (q *eventQueue) len() int { return q.size }

// peek returns the earliest pending timestamp. Every bucket in the heap
// holds a live event, so the root's time is exact.
func (q *eventQueue) peek() (Time, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

// push schedules fn at (at, seq). Callers must push with strictly
// increasing seq.
func (q *eventQueue) push(at Time, seq uint64, fn func()) eventRef {
	q.size++
	var ev *event
	if n := len(q.freeEv); n > 0 {
		ev = q.freeEv[n-1]
		q.freeEv = q.freeEv[:n-1]
		ev.at, ev.seq, ev.fn = at, seq, fn
	} else {
		ev = &event{at: at, seq: seq, fn: fn}
	}
	if b := q.last; b != nil && b.at == at {
		b.evs = append(b.evs, ev)
		return eventRef{ev, b, seq}
	}
	var b *bucket
	if n := len(q.freeBk); n > 0 {
		b = q.freeBk[n-1]
		q.freeBk = q.freeBk[:n-1]
	} else {
		b = &bucket{}
	}
	b.at, b.firstSeq = at, seq
	b.evs = append(b.evs, ev)
	q.last = b
	b.idx = len(q.heap)
	q.heap = append(q.heap, b)
	q.siftUp(b.idx)
	return eventRef{ev, b, seq}
}

// pop removes the earliest live event (min (at, seq)) and returns its
// time and closure, recycling the event and the tombstones it passes.
// pop panics on an empty queue.
func (q *eventQueue) pop() (Time, func()) {
	b := q.heap[0]
	at := b.at
	for {
		ev := b.evs[b.pos]
		b.evs[b.pos] = nil
		b.pos++
		fn := ev.fn
		q.recycle(ev)
		if fn == nil {
			b.dead--
			continue
		}
		q.size--
		if b.pos+b.dead == len(b.evs) {
			q.dropBucket(b)
		}
		return at, fn
	}
}

// cancel removes a pending event so that it never runs. An event that
// has already run or been cancelled is left alone: popping clears its
// closure, and a later push that reuses it brings a new sequence number.
func (q *eventQueue) cancel(r eventRef) {
	if r.ev.seq != r.seq || r.ev.fn == nil {
		return
	}
	r.ev.fn = nil
	q.size--
	b := r.b
	if b.dead++; b.pos+b.dead == len(b.evs) {
		q.dropBucket(b)
	}
}

// dropBucket removes a bucket without live events from the heap and
// recycles it along with the tombstones it still holds.
func (q *eventQueue) dropBucket(b *bucket) {
	q.removeAt(b.idx)
	if q.last == b {
		q.last = nil
	}
	if b.dead > 0 {
		for i, ev := range b.evs[b.pos:] {
			q.recycle(ev)
			b.evs[b.pos+i] = nil
		}
	}
	b.evs = b.evs[:0]
	b.pos, b.dead = 0, 0
	q.freeBk = append(q.freeBk, b)
}

// recycle returns an executed or cancelled event to the free list.
func (q *eventQueue) recycle(ev *event) {
	ev.fn = nil
	q.freeEv = append(q.freeEv, ev)
}

// before orders buckets by (at, firstSeq).
func before(a, b *bucket) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.firstSeq < b.firstSeq
}

// siftUp and siftDown move a hole rather than swapping, so each level
// costs one slot and one index write, and a bucket already in place
// costs none.
func (q *eventQueue) siftUp(i int) {
	b := q.heap[i]
	j := i
	for j > 0 {
		parent := (j - 1) / 2
		pb := q.heap[parent]
		if !before(b, pb) {
			break
		}
		q.heap[j], pb.idx = pb, j
		j = parent
	}
	if j != i {
		q.heap[j], b.idx = b, j
	}
}

// removeAt deletes the bucket at heap position i.
func (q *eventQueue) removeAt(i int) {
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap[n] = nil
	q.heap = q.heap[:n]
	if i < n {
		q.heap[i], last.idx = last, i
		q.siftDown(i)
		q.siftUp(i)
	}
}

func (q *eventQueue) siftDown(i int) {
	n := len(q.heap)
	b := q.heap[i]
	j := i
	for {
		c := 2*j + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(q.heap[r], q.heap[c]) {
			c = r
		}
		cb := q.heap[c]
		if !before(cb, b) {
			break
		}
		q.heap[j], cb.idx = cb, j
		j = c
	}
	if j != i {
		q.heap[j], b.idx = b, j
	}
}
