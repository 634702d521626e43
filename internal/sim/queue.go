package sim

// The event queue. Its contract is a total order: events leave in
// ascending (at, seq), where seq is the simulator's scheduling counter,
// so equal timestamps run in the order they were scheduled.
//
// The structure is built on one rule: an insert whose time is not below
// the tail of its FIFO lane is appended to that lane in O(1); any other
// insert goes to the heap; pop takes the least (at, seq) among the lane
// heads and the heap top. Every lane is therefore sorted, the heap
// yields its least first, and the least of those heads is the least
// element overall — the order is exact whichever lane an insert was
// offered, which makes lane assignment a matter of speed only.
//
// A lane takes the re-arms of one periodic interval, which are monotone
// because each is made at now + interval; one-shot schedules go to the
// heap. The lanes are a fixed array, so a pop compares at most maxLanes
// heads whatever the program does.
//
// Slot arrays double when full (append would grow a large one by a
// quarter at a time), which keeps the bytes allocated over a queue's
// life at twice its final size.

// maxLanes bounds the FIFO lanes: one per distinct periodic interval,
// first come first served. A period created after the array is full
// schedules through the heap.
const maxLanes = 8

// slot is one queued event. The ordering key is held by value so that
// comparing and moving slots never dereferences the event.
type slot struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	ev  *event
}

func (a *slot) before(b *slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// lane is a FIFO ring of slots in ascending (at, seq) order. Popped
// slots are reused, so a lane's array is as large as its deepest
// backlog and no larger.
type lane struct {
	interval Time   // the period this lane serves
	tail     Time   // at of the newest slot
	buf      []slot // ring; len(buf) is zero or a power of two
	head, n  int
}

func (l *lane) push(sl slot) {
	if l.n == len(l.buf) {
		buf := make([]slot, max(16, 2*len(l.buf)))
		for i := 0; i < l.n; i++ {
			buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
		}
		l.buf, l.head = buf, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = sl
	l.n++
	l.tail = sl.at
}

// queue is the simulator's pending-event set (see the file comment).
type queue struct {
	heap  []slot // 4-ary min-heap of everything the lanes did not take
	lanes [maxLanes]lane
	used  int // lanes[:used] are assigned
}

// lane returns the lane serving interval, assigning a free one on first
// use, or nil when all are taken.
func (q *queue) lane(interval Time) *lane {
	for i := range q.lanes[:q.used] {
		if q.lanes[i].interval == interval {
			return &q.lanes[i]
		}
	}
	if q.used == maxLanes {
		return nil
	}
	l := &q.lanes[q.used]
	l.interval = interval
	q.used++
	return l
}

// push inserts sl, offering it to l first (nil: straight to the heap).
// sl.seq is larger than any queued seq, so comparing times alone
// decides whether sl sorts at or after l's tail.
func (q *queue) push(l *lane, sl slot) {
	if l != nil && (l.n == 0 || sl.at >= l.tail) {
		l.push(sl)
		return
	}
	h := q.heap
	if len(h) == cap(h) {
		h = append(make([]slot, 0, max(16, 2*cap(h))), h...)
	}
	i := len(h)
	h = h[:i+1]
	for i > 0 {
		parent := (i - 1) / 4
		if !sl.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = sl
	q.heap = h
}

// peek returns the least queued slot and where it sits: the lane whose
// head it is, or nil for the heap's top. ok is false on an empty queue.
func (q *queue) peek() (src *lane, least slot, ok bool) {
	if len(q.heap) > 0 {
		least, ok = q.heap[0], true
	}
	for i := range q.lanes[:q.used] {
		l := &q.lanes[i]
		if l.n == 0 {
			continue
		}
		if head := &l.buf[l.head]; !ok || head.before(&least) {
			src, least, ok = l, *head, true
		}
	}
	return src, least, ok
}

// pop removes the slot peek just returned from src. Vacated slots keep
// their event pointer: events are pooled for the simulator's lifetime,
// so there is nothing for a cleared slot to release.
func (q *queue) pop(src *lane) {
	if src != nil {
		src.head = (src.head + 1) & (len(src.buf) - 1)
		src.n--
		return
	}
	h := q.heap
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	q.heap = h
	if n == 0 {
		return
	}
	i := 0
	for {
		child := 4*i + 1
		if child >= n {
			break
		}
		least, end := child, min(child+4, n)
		for c := child + 1; c < end; c++ {
			if h[c].before(&h[least]) {
				least = c
			}
		}
		if !h[least].before(&last) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = last
}

// each calls fn for every queued event, in no particular order.
func (q *queue) each(fn func(*event)) {
	for i := range q.heap {
		fn(q.heap[i].ev)
	}
	for i := range q.lanes[:q.used] {
		l := &q.lanes[i]
		for j := 0; j < l.n; j++ {
			fn(l.buf[(l.head+j)&(len(l.buf)-1)].ev)
		}
	}
}
