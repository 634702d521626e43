package sim

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"
)

// The reference simulator: the kernel as it was before the lanes — one
// container/heap of *refEvent ordered by (at, seq) — with Every and
// EveryElidable written on its At/After exactly as Ticker and Elider
// are written on the real one, so both issue the same schedule calls in
// the same order. It pools nothing: a stop function points at its own
// event for good, which is the behaviour the real simulator's
// generation check has to reproduce.

type refEvent struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	done     bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type refSim struct {
	now      Time
	seq      uint64
	queue    refHeap
	executed uint64
	unqueued int // series firings the real simulator has not queued yet
}

func (s *refSim) Now() Time        { return s.now }
func (s *refSim) Executed() uint64 { return s.executed }

// Pending counts a series as the real simulator does: the firings after
// the one queued are in this heap already, but not pending there.
func (s *refSim) Pending() int {
	n := 0
	for _, ev := range s.queue {
		if !ev.canceled {
			n++
		}
	}
	return n - s.unqueued
}

func (s *refSim) at(at Time, fn func()) *refEvent {
	if at < s.now {
		at = s.now
	}
	ev := &refEvent{at: at, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, ev)
	return ev
}

func (ev *refEvent) stop() bool {
	if ev.done || ev.canceled {
		return false
	}
	ev.canceled = true
	return true
}

func (s *refSim) At(at Time, fn func()) func() bool { return s.at(at, fn).stop }

// AtSorted is At: the sorted lane is a cost, not an order.
func (s *refSim) AtSorted(at Time, fn func()) func() bool { return s.at(at, fn).stop }

// Series is n back-to-back At calls. The real series queues firing k+1
// from firing k, before or after fire(k) as nextFirst says; unqueued
// counts the firings it has yet to queue.
func (s *refSim) Series(times []Time, nextFirst bool, fire func(k int)) {
	s.unqueued += len(times) - 1
	for k, at := range times {
		s.at(at, func() {
			more := k+1 < len(times)
			if more && nextFirst {
				s.unqueued--
			}
			fire(k)
			if more && !nextFirst {
				s.unqueued--
			}
		})
	}
}

func (s *refSim) After(d time.Duration, fn func()) func() bool {
	return s.at(s.now+Time(max(d, 0)), fn).stop
}

func (s *refSim) Every(interval time.Duration, fn func()) func() {
	var (
		ev      *refEvent
		stopped bool
		arm     func()
	)
	arm = func() {
		ev = s.at(s.now+Time(interval), func() {
			if stopped {
				return
			}
			fn()
			if !stopped {
				arm()
			}
		})
	}
	arm()
	return func() { stopped = true; ev.stop() }
}

// refElider is Elider on the reference kernel, line for line.
type refElider struct {
	sim      *refSim
	interval Time
	run      func()
	quiet    func() int
	credit   func(int)
	lastFire Time
	elided   int
	ev       *refEvent
	stopped  bool
}

func (s *refSim) EveryElidable(interval time.Duration, run func(), quiet func() int, credit func(int)) (wake, stop func()) {
	e := &refElider{sim: s, interval: Time(interval), run: run, quiet: quiet, credit: credit, lastFire: s.now}
	e.ev = s.at(e.lastFire+e.interval, e.fire)
	return e.wake, e.stopTask
}

func (e *refElider) fire() {
	if e.stopped {
		return
	}
	if n := e.elided; n > 0 {
		e.elided = 0
		e.lastFire += Time(n) * e.interval
		e.credit(n)
	}
	e.lastFire += e.interval
	e.run()
	if e.stopped {
		return
	}
	n := min(e.quiet(), maxElideRounds)
	if n > 0 {
		e.elided = n
		e.ev = e.sim.at(e.lastFire+Time(n+1)*e.interval, e.fire)
	} else {
		e.ev = e.sim.at(e.lastFire+e.interval, e.fire)
	}
}

func (e *refElider) settle() {
	n := e.elided
	if n == 0 {
		return
	}
	e.elided = 0
	if done := min(int((e.sim.now-e.lastFire)/e.interval), n); done > 0 {
		e.lastFire += Time(done) * e.interval
		e.credit(done)
	}
}

func (e *refElider) wake() {
	if e.stopped || e.elided == 0 {
		return
	}
	e.settle()
	e.ev.stop()
	e.ev = e.sim.at(e.lastFire+e.interval, e.fire)
}

func (e *refElider) stopTask() {
	if e.stopped {
		return
	}
	e.settle()
	e.stopped = true
	e.ev.stop()
}

func (s *refSim) RunUntil(until Time) {
	for len(s.queue) > 0 {
		next := s.queue[0]
		if !next.canceled && next.at > until {
			break
		}
		heap.Pop(&s.queue)
		if next.canceled {
			continue
		}
		next.done = true
		s.now = next.at
		s.executed++
		next.fn()
	}
	if s.now < until {
		s.now = until
	}
}

// world is what a test program drives: the real simulator or the
// reference behind one surface.
type world interface {
	Now() Time
	At(Time, func()) (stop func() bool)
	AtSorted(Time, func()) (stop func() bool)
	After(time.Duration, func()) (stop func() bool)
	Every(time.Duration, func()) (stop func())
	EveryElidable(d time.Duration, run func(), quiet func() int, credit func(int)) (wake, stop func())
	// Series fires fire(k) at times[k], which never decrease and start
	// at or after Now; nextFirst queues each next firing before fire(k)
	// rather than after it.
	Series(times []Time, nextFirst bool, fire func(k int))
	RunUntil(Time)
	Executed() uint64
	Pending() int
}

type realWorld struct{ *Simulator }

func (w realWorld) At(at Time, fn func()) func() bool {
	t := w.Simulator.At(at, fn)
	return t.Stop
}

func (w realWorld) AtSorted(at Time, fn func()) func() bool {
	t := w.Simulator.AtSorted(at, fn)
	return t.Stop
}

func (w realWorld) After(d time.Duration, fn func()) func() bool {
	t := w.Simulator.After(d, fn)
	return t.Stop
}

func (w realWorld) Every(d time.Duration, fn func()) func() { return w.Simulator.Every(d, fn).Stop }

func (w realWorld) Series(times []Time, nextFirst bool, fire func(k int)) {
	var (
		sr  Series
		k   int
		run func()
	)
	run = func() {
		i := k
		k++
		if k < len(times) && nextFirst {
			sr.Next(w.Simulator, times[k], run)
		}
		fire(i)
		if k < len(times) && !nextFirst {
			sr.Next(w.Simulator, times[k], run)
		}
	}
	sr = w.Simulator.Series(times[0], len(times), run)
}

func (w realWorld) EveryElidable(d time.Duration, run func(), quiet func() int, credit func(int)) (wake, stop func()) {
	e := w.Simulator.EveryElidable(d, run, quiet, credit)
	return e.Wake, e.Stop
}

// firing is one observable step of a program: callback id ran at time
// at; rounds > 0 marks an elider's credit of that many rounds.
type firing struct {
	id     int
	at     Time
	rounds int
}

// program is a seeded random walk over the scheduling API. Two
// instances with the same seed make the same calls for as long as
// their worlds fire the same callbacks in the same order — every
// decision inside a callback is drawn from the instance's own
// generator — so the first reordering shows up in the logs and
// everything after it diverges.
type program struct {
	w         world
	rng       *rand.Rand
	log       []firing
	ids       int
	budget    int  // one-shot schedules left; keeps a program finite
	sorted    Time // the last AtSorted time
	series    int  // series started
	intervals []time.Duration
	timers    []func() bool
	tickers   []func()
	eliders   []struct{ wake, stop func() }
}

func newProgram(w world, seed uint64) *program {
	p := &program{w: w, rng: rand.New(rand.NewPCG(seed, 22)), budget: 1500}
	pool := []time.Duration{2, 3, 5, 7, 10, 20}
	p.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for _, ms := range pool[:3+p.rng.IntN(4)] {
		p.intervals = append(p.intervals, ms*time.Millisecond)
	}
	return p
}

// callback mints a callback that logs its firing and then, one time in
// three, acts from inside the event.
func (p *program) callback() func() {
	id := p.ids
	p.ids++
	return func() {
		p.log = append(p.log, firing{id: id, at: p.w.Now()})
		for p.rng.IntN(3) == 0 {
			p.act(true)
		}
	}
}

func (p *program) oneShot(at func(func()) func() bool) {
	if p.budget > 0 {
		p.budget--
		p.timers = append(p.timers, at(p.callback()))
	}
}

func (p *program) act(inCallback bool) {
	w, rng := p.w, p.rng
	ms := func(n int) time.Duration { return time.Duration(rng.IntN(n)) * time.Millisecond }
	switch k := rng.IntN(22); {
	case k < 4: // a repeated delay
		d := []time.Duration{0, time.Millisecond, time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond}[rng.IntN(5)]
		p.oneShot(func(fn func()) func() bool { return w.After(d, fn) })
	case k < 7: // a jittered delay
		d := time.Duration(rng.IntN(20_000)) * time.Microsecond
		p.oneShot(func(fn func()) func() bool { return w.After(d, fn) })
	case k < 10: // an absolute time: past, now or future
		at := w.Now() + Time(ms(30)) - Time(10*time.Millisecond)
		if rng.IntN(4) == 0 {
			at = w.Now()
		}
		p.oneShot(func(fn func()) func() bool { return w.At(at, fn) })
	case k < 12: // an ascending burst, some of it on equal timestamps
		at := w.Now() + Time(ms(30))
		for i, n := 0, 2+rng.IntN(7); i < n; i++ {
			at += Time(ms(2))
			p.oneShot(func(fn func()) func() bool { return w.At(at, fn) })
		}
	case k < 13:
		if len(p.tickers) < 12 {
			p.tickers = append(p.tickers, w.Every(p.intervals[rng.IntN(len(p.intervals))], p.callback()))
		}
	case k < 14:
		if len(p.eliders) < 8 {
			id := p.ids
			run := p.callback()
			quiet := func() int { return []int{0, 0, 0, 0, 0, 1, 2, 4, 9, 50}[rng.IntN(10)] }
			credit := func(n int) { p.log = append(p.log, firing{id: id, at: w.Now(), rounds: n}) }
			wake, stop := w.EveryElidable(p.intervals[rng.IntN(len(p.intervals))], run, quiet, credit)
			p.eliders = append(p.eliders, struct{ wake, stop func() }{wake, stop})
		}
	case k < 17: // stop a timer, fired or not; the answer is observable
		if len(p.timers) > 0 {
			id := -1
			if p.timers[rng.IntN(len(p.timers))]() {
				id = -2
			}
			p.log = append(p.log, firing{id: id, at: w.Now()})
		}
	case k < 18:
		if len(p.tickers) > 0 && rng.IntN(3) == 0 {
			p.tickers[rng.IntN(len(p.tickers))]()
		}
	case k < 19:
		if len(p.eliders) > 0 {
			if e := p.eliders[rng.IntN(len(p.eliders))]; rng.IntN(4) == 0 {
				e.stop()
			} else {
				e.wake()
			}
		}
	case k < 20: // a series: firings at non-decreasing times from now
		// on, a third of them tied to the one before
		n := 1 + rng.IntN(12)
		if p.budget < n {
			break
		}
		p.budget -= n
		times, fire := make([]Time, n), make([]func(), n)
		at := w.Now() + Time(ms(10))
		for i := range times {
			if rng.IntN(3) > 0 {
				at += Time(ms(4))
			}
			times[i], fire[i] = at, p.callback()
		}
		w.Series(times, rng.IntN(2) == 0, func(k int) { fire[k]() })
		p.series++
	case k >= 20: // the sorted stream: an ascending burst through AtSorted,
		// some of it on equal timestamps, now and then a call below
		// the last one (below now, too)
		at := max(p.sorted, w.Now())
		for i, n := 0, 1+rng.IntN(8); i < n; i++ {
			if rng.IntN(6) == 0 {
				at -= Time(ms(15))
			} else {
				at += Time(ms(3))
			}
			p.oneShot(func(fn func()) func() bool { return w.AtSorted(at, fn) })
		}
		p.sorted = at
	}
}

// chunk advances the program: a few top-level actions, then RunUntil a
// little further.
func (p *program) chunk() {
	for i, n := 0, p.rng.IntN(6); i < n; i++ {
		p.act(false)
	}
	p.w.RunUntil(p.w.Now() + Time(1+p.rng.IntN(40))*Time(time.Millisecond))
}

// agree fails the test at the first observable difference between the
// two worlds; from is the log index already compared.
func agree(t *testing.T, what string, real, ref *program, from int) {
	t.Helper()
	for i := from; i < len(real.log) && i < len(ref.log); i++ {
		if real.log[i] != ref.log[i] {
			t.Fatalf("%s: firing %d is %+v, reference fired %+v", what, i, real.log[i], ref.log[i])
		}
	}
	if len(real.log) != len(ref.log) {
		t.Fatalf("%s: %d firings, reference %d", what, len(real.log), len(ref.log))
	}
	if real.w.Now() != ref.w.Now() || real.w.Executed() != ref.w.Executed() || real.w.Pending() != ref.w.Pending() {
		t.Fatalf("%s: now/executed/pending %v/%d/%d, reference %v/%d/%d", what,
			real.w.Now(), real.w.Executed(), real.w.Pending(), ref.w.Now(), ref.w.Executed(), ref.w.Pending())
	}
}

// TestQueueMatchesReference requires the lane-and-heap queue to fire
// exactly what the single binary heap fired: the same callbacks at the
// same times in the same order, with equal Executed() and Pending() at
// every RunUntil boundary, over seeded random programs that mix After
// (repeated and jittered delays), At (past, now, future, ascending
// bursts), AtSorted (ascending bursts on equal and rising timestamps,
// with calls below the previous one and below now), Series (1–12
// firings on rising and tied timestamps, each next firing queued
// before or after its predecessor's callback acts; the reference makes
// n At calls), Every and EveryElidable on 3–6 shared intervals started
// at different phases, Wake, Stop, and Timer.Stop before and after
// firing, all of it also from inside callbacks.
//
// Mutation check: with the tail test skipped for the sorted lane alone
// (every AtSorted call appended to it), program 0 fails in chunk 7 on
// agree's "firing 121 is {id:83 at:90ms}, reference fired {id:97
// at:89ms}", and the directed case "sorted call below the tail" fails.
// With the tail test removed from queue.push for every lane, program 0
// fails in chunk 4 and the directed cases "re-arm below the tail" and
// "sorted call below the tail" fail. With seq dropped from
// slot.before, program 0 fails in chunk 3 and six directed cases fail.
// With Series.Next taking a fresh seq instead of its reserved one,
// program 0 fails in chunk 3 and both series orderings fail. With a
// series firing offered the sorted lane, program 1 fails in chunk 11;
// offered the 1 ms ticker's lane, program 0 fails in chunk 10, and
// "series beside full periodic lanes" fails agree on "firing 3 is
// {id:1 at:2ms}, reference fired {id:101 at:2ms}". Both fail the
// series cases' queue-state checks.
func TestQueueMatchesReference(t *testing.T) {
	const programs = 1200
	var events uint64
	series := 0
	for seed := uint64(0); seed < programs; seed++ {
		real := newProgram(realWorld{New(seed)}, seed)
		ref := newProgram(&refSim{}, seed)
		for c := 0; c < 16; c++ {
			compared := len(ref.log)
			real.chunk()
			ref.chunk()
			agree(t, fmt.Sprintf("program %d chunk %d", seed, c), real, ref, compared)
		}
		events += real.w.Executed()
		series += real.series
	}
	t.Logf("%d programs, %d events, %d series", programs, events, series)
	directedCases(t)
}

// directedCases runs the orderings the random walk may miss on both
// worlds: each script must agree with the reference, fire the ids in
// want where the order is the point, and — on the real queue — actually
// reach the lane/heap state it is named for.
func directedCases(t *testing.T) {
	const ms = time.Millisecond
	type marker func(id int) func()
	realQueue := func(w world) *queue {
		if rw, ok := w.(realWorld); ok {
			return &rw.queue
		}
		return nil
	}
	cases := []struct {
		name   string
		script func(t *testing.T, w world, mark marker)
		want   []int
	}{
		{
			name: "re-arm below the tail",
			script: func(t *testing.T, w world, mark marker) {
				// The elider's bulk event (5 rounds folded, due at 70 ms)
				// is its lane's tail; the ticker shares the lane and
				// re-arms at 21 ms, and the wake re-arms at 40 ms.
				wake, _ := w.EveryElidable(10*ms, mark(1), func() int { return 5 }, func(n int) { mark(100 + n)() })
				w.RunUntil(Time(1 * ms))
				w.Every(10*ms, mark(2))
				w.RunUntil(Time(12 * ms))
				if q := realQueue(w); q != nil {
					if l := q.lane(Time(10 * ms)); l.n != 1 || len(q.heap) != 1 {
						t.Errorf("lane holds %d, heap %d; want the bulk event in the lane and the ticker's re-arm in the heap", l.n, len(q.heap))
					}
				}
				w.At(Time(35*ms), wake)
				w.RunUntil(Time(45 * ms))
			},
			want: []int{1, 2, 2, 2, 102, 1, 2},
		},
		{
			name: "lane and heap tie",
			script: func(t *testing.T, w world, mark marker) {
				// Four events at 20 ms, the ticker's re-arm in its lane and
				// three one-shots in the heap: seq alone orders them.
				w.Every(10*ms, mark(1))
				w.After(20*ms, mark(2))
				w.At(Time(15*ms), func() { w.After(5*ms, mark(3)) })
				w.At(Time(20*ms), mark(4))
				w.RunUntil(Time(15 * ms))
				if q := realQueue(w); q != nil {
					if l := q.lane(Time(10 * ms)); l.n != 1 || len(q.heap) != 3 {
						t.Errorf("lane holds %d, heap %d; want 1 and 3", l.n, len(q.heap))
					}
				}
				w.RunUntil(Time(20 * ms))
			},
			want: []int{1, 2, 4, 1, 3},
		},
		{
			name: "run of cancelled lane heads",
			script: func(t *testing.T, w world, mark marker) {
				var stops []func()
				for id := 0; id < 10; id++ {
					stops = append(stops, w.Every(10*ms, mark(id)))
				}
				w.RunUntil(Time(15 * ms))
				for _, stop := range stops[:6] {
					stop()
				}
				if w.Pending() != 4 {
					t.Errorf("pending %d after stopping 6 of 10, want 4", w.Pending())
				}
				if q := realQueue(w); q != nil {
					if l := q.lane(Time(10 * ms)); l.n != 10 {
						t.Errorf("lane holds %d, want all 10 re-arms with the first 6 cancelled", l.n)
					}
				}
				w.RunUntil(Time(20 * ms))
			},
			want: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 6, 7, 8, 9},
		},
		{
			name: "same interval created mid-round",
			script: func(t *testing.T, w world, mark marker) {
				// Ticker 3 is born inside ticker 1's callback, between
				// 1's fire and 1's re-arm: at 20 ms it runs first.
				born := false
				w.Every(10*ms, func() {
					mark(1)()
					if !born {
						born = true
						w.Every(10*ms, mark(3))
					}
				})
				w.Every(10*ms, mark(2))
				w.RunUntil(Time(20 * ms))
			},
			want: []int{1, 2, 3, 1, 2},
		},
		{
			name: "ring grows while wrapped",
			script: func(t *testing.T, w world, mark marker) {
				// Ten tickers turn the 16-slot ring for a few rounds so its
				// head sits mid-array; thirty more join between rounds and
				// the ring doubles twice with live slots on both sides of
				// the wrap.
				for id := 0; id < 10; id++ {
					w.Every(10*ms, mark(id))
				}
				w.RunUntil(Time(35 * ms))
				for id := 10; id < 40; id++ {
					w.Every(10*ms, mark(id))
				}
				if q := realQueue(w); q != nil {
					if l := q.lane(Time(10 * ms)); l.n != 40 || len(l.buf) != 64 || l.head >= l.n {
						t.Errorf("lane holds %d in a ring of %d with head %d; want 40 in 64, copied to the front", l.n, len(l.buf), l.head)
					}
				}
				w.RunUntil(Time(60 * ms))
			},
		},
		{
			name: "more intervals than lanes",
			script: func(t *testing.T, w world, mark marker) {
				// The sorted lane is reserved, so maxLanes-1 intervals get
				// a lane and the other maxLanes+1 schedule through the heap.
				for id := 1; id <= 2*maxLanes; id++ {
					w.Every(time.Duration(id)*ms, mark(id))
				}
				if q := realQueue(w); q != nil {
					if q.used != maxLanes || len(q.heap) != maxLanes+1 {
						t.Errorf("%d lanes used, %d in the heap; want %d and %d", q.used, len(q.heap), maxLanes, maxLanes+1)
					}
				}
				w.RunUntil(Time(50 * ms))
			},
		},
		{
			name: "sorted burst stays out of the heap",
			script: func(t *testing.T, w world, mark marker) {
				// The replay's shape: a window of first packets scheduled
				// in ascending order, many on equal timestamps.
				const burst = 56_000
				for j := 0; j < burst; j++ {
					w.AtSorted(Time(j/3)*Time(time.Microsecond), mark(j))
				}
				if q := realQueue(w); q != nil {
					if l := &q.lanes[sortedLane]; l.n != burst || len(q.heap) != 0 {
						t.Errorf("sorted lane holds %d, heap %d; want %d and 0", l.n, len(q.heap), burst)
					}
				}
				w.RunUntil(Time(time.Second))
			},
		},
		{
			name: "sorted call below the tail",
			script: func(t *testing.T, w world, mark marker) {
				// 15 ms is below the lane's tail and falls to the heap,
				// as does the plain At; the second 20 ms call is not
				// below the tail and joins the lane behind the first.
				w.AtSorted(Time(10*ms), mark(1))
				w.AtSorted(Time(20*ms), mark(2))
				w.AtSorted(Time(15*ms), mark(3))
				w.AtSorted(Time(20*ms), mark(4))
				w.At(Time(15*ms), mark(5))
				w.At(Time(20*ms), mark(6))
				if q := realQueue(w); q != nil {
					if l := &q.lanes[sortedLane]; l.n != 3 || len(q.heap) != 3 {
						t.Errorf("sorted lane holds %d, heap %d; want 3 and 3", l.n, len(q.heap))
					}
				}
				w.RunUntil(Time(30 * ms))
			},
			want: []int{1, 3, 5, 2, 4, 6},
		},
		{
			name: "sorted lane beside full periodic lanes",
			script: func(t *testing.T, w world, mark marker) {
				// maxLanes intervals take every periodic lane and spill
				// one into the heap; the sorted stream still has its own.
				for id := 1; id <= maxLanes; id++ {
					w.Every(time.Duration(id)*ms, mark(id))
				}
				for j := 0; j < 20; j++ {
					w.AtSorted(Time(j)*Time(ms/2), mark(100+j))
				}
				if q := realQueue(w); q != nil {
					if l := &q.lanes[sortedLane]; q.used != maxLanes || l.n != 20 || len(q.heap) != 1 {
						t.Errorf("%d lanes used, sorted lane holds %d, heap %d; want %d, 20 and 1", q.used, l.n, len(q.heap), maxLanes)
					}
				}
				w.RunUntil(Time(20 * ms))
			},
		},
		{
			name: "series ties At before, during and after",
			script: func(t *testing.T, w world, mark marker) {
				// Every event here is at 10 or 20 ms, so seq alone orders
				// them: the series' reserved seqs sit between the At made
				// before it and those made after it or from its firings.
				w.At(Time(10*ms), mark(1))
				w.Series([]Time{Time(10 * ms), Time(10 * ms), Time(20 * ms)}, false, func(k int) {
					mark(10 + k)()
					if k == 0 {
						w.At(Time(10*ms), mark(2))
						w.At(Time(20*ms), mark(3))
					}
				})
				w.At(Time(10*ms), mark(4))
				w.At(Time(20*ms), mark(5))
				if w.Pending() != 4 {
					t.Errorf("pending %d after the series started, want 4: it counts as its one queued firing", w.Pending())
				}
				w.RunUntil(Time(15 * ms))
				if q := realQueue(w); q != nil && len(q.heap) != 3 {
					t.Errorf("heap holds %d, want 3: the series' last firing and two At calls", len(q.heap))
				}
				w.RunUntil(Time(20 * ms))
			},
			want: []int{1, 10, 11, 4, 2, 12, 5, 3},
		},
		{
			name: "series beside full periodic lanes",
			script: func(t *testing.T, w world, mark marker) {
				// The 1 ms ticker re-arms into its lane on every
				// millisecond; the series, started after the tickers, ties
				// with each re-arm on a smaller seq. Offered that lane, a
				// firing would join behind the tail and run late.
				for id := 1; id <= maxLanes; id++ {
					w.Every(time.Duration(id)*ms, mark(id))
				}
				times := make([]Time, 30)
				for j := range times {
					times[j] = Time(j+1) * Time(ms)
				}
				w.Series(times, true, func(k int) {
					mark(100 + k)()
					// The spilled interval, and the next firing but at the last.
					want := 2
					if k == len(times)-1 {
						want = 1
					}
					if q := realQueue(w); q != nil && (q.used != maxLanes || len(q.heap) != want) {
						t.Errorf("firing %d: %d lanes used, heap %d; want %d and %d", k, q.used, len(q.heap), maxLanes, want)
					}
				})
				w.RunUntil(Time(40 * ms))
			},
		},
		{
			name: "271-firing series holds one slot",
			script: func(t *testing.T, w world, mark marker) {
				// A learning flood's shape: one copy per switch 125 µs
				// apart, the ingress's slot left empty.
				const service = 125 * time.Microsecond
				var times []Time
				for i := range 272 {
					if i != 90 {
						times = append(times, Time(ms)+Time(i)*Time(service))
					}
				}
				w.Series(times, false, func(k int) {
					mark(k)()
					if p := w.Pending(); p != 0 {
						t.Errorf("firing %d: pending %d, want 0 until it queues the next", k, p)
					}
					if q := realQueue(w); q != nil && len(q.heap) != 0 {
						t.Errorf("firing %d: heap holds %d, want 0 until it queues the next", k, len(q.heap))
					}
				})
				if p := w.Pending(); p != 1 {
					t.Errorf("pending %d after starting a 271-firing series, want 1", p)
				}
				w.RunUntil(Time(time.Second))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			real, ref := &program{w: realWorld{New(1)}}, &program{w: &refSim{}}
			for _, p := range []*program{real, ref} {
				tc.script(t, p.w, func(id int) func() {
					return func() { p.log = append(p.log, firing{id: id, at: p.w.Now()}) }
				})
			}
			agree(t, tc.name, real, ref, 0)
			if tc.want == nil {
				return
			}
			var got []int
			for _, f := range real.log {
				got = append(got, f.id)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("fired %v, want %v", got, tc.want)
			}
		})
	}
}
