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
	stopped  bool
	executed uint64
}

func (s *refSim) Now() Time        { return s.now }
func (s *refSim) Executed() uint64 { return s.executed }
func (s *refSim) Stop()            { s.stopped = true }

func (s *refSim) Pending() int {
	n := 0
	for _, ev := range s.queue {
		if !ev.canceled {
			n++
		}
	}
	return n
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
	s.stopped = false
	for !s.stopped && len(s.queue) > 0 {
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
	if !s.stopped && s.now < until {
		s.now = until
	}
}

// world is what a test program drives: the real simulator or the
// reference behind one surface.
type world interface {
	Now() Time
	At(Time, func()) (stop func() bool)
	After(time.Duration, func()) (stop func() bool)
	Every(time.Duration, func()) (stop func())
	EveryElidable(d time.Duration, run func(), quiet func() int, credit func(int)) (wake, stop func())
	RunUntil(Time)
	Stop()
	Executed() uint64
	Pending() int
}

type realWorld struct{ *Simulator }

func (w realWorld) At(at Time, fn func()) func() bool {
	t := w.Simulator.At(at, fn)
	return t.Stop
}

func (w realWorld) After(d time.Duration, fn func()) func() bool {
	t := w.Simulator.After(d, fn)
	return t.Stop
}

func (w realWorld) Every(d time.Duration, fn func()) func() { return w.Simulator.Every(d, fn).Stop }

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
	budget    int // one-shot schedules left; keeps a program finite
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
	switch k := rng.IntN(20); {
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
	default:
		if inCallback && rng.IntN(4) == 0 {
			w.Stop()
		}
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
// bursts), Every and EveryElidable on 3–6 shared intervals started at
// different phases, Wake, Stop, Timer.Stop before and after firing,
// all of it also from inside callbacks, and Simulator.Stop.
//
// Mutation check: with the tail test removed from queue.push (every
// insert offered a lane is appended to it), program 0 fails in chunk 9
// on agree's "firing 74 is {id:36 at:165ms}, reference fired {id:30
// at:165ms}" assertion — an elider woken out of a fold re-armed below
// its lane's tail, was appended behind the later slot and fired late —
// and the directed case "re-arm below the tail" fails both its
// queue-state check and agree. With seq dropped from slot.before,
// program 0 fails in chunk 5 and the directed cases "lane and heap tie"
// and "more intervals than lanes" fail.
func TestQueueMatchesReference(t *testing.T) {
	const programs = 1200
	var events uint64
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
	}
	t.Logf("%d programs, %d events", programs, events)
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
				for id := 1; id <= 2*maxLanes; id++ {
					w.Every(time.Duration(id)*ms, mark(id))
				}
				if q := realQueue(w); q != nil {
					if q.used != maxLanes || len(q.heap) != maxLanes {
						t.Errorf("%d lanes used, %d in the heap; want %d and %d", q.used, len(q.heap), maxLanes, maxLanes)
					}
				}
				w.RunUntil(Time(50 * ms))
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
