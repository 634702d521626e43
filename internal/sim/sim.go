// Package sim provides a deterministic discrete-event simulator with a
// virtual clock. All LazyCtrl experiments run on top of it so that a
// 24-hour trace replays in seconds and every run is reproducible from a
// seed.
//
// The simulator is single-threaded: events execute one at a time in
// timestamp order (ties broken by scheduling order). Components built on
// the simulator are therefore written as plain state machines without
// internal locking.
//
// Pending events wait in a heap plus one FIFO lane per periodic
// interval (queue.go); the split changes what an event costs, never
// the order.
package sim

import (
	"math/rand/v2"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start
// of the simulation.
type Time time.Duration

// String formats the virtual time like a duration.
func (t Time) String() string { return time.Duration(t).String() }

// Duration converts the virtual time to a time.Duration since simulation
// start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports the virtual time in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// event is a scheduled callback; its place in the order, (at, seq),
// lives in the queue slot that points at it. Events are pooled: once
// executed or collected after cancellation they return to the
// simulator's free list and are recycled by later At/After calls, so
// steady-state scheduling does not allocate. The generation counter
// distinguishes a recycled event from the one a Timer was issued for:
// an event leaves the queue only to be released, so a matching
// generation also means "still queued".
type event struct {
	fn       func()
	gen      uint32 // incremented on every recycle
	canceled bool
}

// Simulator is a discrete-event simulation kernel. The zero value is not
// usable; construct with New.
type Simulator struct {
	now     Time
	seq     uint64
	queue   queue
	rng     *rand.Rand
	stopped bool
	free    []*event // recycled events (see event)

	// Stats.
	executed uint64
}

// alloc takes an event from the free list, or a fresh one.
func (s *Simulator) alloc() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	return &event{}
}

// release recycles an executed or collected event. The generation bump
// invalidates any Timer still pointing at it; dropping fn releases the
// captured closure.
func (s *Simulator) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	s.free = append(s.free, ev)
}

// New returns a simulator whose random source is seeded deterministically
// from seed.
func New(seed uint64) *Simulator {
	return &Simulator{
		rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
	}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source. It must only
// be used from event callbacks (the simulator is single-threaded).
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Executed reports how many events have run so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// Pending reports how many events are scheduled and not yet executed or
// canceled.
func (s *Simulator) Pending() int {
	n := 0
	s.queue.each(func(ev *event) {
		if !ev.canceled {
			n++
		}
	})
	return n
}

// Timer is a handle to a scheduled event that can be canceled. The zero
// value is inert. Timers are values: holding one does not keep the
// underlying event alive, and a Timer whose event already fired (and was
// recycled for a later schedule) is detected via the generation counter.
type Timer struct {
	ev  *event
	gen uint32
}

// Stop cancels the timer. It reports whether the timer was still pending
// (false if it already fired or was already stopped).
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.gen != t.gen || t.ev.canceled {
		return false
	}
	t.ev.canceled = true
	return true
}

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past (at < Now) runs the event at the current time, preserving order.
func (s *Simulator) At(at Time, fn func()) Timer {
	return s.schedule(at, nil, fn)
}

// schedule queues fn at time at, offering the slot to lane l (nil: none).
func (s *Simulator) schedule(at Time, l *lane, fn func()) Timer {
	if at < s.now {
		at = s.now
	}
	ev := s.alloc()
	ev.fn = fn
	s.queue.push(l, slot{at: at, seq: s.seq, ev: ev})
	s.seq++
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current virtual time.
func (s *Simulator) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+Time(d), fn)
}

// Every schedules fn to run every interval, starting one interval from
// now, until the returned Ticker is stopped.
func (s *Simulator) Every(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: Every requires a positive interval")
	}
	tk := &Ticker{sim: s, interval: interval, fn: fn, lane: s.queue.lane(Time(interval))}
	tk.schedule()
	return tk
}

// Ticker repeatedly fires a callback at a fixed virtual-time interval.
type Ticker struct {
	sim      *Simulator
	interval time.Duration
	fn       func()
	lane     *lane // takes the re-arms: each is at now + interval, so they arrive sorted
	timer    Timer
	stopped  bool
}

func (tk *Ticker) schedule() {
	tk.timer = tk.sim.schedule(tk.sim.now+Time(tk.interval), tk.lane, func() {
		if tk.stopped {
			return
		}
		tk.fn()
		if !tk.stopped {
			tk.schedule()
		}
	})
}

// Stop cancels future ticks.
func (tk *Ticker) Stop() {
	tk.stopped = true
	tk.timer.Stop()
}

// Stop halts Run/RunUntil after the current event completes.
func (s *Simulator) Stop() { s.stopped = true }

// step executes the next pending event, if any, and reports whether one ran.
func (s *Simulator) step(limit Time, bounded bool) bool {
	for {
		src, next, ok := s.queue.peek()
		if !ok {
			return false
		}
		ev := next.ev
		if ev.canceled {
			s.queue.pop(src)
			s.release(ev)
			continue
		}
		if bounded && next.at > limit {
			return false
		}
		s.queue.pop(src)
		s.now = next.at
		s.executed++
		fn := ev.fn
		// Recycle before running so fn's own scheduling can reuse the
		// event; the generation bump already invalidated its Timers.
		s.release(ev)
		fn()
		return true
	}
}

// Run executes events until the queue is empty or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.step(0, false) {
	}
}

// RunUntil executes events with timestamps ≤ until, then advances the
// clock to until. It stops early if Stop is called.
func (s *Simulator) RunUntil(until Time) {
	s.stopped = false
	for !s.stopped && s.step(until, true) {
	}
	if !s.stopped && s.now < until {
		s.now = until
	}
}

// RunFor executes events for d of virtual time from the current instant.
func (s *Simulator) RunFor(d time.Duration) {
	s.RunUntil(s.now + Time(d))
}
