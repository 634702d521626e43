package sim

import "time"

// maxElideRounds bounds how many rounds a single bulk event may cover,
// keeping credit loops bounded and re-materialization latency finite
// even for tasks that are quiet for the whole run.
const maxElideRounds = 4096

// Elider is the simulator's periodic task; Every makes one that never
// folds. With a quiet predicate it can collapse runs of quiescent
// rounds into a single bulk event without shifting its phase:
// after each real run the predicate is consulted, a return of n > 0
// means "the next n rounds are provably no-ops whose aggregate effect
// is known in closed form", and the simulator schedules one event n+1
// intervals out that first credits the n folded rounds analytically and
// then runs round n+1 for real. Wake re-materializes the timer early
// when state changes: rounds whose boundary has already passed are
// credited, and the next round runs as a real event.
//
// The credit callback observes CreditedThrough(): when credit(n) is
// invoked the elider has already advanced its round clock, so the n
// settled rounds fired at CreditedThrough() − (n−1)·interval, …,
// CreditedThrough().
type Elider struct {
	sim      *Simulator
	interval Time
	run      func()
	quiet    func() int
	credit   func(rounds int)

	// lastFire is the logical time of the last completed round
	// (creation time before the first round). Round k fires at
	// creation + k·interval regardless of folding, so folding never
	// shifts the task's phase.
	lastFire Time
	// creditedThrough is the last round boundary settled analytically
	// (never advanced by real runs): liveness readers may treat
	// heartbeats as implicitly delivered up to this time, because
	// rounds are only ever credited while the quiet predicate held.
	creditedThrough Time
	// elided is the number of folded rounds covered by the pending
	// bulk event; 0 means the next fire is an ordinary real round.
	elided  int
	lane    *lane  // takes the re-arms; one that lands below its tail falls to the heap
	fireFn  func() // e.fire, bound once so a re-arm does not allocate
	timer   Timer
	stopped bool
}

// EveryElidable schedules an elidable periodic task. run fires every
// interval starting one interval from now, but whenever quiet()
// reports n > 0 after a real run, the next n rounds are folded into
// one bulk event that calls credit(n) and then run(). quiet and credit
// may be nil (the task then never folds, which is Every).
func (s *Simulator) EveryElidable(interval time.Duration, run func(), quiet func() int, credit func(rounds int)) *Elider {
	if interval <= 0 {
		panic("sim: a periodic task requires a positive interval")
	}
	e := &Elider{
		sim:      s,
		interval: Time(interval),
		run:      run,
		quiet:    quiet,
		credit:   credit,
		lastFire: s.now,
		lane:     s.queue.lane(Time(interval)),
	}
	e.fireFn = e.fire
	e.arm(e.lastFire + e.interval)
	return e
}

// arm schedules the next fire, real or bulk, at time at.
func (e *Elider) arm(at Time) {
	e.timer = e.sim.schedule(at, e.lane, e.fireFn)
}

func (e *Elider) fire() {
	if e.stopped {
		return
	}
	if n := e.elided; n > 0 {
		e.elided = 0
		e.lastFire += Time(n) * e.interval
		e.creditedThrough = e.lastFire
		e.credit(n)
	}
	e.lastFire += e.interval
	e.run()
	if e.stopped {
		return // run may have stopped the task
	}
	n := 0
	if e.quiet != nil && e.credit != nil {
		n = e.quiet()
	}
	if n > maxElideRounds {
		n = maxElideRounds
	}
	if n > 0 {
		e.elided = n
		e.arm(e.lastFire + Time(n+1)*e.interval)
	} else {
		e.arm(e.lastFire + e.interval)
	}
}

// settle credits the folded rounds whose boundaries have passed and
// clears the fold.
func (e *Elider) settle() {
	n := e.elided
	if n == 0 {
		return
	}
	e.elided = 0
	if done := min(int((e.sim.now-e.lastFire)/e.interval), n); done > 0 {
		e.lastFire += Time(done) * e.interval
		e.creditedThrough = e.lastFire
		e.credit(done)
	}
}

// Wake re-materializes an elided task: folded rounds already in the
// past are credited, and the next round is scheduled as a real event
// one interval after the last settled round (phase preserved). After a
// wake at least one real round runs before the task can fold again —
// the quiet predicate is only consulted after real runs, so it always
// sees post-change state. Waking a task that is not elided is a no-op,
// making wake hooks safe on hot paths.
func (e *Elider) Wake() {
	if e == nil || e.stopped || e.elided == 0 {
		return
	}
	e.settle()
	e.timer.Stop()
	e.arm(e.lastFire + e.interval)
}

// Stop cancels the task. Folded rounds whose boundaries have passed
// are settled first, so analytic aggregates stay exact up to the stop
// time; callers tearing down task state should therefore Stop (or
// Wake) eliders before resetting the state the credit callback writes.
func (e *Elider) Stop() {
	if e == nil || e.stopped {
		return
	}
	e.settle()
	e.stopped = true
	e.timer.Stop()
}

// CreditedThrough returns the round boundary through which the task's
// per-round effects — e.g. heartbeats reaching their destinations —
// are analytically accounted (zero if the task never folded). While a
// fold is pending, boundaries already in the past count even though
// the settling bulk event hasn't run yet: those rounds WILL be
// credited verbatim at the next settle, because any state change that
// could invalidate them (a fault, a report) wakes the task and settles
// exactly the pre-change rounds first. Real (unfolded) rounds never
// advance this boundary.
func (e *Elider) CreditedThrough() time.Duration {
	if done := min(int((e.sim.now-e.lastFire)/e.interval), e.elided); done > 0 {
		return (e.lastFire + Time(done)*e.interval).Duration()
	}
	return e.creditedThrough.Duration()
}
