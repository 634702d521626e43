package netsim

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/sim"
)

// TestArmRunToFiringDoesNotAllocate pins that a timer whose handle is
// dropped costs no allocation on the DES env once the event pool is
// warm: Arm builds no cancel func.
func TestArmRunToFiringDoesNotAllocate(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultLatencies())
	env := n.Env(1)
	fired := 0
	fn := func() { fired++ }
	run := func() { Arm(env, time.Millisecond, fn); s.RunFor(time.Millisecond) }
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("Arm run to firing: %.1f allocs, want 0", allocs)
	}
	if fired != 101 { // AllocsPerRun's warm-up run plus 100
		t.Errorf("fired %d times, want 101", fired)
	}
}

// TestArmAndAfterKeepCallOrder pins that Arm takes the same place in
// the event order as After: callbacks due at one instant run in the
// order they were scheduled, whichever of the two scheduled them.
func TestArmAndAfterKeepCallOrder(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultLatencies())
	env := n.Env(1)
	var got []int
	note := func(i int) func() { return func() { got = append(got, i) } }
	env.After(time.Second, note(0))
	Arm(env, time.Second, note(1))
	env.After(time.Second, note(2))
	Arm(env, time.Second, note(3))
	Arm(env, time.Second/2, note(-1))
	s.Run()
	if want := []int{-1, 0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("firing order %v, want %v", got, want)
	}
}

// inlineEnv is an Env other than the DES's whose timers fire at once,
// like the controller's direct-test and storm envs.
type inlineEnv struct{ afters, cancels int }

func (e *inlineEnv) Now() time.Duration                 { return 0 }
func (e *inlineEnv) Every(time.Duration, func()) func() { return func() {} }
func (e *inlineEnv) Send(model.SwitchID, Message)       {}
func (e *inlineEnv) After(_ time.Duration, fn func()) func() {
	e.afters++
	fn()
	return func() { e.cancels++ }
}

// TestArmDoesNotAllocate pins that a cancellable timer costs no
// allocation on the DES env: Arm returns the simulator's Timer by value
// and Stop cancels it in place. A stopped timer never fires, and Stop
// after firing is harmless. On an env without the capability, Arm is
// one After call and Stop runs its cancel.
func TestArmDoesNotAllocate(t *testing.T) {
	s := sim.New(1)
	env := New(s, DefaultLatencies()).Env(1)
	fired := 0
	fn := func() { fired++ }
	var tm Timer
	run := func() {
		tm = Arm(env, time.Millisecond, fn)
		if !tm.Armed() {
			t.Fatal("an armed timer reports disarmed")
		}
		tm.Stop()
		s.RunFor(time.Millisecond)
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("Arm and Stop: %.1f allocs, want 0", allocs)
	}
	if fired != 0 || tm.Armed() {
		t.Errorf("stopped timers fired %d times, handle armed %v; want 0, false", fired, tm.Armed())
	}
	tm = Arm(env, time.Millisecond, fn)
	s.RunFor(time.Millisecond)
	tm.Stop()
	if fired != 1 {
		t.Errorf("an unstopped timer fired %d times, want 1", fired)
	}

	inline := &inlineEnv{}
	tm = Arm(inline, time.Second, fn)
	tm.Stop()
	if fired != 2 || inline.afters != 1 || inline.cancels != 1 || tm.Armed() {
		t.Errorf("Arm and Stop on an env without the capability: fired %d, %d After calls, %d cancels, armed %v; want 2, 1, 1, false",
			fired, inline.afters, inline.cancels, tm.Armed())
	}
}

// firing is one callback of a deferredProgram: item ≥ 0 is a posted
// value, −1 a plain event.
type firing struct {
	at   time.Duration
	item int
}

// deferredShape counts the FIFO cases a deferredProgram reached.
type deferredShape struct {
	stragglers int // posts below the latest instant queued
	belowOld   int // posts into a drained FIFO below the latest instant it held
	chunks     int // the most chunks one FIFO held
}

// deferredBurst is the first step's burst: more values than a chunk
// holds, at non-decreasing instants, so the FIFO crosses into full
// chunks.
const deferredBurst = deferredChunk + 100

// deferredProgram runs a seeded random program on env: a burst, then
// steps of posted items and plain events whose callbacks post more,
// with delays drawn from zero, whole milliseconds (ties), a constant
// and a spread. Items go through one of two Deferreds, the second
// starting at a full chunk and fed only the constant or zero, or
// through one closure each. Plain events
// are After calls and, on the DES (s not nil), AtSorted calls sharing
// the Deferreds' sorted lane. The program's draws are made as callbacks
// run, so a firing order that differs anywhere changes the rest of the
// program too.
func deferredProgram(env Env, s *sim.Simulator, drain func(), seed uint64, viaDeferred bool) ([]firing, deferredShape) {
	rng := rand.New(rand.NewPCG(seed, 7))
	const limit = 2000 + deferredBurst
	var got []firing
	var shape deferredShape
	const slowDelay = 800 * time.Microsecond // constant, as the edge's slow path
	delay := func() time.Duration {
		switch rng.IntN(5) {
		case 0:
			return 0
		case 1:
			return time.Duration(rng.IntN(3)) * time.Millisecond
		case 2:
			return slowDelay
		default:
			return time.Duration(rng.IntN(5000)) * time.Microsecond
		}
	}
	var step func()
	handle := func(i int) {
		got = append(got, firing{env.Now(), i})
		step()
	}
	qs := [2]*Deferred[int]{NewDeferred(env, 0, handle), NewDeferred(env, 100, handle)}
	var high [2]time.Duration // the latest instant each FIFO held
	posted := 0
	post := func(k int, d time.Duration) {
		i := posted
		posted++
		if !viaDeferred {
			env.After(d, func() { handle(i) })
			return
		}
		q, at := qs[k], env.Now()+max(d, 0)
		switch {
		case at < q.last:
			shape.stragglers++
		case at < high[k]:
			shape.belowOld++
		}
		q.Post(d, i)
		high[k] = max(high[k], at)
		shape.chunks = max(shape.chunks, len(q.chunks))
	}
	plain := func() {
		got = append(got, firing{env.Now(), -1})
		step()
	}
	step = func() {
		for n := rng.IntN(4); n > 0 && posted < limit; n-- {
			d := delay()
			switch rng.IntN(6) {
			case 0:
				env.After(d, plain)
			case 1:
				if s != nil {
					s.AtSorted(s.Now()+sim.Time(d), plain)
				} else {
					env.After(d, plain)
				}
			case 2, 3:
				post(0, d)
			default:
				// The second queue mostly sees one constant delay, so its
				// values mostly join the FIFO; a zero delay while values
				// are queued is a straggler.
				if d != 0 {
					d = slowDelay
				}
				post(1, d)
			}
		}
	}
	for i := range deferredBurst {
		post(0, time.Millisecond+time.Duration(i/3)*time.Microsecond)
	}
	for posted < limit {
		step()
		drain()
	}
	return got, shape
}

// TestDeferredOrder is a randomized differential: two Deferreds hand
// every item over at the instant, and in the place among other events,
// where one closure per item runs, on the DES env and on an env that
// runs callbacks at once. The programs must reach stragglers and a
// FIFO past one chunk on the DES, and posts into a drained FIFO below
// the instant it last held on the inline env (on the DES a drained
// FIFO's clock has passed that instant).
func TestDeferredOrder(t *testing.T) {
	var des, inline deferredShape
	for seed := uint64(1); seed <= 50; seed++ {
		var runs [2][]firing
		for k, via := range []bool{false, true} {
			s := sim.New(seed)
			var shape deferredShape
			runs[k], shape = deferredProgram(New(s, DefaultLatencies()).Env(1), s, s.Run, seed, via)
			des.stragglers += shape.stragglers
			des.belowOld += shape.belowOld
			des.chunks = max(des.chunks, shape.chunks)
		}
		if !slices.Equal(runs[0], runs[1]) {
			t.Fatalf("seed %d: Deferred fired\n%v\nclosures fired\n%v", seed, runs[1], runs[0])
		}
		if n := len(runs[0]); n < 2000+deferredBurst {
			t.Fatalf("seed %d: %d firings, want at least the %d items", seed, n, 2000+deferredBurst)
		}
		var runsInline [2][]firing
		for k, via := range []bool{false, true} {
			var shape deferredShape
			runsInline[k], shape = deferredProgram(&inlineEnv{}, nil, func() {}, seed, via)
			inline.stragglers += shape.stragglers
			inline.belowOld += shape.belowOld
			inline.chunks = max(inline.chunks, shape.chunks)
		}
		if !slices.Equal(runsInline[0], runsInline[1]) {
			t.Fatalf("seed %d, inline env: Deferred fired\n%v\nclosures fired\n%v", seed, runsInline[1], runsInline[0])
		}
	}
	if des.stragglers == 0 || des.chunks < 2 {
		t.Errorf("DES programs reached %d stragglers and at most %d chunks, want some and at least 2", des.stragglers, des.chunks)
	}
	if inline.belowOld == 0 {
		t.Errorf("inline programs never posted into a drained FIFO below its latest instant")
	}
	t.Logf("DES %+v, inline %+v", des, inline)
}

// TestDeferredStorage pins the FIFO's storage: after peaks of 8, 1,000
// and 50,000 values in flight, each posted at one instant and run to
// the end, Cap stays within one growth step of the peak (a doubling of
// the first chunk, or one more chunk), and a drained FIFO keeps at
// most its first chunk and one spare. A queue that expects more than
// deferredMin values starts at one full chunk, and a chunk's worth of
// values in flight does not grow it.
func TestDeferredStorage(t *testing.T) {
	s := sim.New(1)
	env := New(s, DefaultLatencies()).Env(1)
	fired := 0
	q := NewDeferred(env, 0, func(int) { fired++ })
	for _, peak := range []int{8, 1000, 50_000} {
		for i := range peak {
			q.Post(time.Millisecond, i)
		}
		bound := peak + deferredChunk
		if peak <= deferredChunk {
			bound = max(deferredMin, 2*peak)
		}
		if c := q.Cap(); c < peak || c > bound {
			t.Errorf("%d in flight: Cap %d, want %d to %d", peak, c, peak, bound)
		}
		s.Run()
		if c := q.Cap(); c > 2*deferredChunk {
			t.Errorf("drained after %d in flight: Cap %d, want at most %d", peak, c, 2*deferredChunk)
		}
	}
	sized := NewDeferred(env, deferredMin+1, func(int) { fired++ })
	for i := range deferredChunk {
		if c := sized.Cap(); c != deferredChunk {
			t.Fatalf("sized queue with %d in flight: Cap %d, want %d", i, c, deferredChunk)
		}
		sized.Post(time.Millisecond, i)
	}
	s.Run()
	if want := 8 + 1000 + 50_000 + deferredChunk; fired != want {
		t.Errorf("handled %d values, want %d", fired, want)
	}
}
