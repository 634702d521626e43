package netsim

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/sim"
)

// TestPostDoesNotAllocate pins that a fire-and-forget timer costs no
// allocation on the DES env once the event pool is warm: Post builds
// no Timer and no cancel func.
func TestPostDoesNotAllocate(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultLatencies())
	env := n.Env(1)
	fired := 0
	fn := func() { fired++ }
	run := func() { Post(env, time.Millisecond, fn); s.RunFor(time.Millisecond) }
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("Post run to firing: %.1f allocs, want 0", allocs)
	}
	if fired != 101 { // AllocsPerRun's warm-up run plus 100
		t.Errorf("fired %d times, want 101", fired)
	}
}

// TestPostAndAfterKeepCallOrder pins that Post takes the same place in
// the event order as After: callbacks due at one instant run in the
// order they were scheduled, whichever of the two scheduled them.
func TestPostAndAfterKeepCallOrder(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultLatencies())
	env := n.Env(1)
	var got []int
	note := func(i int) func() { return func() { got = append(got, i) } }
	env.After(time.Second, note(0))
	Post(env, time.Second, note(1))
	env.After(time.Second, note(2))
	Post(env, time.Second, note(3))
	Post(env, time.Second/2, note(-1))
	s.Run()
	if want := []int{-1, 0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("firing order %v, want %v", got, want)
	}
}

// inlineEnv is an Env without the Poster capability whose timers fire
// at once, like the controller's direct-test and storm envs.
type inlineEnv struct{ afters, cancels int }

func (e *inlineEnv) Now() time.Duration                 { return 0 }
func (e *inlineEnv) Every(time.Duration, func()) func() { return func() {} }
func (e *inlineEnv) Send(model.SwitchID, Message)       {}
func (e *inlineEnv) After(_ time.Duration, fn func()) func() {
	e.afters++
	fn()
	return func() { e.cancels++ }
}

func TestPostFallsBackToAfter(t *testing.T) {
	env := &inlineEnv{}
	fired := false
	Post(env, time.Second, func() { fired = true })
	if !fired || env.afters != 1 {
		t.Errorf("Post on an env without Poster: fired=%v after %d After calls, want true after 1", fired, env.afters)
	}
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
// value, −1 a plain After event.
type firing struct {
	at   time.Duration
	item int
}

// deferredProgram runs a seeded random program on env: bursts of
// posted items and plain After events whose callbacks post more, with
// delays drawn from zero, whole milliseconds (ties) and a spread. Items
// go through a Deferred, or through one closure each. The program's
// draws are made as callbacks run, so a firing order that differs
// anywhere changes the rest of the program too.
func deferredProgram(env Env, drain func(), seed uint64, viaDeferred bool) []firing {
	rng := rand.New(rand.NewPCG(seed, 7))
	const limit = 2000
	var got []firing
	delay := func() time.Duration {
		switch rng.IntN(4) {
		case 0:
			return 0
		case 1:
			return time.Duration(rng.IntN(3)) * time.Millisecond
		default:
			return time.Duration(rng.IntN(5000)) * time.Microsecond
		}
	}
	var step func()
	handle := func(i int) {
		got = append(got, firing{env.Now(), i})
		step()
	}
	q := NewDeferred(env, handle)
	posted := 0
	step = func() {
		for n := rng.IntN(4); n > 0 && posted < limit; n-- {
			d := delay()
			if rng.IntN(3) == 0 {
				env.After(d, func() {
					got = append(got, firing{env.Now(), -1})
					step()
				})
				continue
			}
			i := posted
			posted++
			if viaDeferred {
				q.Post(d, i)
			} else {
				env.After(d, func() { handle(i) })
			}
		}
	}
	for posted < limit {
		step()
		drain()
	}
	return got
}

// TestDeferredOrder is a randomized differential: a Deferred hands
// every item over at the instant, and in the place among other events,
// where one closure per item runs, on the DES env and on an env that
// runs callbacks at once.
func TestDeferredOrder(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		var runs [2][]firing
		for k, via := range []bool{false, true} {
			s := sim.New(seed)
			runs[k] = deferredProgram(New(s, DefaultLatencies()).Env(1), s.Run, seed, via)
		}
		if !slices.Equal(runs[0], runs[1]) {
			t.Fatalf("seed %d: Deferred fired\n%v\nclosures fired\n%v", seed, runs[1], runs[0])
		}
		if n := len(runs[0]); n < 2000 {
			t.Fatalf("seed %d: %d firings, want at least the 2000 items", seed, n)
		}
		var inline [2][]firing
		for k, via := range []bool{false, true} {
			inline[k] = deferredProgram(&inlineEnv{}, func() {}, seed, via)
		}
		if !slices.Equal(inline[0], inline[1]) {
			t.Fatalf("seed %d, inline env: Deferred fired\n%v\nclosures fired\n%v", seed, inline[1], inline[0])
		}
	}
}
