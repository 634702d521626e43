package netsim

import (
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
type inlineEnv struct{ afters int }

func (e *inlineEnv) Now() time.Duration                      { return 0 }
func (e *inlineEnv) Every(time.Duration, func()) func()      { return func() {} }
func (e *inlineEnv) Send(model.SwitchID, Message)            {}
func (e *inlineEnv) After(_ time.Duration, fn func()) func() { e.afters++; fn(); return func() {} }

func TestPostFallsBackToAfter(t *testing.T) {
	env := &inlineEnv{}
	fired := false
	Post(env, time.Second, func() { fired = true })
	if !fired || env.afters != 1 {
		t.Errorf("Post on an env without Poster: fired=%v after %d After calls, want true after 1", fired, env.afters)
	}
}
