package controller

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"lazyctrl/internal/failover"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/sim"
)

// diagRig is an unstarted lazy controller over a DES with a 1 s
// keep-alive interval, so both the ack deadline and the evidence window
// are 3 s. No switch is attached and no periodic duty runs: a test
// moves the clock and calls checkFailures itself, and reads the
// diagnoses off Config.OnDiagnosis as "S<id> <diagnosis> @<time>".
type diagRig struct {
	sim   *sim.Simulator
	c     *Controller
	diags []string
}

func newDiagRig(t *testing.T, switches ...model.SwitchID) *diagRig {
	t.Helper()
	r := &diagRig{sim: sim.New(1)}
	n := netsim.New(r.sim, netsim.DefaultLatencies())
	c, err := New(Config{
		Mode:              ModeLazy,
		Switches:          switches,
		KeepAliveInterval: time.Second,
		OnDiagnosis: func(sw model.SwitchID, d failover.Diagnosis) {
			r.diags = append(r.diags, fmt.Sprintf("%v %v @%v", sw, d, r.sim.Now().Duration()))
		},
	}, n.Env(model.ControllerNode))
	if err != nil {
		t.Fatal(err)
	}
	r.c = c
	return r
}

// report delivers observer's FailureReport against suspect.
func (r *diagRig) report(observer, suspect model.SwitchID, d openflow.LossDirection) {
	r.c.HandleMessage(observer, &openflow.FailureReport{Observer: observer, Suspect: suspect, Direction: d})
}

// checkAt runs the clock to at and runs one failure check there.
func (r *diagRig) checkAt(at time.Duration) {
	r.sim.RunUntil(sim.Time(at))
	r.c.checkFailures()
}

// expect asserts the diagnoses seen so far, in order.
func (r *diagRig) expect(t *testing.T, when string, want ...string) {
	t.Helper()
	if !slices.Equal(r.diags, want) {
		t.Errorf("%s: diagnoses %q, want %q", when, r.diags, want)
	}
}

// Every case opens its evidence at t=0 and runs its first check at
// 0.5 s, which starts every switch's ack clock: no ack is missed before
// 3.5 s, so up to there Table I sees only the reported streams.

// TestDiagnosisSingleLoss: one silent stream closes after one window as
// the link it names, and the closed evidence is gone.
func TestDiagnosisSingleLoss(t *testing.T) {
	r := newDiagRig(t, 1, 2, 3)
	r.report(1, 2, openflow.LossUp)
	r.checkAt(500 * time.Millisecond)
	r.checkAt(2900 * time.Millisecond)
	r.expect(t, "inside the window")
	r.checkAt(3100 * time.Millisecond)
	r.expect(t, "window closed", "S2 peer-link-up @3.1s")
	if r.c.IsDead(2) {
		t.Error("a single silent stream marked its switch dead")
	}
	r.checkAt(3400 * time.Millisecond)
	r.expect(t, "after closing", "S2 peer-link-up @3.1s")
}

// TestDiagnosisSwitchFailure: both ring neighbours' reports plus the
// controller's own missed ack are all three streams — the switch is
// down.
func TestDiagnosisSwitchFailure(t *testing.T) {
	r := newDiagRig(t, 1, 2, 3)
	r.report(1, 2, openflow.LossUp)
	r.report(3, 2, openflow.LossDown)
	r.checkAt(500 * time.Millisecond)
	r.sim.RunUntil(sim.Time(3 * time.Second))
	r.c.HandleMessage(1, &openflow.KeepAlive{From: 1})
	r.c.HandleMessage(3, &openflow.KeepAlive{From: 3})
	r.checkAt(3500 * time.Millisecond) // S2's ack is 3 s late
	r.expect(t, "all three streams", "S2 switch @3.5s")
	if !r.c.IsDead(2) {
		t.Error("switch failure did not mark S2 dead")
	}
}

// TestDiagnosisInconclusiveEscalates: two of three streams wait out a
// second window, then count as a switch failure. The suspect is already
// marked dead, so the ack check adds no third stream and only the
// escalation can close the evidence.
func TestDiagnosisInconclusiveEscalates(t *testing.T) {
	r := newDiagRig(t, 1, 2, 3)
	r.c.actOnDiagnosis(2, failover.DiagSwitch)
	r.diags = nil
	r.report(1, 2, openflow.LossUp)
	r.report(3, 2, openflow.LossDown)
	r.checkAt(500 * time.Millisecond)
	r.sim.RunUntil(sim.Time(3 * time.Second))
	r.c.HandleMessage(1, &openflow.KeepAlive{From: 1})
	r.c.HandleMessage(3, &openflow.KeepAlive{From: 3})
	r.checkAt(3100 * time.Millisecond)
	r.sim.RunUntil(sim.Time(5500 * time.Millisecond))
	r.c.HandleMessage(1, &openflow.KeepAlive{From: 1})
	r.c.HandleMessage(3, &openflow.KeepAlive{From: 3})
	r.checkAt(5900 * time.Millisecond)
	r.expect(t, "inside the second window")
	r.checkAt(6100 * time.Millisecond)
	r.expect(t, "second window closed", "S2 switch @6.1s")
}

// TestDiagnosisProofOfLifeClears: a message only a live switch could
// send drops the open evidence against it.
func TestDiagnosisProofOfLifeClears(t *testing.T) {
	r := newDiagRig(t, 1, 2, 3)
	r.report(1, 2, openflow.LossUp)
	r.checkAt(500 * time.Millisecond)
	r.sim.RunUntil(sim.Time(time.Second))
	r.c.HandleMessage(2, &openflow.KeepAlive{From: 2})
	r.checkAt(3100 * time.Millisecond)
	r.checkAt(3400 * time.Millisecond)
	r.expect(t, "after proof of life")
}

// TestDiagnosisOrder: diagnoses closing in one check reach OnDiagnosis
// in ascending switch ID, whatever the order of Config.Switches.
func TestDiagnosisOrder(t *testing.T) {
	r := newDiagRig(t, 4, 3, 1, 2)
	r.report(3, 4, openflow.LossDown)
	r.report(4, 3, openflow.LossUp)
	r.report(3, 2, openflow.LossUp)
	r.report(2, 1, openflow.LossUp)
	r.report(4, 1, openflow.LossDown)
	r.checkAt(500 * time.Millisecond)
	r.checkAt(3100 * time.Millisecond)
	r.expect(t, "first window", "S2 peer-link-up @3.1s", "S3 peer-link-up @3.1s", "S4 peer-link-down @3.1s")
	r.checkAt(6100 * time.Millisecond)
	r.expect(t, "second window", "S2 peer-link-up @3.1s", "S3 peer-link-up @3.1s", "S4 peer-link-down @3.1s",
		"S1 switch @6.1s")
}

// TestDiagnosisClosesUnderFold: open evidence keeps the control fold
// from folding check rounds. S2's neighbours ack every second, S2 goes
// silent when S1 reports it at 10.5 s, mid-fold: the ack check adds the
// controller stream and the two-of-three evidence closes two windows
// after the report, at the first check round past 16.5 s.
func TestDiagnosisClosesUnderFold(t *testing.T) {
	r := newDiagRig(t, 1, 2, 3)
	r.c.cfg.FoldGate = func() bool { return true }
	r.c.Start()
	r.sim.RunUntil(sim.Time(10500 * time.Millisecond))
	r.report(1, 2, openflow.LossUp)
	for at := 11 * time.Second; at <= 20*time.Second; at += time.Second {
		r.sim.RunUntil(sim.Time(at - 500*time.Millisecond))
		r.c.HandleMessage(1, &openflow.KeepAlive{From: 1})
		r.c.HandleMessage(3, &openflow.KeepAlive{From: 3})
		r.sim.RunUntil(sim.Time(at))
	}
	r.expect(t, "folded start", "S2 switch @17s")
}
