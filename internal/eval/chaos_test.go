package eval

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"lazyctrl/internal/chaos"
	"lazyctrl/internal/controller"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/rig"
)

// soakSeeds expands LAZYCTRL_CHAOS_SOAK=N into N extra soak seeds —
// the CI long-soak job's knob.
func soakSeeds() []uint64 {
	n, _ := strconv.Atoi(os.Getenv("LAZYCTRL_CHAOS_SOAK"))
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, 100+uint64(i))
	}
	return out
}

// chaosConfig is the shared base for the chaos runs: static grouping
// (so both sides of a differential pair group identically), one hour
// of the small synthetic trace.
func chaosConfig(t testing.TB, seed uint64, plan *chaos.Plan) EmulationConfig {
	t.Helper()
	tr := smallTrace(t, seed)
	return EmulationConfig{
		Source:         tr.Stream(0),
		Mode:           controller.ModeLazy,
		GroupSizeLimit: 6,
		Horizon:        time.Hour,
		BucketWidth:    30 * time.Minute,
		Seed:           seed,
		Chaos:          plan,
	}
}

// TestChaosCascadeDifferential is the acceptance test: a scripted
// cascade — burst loss across the target group's peer links, a
// control-link partition cutting the group off the controller, and a
// designated-switch crash landing mid-regroup — must converge to the
// byte-identical content fixpoint of a fault-free run of the same
// seed, within the documented round bound, with no stale-epoch
// snapshot ever adopted. Swept over seeds (one in -short).
func TestChaosCascadeDifferential(t *testing.T) {
	checkFrozen(t)
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		base, err := RunEmulation(chaosConfig(t, seed, &chaos.Plan{Name: "fault-free"}))
		if err != nil {
			t.Fatalf("seed %d fault-free: %v", seed, err)
		}
		if !base.Converged {
			t.Fatalf("seed %d: fault-free run did not converge:\n%s",
				seed, strings.Join(base.Divergences, "\n"))
		}
		if base.Fixpoint == "" {
			t.Fatalf("seed %d: empty fault-free fixpoint", seed)
		}

		faulted, err := RunEmulation(chaosConfig(t, seed, chaos.Cascade(1, 30*time.Minute)))
		if err != nil {
			t.Fatalf("seed %d cascade: %v", seed, err)
		}
		// The faults must actually have fired.
		if faulted.Drops.InjectedLoss == 0 {
			t.Errorf("seed %d: burst loss dropped nothing", seed)
		}
		if faulted.Drops.Partition == 0 {
			t.Errorf("seed %d: control-link partition dropped nothing", seed)
		}
		if faulted.Drops.DownAtSend+faulted.Drops.DownAtDelivery == 0 {
			t.Errorf("seed %d: designated crash dropped nothing", seed)
		}
		if !faulted.Converged {
			t.Fatalf("seed %d: cascade did not converge within %d rounds:\n%s",
				seed, chaos.DefaultRecoveryRoundBound, strings.Join(faulted.Divergences, "\n"))
		}
		if faulted.RecoveryRounds > chaos.DefaultRecoveryRoundBound {
			t.Errorf("seed %d: recovery took %d rounds, bound %d",
				seed, faulted.RecoveryRounds, chaos.DefaultRecoveryRoundBound)
		}
		if len(faulted.StaleAdoptions) != 0 {
			t.Errorf("seed %d: stale-epoch adoptions:\n%s",
				seed, strings.Join(faulted.StaleAdoptions, "\n"))
		}
		if faulted.Fixpoint != base.Fixpoint {
			t.Errorf("seed %d: faulted fixpoint differs from fault-free fixpoint:\n--- fault-free ---\n%s\n--- faulted ---\n%s",
				seed, base.Fixpoint, faulted.Fixpoint)
		}
	}
}

// TestChaosSoakRandomized is the randomized chaos soak (run under
// -race in CI): per-seed random fault schedules — loss, delay,
// reordering, control-link flaps, crash-restarts, a controller
// blackout — must always settle back to a converged world with no
// stale adoptions. One seed in -short, more otherwise; the long-soak
// CI job sweeps further via LAZYCTRL_CHAOS_SOAK.
func TestChaosSoakRandomized(t *testing.T) {
	seeds := []uint64{11, 12}
	if testing.Short() {
		seeds = seeds[:1]
	}
	seeds = append(seeds, soakSeeds()...)
	for _, seed := range seeds {
		tr := smallTrace(t, 5)
		switches := tr.Stream(0).Info().Directory.Switches()
		plan := chaos.Randomized(seed, switches, 20*time.Minute, 30*time.Minute, 20)
		cfg := chaosConfig(t, 5, plan)
		cfg.Source = tr.Stream(0)
		res, err := RunEmulation(cfg)
		if err != nil {
			t.Fatalf("soak seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Errorf("soak seed %d: not converged after %d rounds:\n%s\n%s",
				seed, res.RecoveryRounds, strings.Join(res.Divergences, "\n"), plan.Describe())
		}
		if len(res.StaleAdoptions) != 0 {
			t.Errorf("soak seed %d: stale adoptions:\n%s", seed, strings.Join(res.StaleAdoptions, "\n"))
		}
	}
}

// BenchmarkConvergence runs the acceptance cascade end-to-end —
// fault injection, degraded-mode ride-through, and the settle loop —
// and reports the recovery-round count and total degradation window
// as extra metrics alongside the usual time/allocs (gated in
// cmd/bench: the rounds metric regressing means the repair paths got
// slower in protocol rounds, not just wall time).
func BenchmarkConvergence(b *testing.B) {
	tr := smallTrace(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var last *EmulationResult
	for i := 0; i < b.N; i++ {
		// The horizon lands one minute after the cascade's last undo,
		// so the settle loop measures real recovery rounds instead of
		// crediting recovery that happened during slack replay time.
		res, err := RunEmulation(EmulationConfig{
			Source:         tr.Stream(0),
			Mode:           controller.ModeLazy,
			GroupSizeLimit: 6,
			Horizon:        40 * time.Minute,
			BucketWidth:    20 * time.Minute,
			Seed:           1,
			Chaos:          chaos.Cascade(1, 30*time.Minute),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("cascade did not converge:\n%s", strings.Join(res.Divergences, "\n"))
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(last.RecoveryRounds), "recovery-rounds")
	b.ReportMetric(float64(last.DegradedWindow.Milliseconds()), "degraded-window-ms")
}

// TestChaosProbeCoversSettle pins the probe past the last undo: a G-FIB
// version rewound one round after the plan ends — after the fault
// window's probe has stopped — must still be reported as a stale
// adoption, by the probes the settle loop runs.
func TestChaosProbeCoversSettle(t *testing.T) {
	const end = 40 * time.Minute
	round := max(advertiseInterval, reportInterval)
	var stale string
	plan := (&chaos.Plan{Name: "late-rewind"}).Add(end, 0, chaos.Func{
		Name: "rewind one G-FIB filter version, one round later",
		Run: func(h chaos.Harness) func() {
			h.After(round, func() {
				r := h.(*rig.Rig)
				for _, id := range r.Switches() {
					if g := r.Edge(id).GFIB(); g.Len() > 0 {
						peer, v := g.At(0)
						if err := g.SetFilterBytes(peer, g.AppendFilter(nil, 0), v-1); err != nil {
							t.Error(err)
						}
						stale = fmt.Sprintf("S%d: adopted stale filter for S%d", id, peer)
						return
					}
				}
			})
			return nil
		},
	})
	cfg := chaosConfig(t, 1, plan)
	cfg.Horizon = end + round + time.Second
	res, err := RunEmulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stale == "" {
		t.Fatal("no switch held a G-FIB filter to rewind")
	}
	if !slices.ContainsFunc(res.StaleAdoptions, func(v string) bool { return strings.HasPrefix(v, stale) }) {
		t.Fatalf("rewind after the plan's end not reported (want %q...):\n%s", stale, strings.Join(res.StaleAdoptions, "\n"))
	}
}

// BenchmarkWorldProbe is the checker as a layer: one Probe of a warmed
// checker over the cascade's converged world. Gated in cmd/bench at
// 0 allocs/op — a probe that finds nothing allocates nothing.
func BenchmarkWorldProbe(b *testing.B) {
	var r *rig.Rig // the emulation's rig, captured by the plan's first step
	plan := chaos.Cascade(1, 30*time.Minute).Add(0, 0, chaos.Func{
		Name: "capture the rig",
		Run: func(h chaos.Harness) func() {
			r = h.(*rig.Rig)
			return nil
		},
	})
	res, err := RunEmulation(EmulationConfig{
		Source:         smallTrace(b, 1).Stream(0),
		Mode:           controller.ModeLazy,
		GroupSizeLimit: 6,
		Horizon:        40 * time.Minute,
		BucketWidth:    20 * time.Minute,
		Seed:           1,
		Chaos:          plan,
	})
	if err != nil {
		b.Fatal(err)
	}
	if !res.Converged {
		b.Fatalf("cascade did not converge:\n%s", strings.Join(res.Divergences, "\n"))
	}
	w := r.World()
	if v := w.Probe(); len(v) != 0 {
		b.Fatalf("warm-up probe flagged: %v", v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := w.Probe(); len(v) != 0 {
			b.Fatalf("probe flagged: %v", v)
		}
	}
}

// TestChaosFailoverDifferential is the replicated-controller
// acceptance test: each failover scenario — master crash, full master
// isolation, replica-link cut (dueling masters) — overlapped with a
// switch crash must converge to the byte-identical content fixpoint of
// a fault-free replicated run of the same seed, within the documented
// round bound, with no stale-generation message ever applied and
// exactly one replica holding the master role at the fixpoint (the
// world checker enforces the last two as convergence invariants).
// Swept over seeds (one in -short).
func TestChaosFailoverDifferential(t *testing.T) {
	checkFrozen(t)
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, plan := range FailoverPlans(30 * time.Minute) {
			res, err := ChaosDifferential(seed, true, plan)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, plan.Name, err)
			}
			faulted := res.Faulted
			if faulted.Takeovers == 0 {
				t.Errorf("seed %d %s: no takeover happened", seed, plan.Name)
			}
			if !faulted.Converged {
				t.Fatalf("seed %d %s: not converged within %d rounds:\n%s",
					seed, plan.Name, chaos.DefaultRecoveryRoundBound,
					strings.Join(faulted.Divergences, "\n"))
			}
			if faulted.RecoveryRounds > chaos.DefaultRecoveryRoundBound {
				t.Errorf("seed %d %s: recovery took %d rounds, bound %d",
					seed, plan.Name, faulted.RecoveryRounds, chaos.DefaultRecoveryRoundBound)
			}
			if len(faulted.StaleAdoptions) != 0 {
				t.Errorf("seed %d %s: stale adoptions/fence violations:\n%s",
					seed, plan.Name, strings.Join(faulted.StaleAdoptions, "\n"))
			}
			if !res.FixpointMatch {
				t.Errorf("seed %d %s: faulted fixpoint differs from fault-free fixpoint:\n%s",
					seed, plan.Name, faulted.Fixpoint)
			}
			// The stale-master storm leaves the old master serving the
			// fabric under a superseded generation: the fence must have
			// actually rejected something before demoting it.
			if plan.Name == "stale-master-storm" && faulted.StaleGenRejected == 0 {
				t.Errorf("seed %d: stale-master storm fenced nothing", seed)
			}
		}
	}
}

// TestChaosRackAndChurnDifferential runs the two crash-cascade
// scenarios docs/robustness.md lists beside chaos.Cascade through the
// same differential: a rolling rack failure under a loss storm, and a
// designated-churn storm. Both are sized against the 1 min keep-alive
// (every victim stays down past the 3-miss detector) and must return
// to the fault-free fixpoint. Swept over seeds (one in -short).
func TestChaosRackAndChurnDifferential(t *testing.T) {
	checkFrozen(t)
	const at = 30 * time.Minute
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		// The rack is three switches of switch 1's group, read off the
		// fault-free fixpoint (its first line is S1's group view).
		base, err := RunEmulation(chaosConfig(t, seed, &chaos.Plan{Name: "fault-free"}))
		if err != nil {
			t.Fatalf("seed %d fault-free: %v", seed, err)
		}
		line, _, _ := strings.Cut(base.Fixpoint, "\n")
		_, list, _ := strings.Cut(strings.TrimSuffix(line, "]"), "members=[")
		var rack []model.SwitchID
		for _, f := range strings.Fields(list) {
			id, err := strconv.Atoi(strings.TrimPrefix(f, "S"))
			if err != nil {
				t.Fatalf("seed %d: fixpoint line %q: %v", seed, line, err)
			}
			rack = append(rack, model.SwitchID(id))
		}
		if len(rack) < 3 {
			t.Fatalf("seed %d: switch 1's group %v has fewer than 3 members", seed, rack)
		}
		for _, plan := range []*chaos.Plan{
			rackCascade(rack[:3], at, 2*time.Minute, 6*time.Minute, 0.4),
			designatedChurnStorm(1, at, 7*time.Minute, 6*time.Minute, 3),
		} {
			res, err := ChaosDifferential(seed, false, plan)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, plan.Name, err)
			}
			f := res.Faulted
			t.Logf("seed %d %s: drops %+v, recovered in %d rounds", seed, plan.Name, f.Drops, f.RecoveryRounds)
			if f.Drops.Total() == 0 {
				t.Errorf("seed %d %s: the faults dropped nothing", seed, plan.Name)
			}
			if !f.Converged {
				t.Fatalf("seed %d %s: not converged within %d rounds:\n%s",
					seed, plan.Name, chaos.DefaultRecoveryRoundBound, strings.Join(f.Divergences, "\n"))
			}
			if f.RecoveryRounds > chaos.DefaultRecoveryRoundBound {
				t.Errorf("seed %d %s: recovery took %d rounds, bound %d",
					seed, plan.Name, f.RecoveryRounds, chaos.DefaultRecoveryRoundBound)
			}
			if len(f.StaleAdoptions) != 0 {
				t.Errorf("seed %d %s: stale adoptions:\n%s", seed, plan.Name, strings.Join(f.StaleAdoptions, "\n"))
			}
			if !res.FixpointMatch {
				t.Errorf("seed %d %s: faulted fixpoint differs from fault-free fixpoint:\n%s",
					seed, plan.Name, f.Fixpoint)
			}
		}
	}
}

// TestChaosFailoverSoakRandomized is the failover soak lane: random
// fault schedules against the replicated stack, where the randomized
// pool now includes master failover, split-brain, and stale-master
// storms. Same convergence contract as the cascade soak; the CI
// long-soak job sweeps further via LAZYCTRL_CHAOS_SOAK.
func TestChaosFailoverSoakRandomized(t *testing.T) {
	seeds := []uint64{21, 22}
	if testing.Short() {
		seeds = seeds[:1]
	}
	seeds = append(seeds, soakSeeds()...)
	for _, seed := range seeds {
		tr := smallTrace(t, 5)
		switches := tr.Stream(0).Info().Directory.Switches()
		plan := chaos.Randomized(seed, switches, 20*time.Minute, 30*time.Minute, 20)
		cfg := chaosConfig(t, 5, plan)
		cfg.Source = tr.Stream(0)
		cfg.Standby = true
		res, err := RunEmulation(cfg)
		if err != nil {
			t.Fatalf("failover soak seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Errorf("failover soak seed %d: not converged after %d rounds:\n%s\n%s",
				seed, res.RecoveryRounds, strings.Join(res.Divergences, "\n"), plan.Describe())
		}
		if len(res.StaleAdoptions) != 0 {
			t.Errorf("failover soak seed %d: stale adoptions:\n%s",
				seed, strings.Join(res.StaleAdoptions, "\n"))
		}
	}
}

// BenchmarkFailover runs the master-crash scenario end-to-end —
// detection, generation-fenced takeover, residue rebuild, re-push, and
// the healed old master's demotion — and reports the takeover length
// in protocol rounds and the fabric's degraded window as extra metrics
// (gated in cmd/bench alongside the wall-time/alloc gates).
func BenchmarkFailover(b *testing.B) {
	tr := smallTrace(b, 1)
	plan := FailoverPlans(30 * time.Minute)[0]
	b.ReportAllocs()
	b.ResetTimer()
	var last *EmulationResult
	for i := 0; i < b.N; i++ {
		// The horizon lands one minute after the last undo, so the
		// settle loop measures real recovery rounds.
		res, err := RunEmulation(EmulationConfig{
			Source:         tr.Stream(0),
			Mode:           controller.ModeLazy,
			GroupSizeLimit: 6,
			Horizon:        43 * time.Minute,
			BucketWidth:    43 * time.Minute,
			Seed:           1,
			Standby:        true,
			Chaos:          plan,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("failover did not converge:\n%s", strings.Join(res.Divergences, "\n"))
		}
		if len(res.TakeoverTimelines) == 0 {
			b.Fatal("no takeover happened")
		}
		last = res
	}
	b.StopTimer()
	tl := last.TakeoverTimelines[len(last.TakeoverTimelines)-1]
	b.ReportMetric(float64(TakeoverRounds(tl)), "takeover-rounds")
	b.ReportMetric(float64(last.DegradedWindow.Milliseconds()), "degraded-window-ms")
	b.ReportMetric(float64(last.DupEscalationsSuppressed), "dup-escalations-suppressed")
}

// TestDisseminationRounds pins the rounding: a phase that ends one
// control-link round trip past a round boundary took no further round.
func TestDisseminationRounds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{2*time.Minute + 800*time.Microsecond, 12},
		{2*time.Minute + 5*time.Second, 13},
		{3 * time.Minute, 18},
	} {
		if got := DisseminationRounds(tc.d); got != tc.want {
			t.Errorf("DisseminationRounds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestChaosControllerBlackout: a 10-minute controller outage must not
// strand the control plane — pushes retry with backoff, edges ride it
// out on existing state (degraded flood for cold flows), and the world
// converges once the controller is back.
func TestChaosControllerBlackout(t *testing.T) {
	res, err := RunEmulation(chaosConfig(t, 4, chaos.ControllerOutage(10*time.Minute, 10*time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops.DownAtSend+res.Drops.DownAtDelivery == 0 {
		t.Error("blackout dropped no controller traffic")
	}
	if !res.Converged {
		t.Fatalf("not converged after blackout:\n%s", strings.Join(res.Divergences, "\n"))
	}
	if len(res.StaleAdoptions) != 0 {
		t.Errorf("stale adoptions:\n%s", strings.Join(res.StaleAdoptions, "\n"))
	}
}

// rackCascade staggers crash-restarts across a rack of switches while
// a correlated loss storm degrades every link touching the rack — the
// classic rolling-failure cascade. Each switch is down for downFor;
// crashes start stagger apart.
func rackCascade(rack []model.SwitchID, at, stagger, downFor time.Duration, loss float64) *chaos.Plan {
	p := &chaos.Plan{Name: "rack-cascade"}
	stormLen := time.Duration(len(rack))*stagger + downFor
	if loss > 0 {
		for _, sw := range rack {
			p.Add(at, stormLen, chaos.Fault{Rule: netsim.FaultRule{A: sw, B: model.NoSwitch, Loss: loss}})
		}
	}
	for i, sw := range rack {
		p.Add(at+time.Duration(i)*stagger, downFor, chaos.Crash{Switch: sw})
	}
	return p
}

// designatedChurnStorm repeatedly crashes whichever switch currently
// holds the designated role of seed's group: every period a fresh
// CrashDesignated fires, the victim stays down for downFor, and by the
// time it restarts failover has rotated the role onto the next wheel
// member — which the next round then kills.
func designatedChurnStorm(seed model.SwitchID, at, period, downFor time.Duration, rounds int) *chaos.Plan {
	p := &chaos.Plan{Name: fmt.Sprintf("designated-churn-S%d", seed)}
	for i := 0; i < rounds; i++ {
		p.Add(at+time.Duration(i)*period, downFor, chaos.CrashDesignated{Of: seed})
	}
	return p
}
