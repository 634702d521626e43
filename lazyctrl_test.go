package lazyctrl

import (
	"testing"
	"time"

	"lazyctrl/internal/chaos"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
)

// twoGroupDC builds a 6-switch data center with two tenants placed so
// that groups {1,2,3} and {4,5,6} emerge.
func twoGroupDC(t *testing.T, mode Mode) (*DataCenter, *[]time.Duration) {
	t.Helper()
	var latencies []time.Duration
	dc, err := New(Config{
		Switches:       6,
		Mode:           mode,
		GroupSizeLimit: 3,
		Seed:           5,
		OnDeliver: func(src, dst HostID, lat time.Duration) {
			latencies = append(latencies, lat)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dc.AddTenant(1)
	dc.AddTenant(2)
	// Tenant 1 on switches 1-3; tenant 2 on switches 4-6.
	for i, sw := range []SwitchID{1, 2, 3} {
		if err := dc.AddHost(HostID(10+i), 1, sw); err != nil {
			t.Fatal(err)
		}
	}
	for i, sw := range []SwitchID{4, 5, 6} {
		if err := dc.AddHost(HostID(20+i), 2, sw); err != nil {
			t.Fatal(err)
		}
	}
	if mode == LazyCtrl {
		if err := dc.SeedGroupingFromPlacement(); err != nil {
			t.Fatal(err)
		}
	}
	dc.Run(5 * time.Second)
	return dc, &latencies
}

func TestGroupingFollowsTenancy(t *testing.T) {
	dc, _ := twoGroupDC(t, LazyCtrl)
	if g := dc.Groups(); len(g) != 2 {
		t.Fatalf("groups = %v, want 2", g)
	}
	if dc.GroupOf(1) != dc.GroupOf(2) || dc.GroupOf(4) != dc.GroupOf(5) {
		t.Error("tenant switches split across groups")
	}
	if dc.GroupOf(1) == dc.GroupOf(4) {
		t.Error("tenants merged into one group")
	}
	designatedCount := 0
	for _, sw := range []SwitchID{1, 2, 3} {
		if dc.IsDesignated(sw) {
			designatedCount++
		}
	}
	if designatedCount != 1 {
		t.Errorf("group has %d designated switches, want 1", designatedCount)
	}
}

func TestIntraGroupFlowStaysLocal(t *testing.T) {
	dc, lats := twoGroupDC(t, LazyCtrl)
	before := dc.Report().PacketIns
	if err := dc.SendFlow(10, 11, 1400); err != nil {
		t.Fatal(err)
	}
	dc.Run(time.Second)
	if len(*lats) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(*lats))
	}
	if (*lats)[0] <= 0 || (*lats)[0] > 2*time.Millisecond {
		t.Errorf("intra-group latency = %v", (*lats)[0])
	}
	if dc.Report().PacketIns != before {
		t.Error("intra-group flow reached the controller")
	}
}

func TestInterGroupFlowUsesController(t *testing.T) {
	dc, lats := twoGroupDC(t, LazyCtrl)
	if err := dc.SendFlow(10, 21, 1400); err != nil {
		t.Fatal(err)
	}
	dc.Run(time.Second)
	if len(*lats) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(*lats))
	}
	rep := dc.Report()
	if rep.PacketIns == 0 || rep.FlowMods == 0 {
		t.Errorf("inter-group flow bypassed the controller: %+v", rep)
	}
}

func TestOpenFlowBaseline(t *testing.T) {
	dc, lats := twoGroupDC(t, OpenFlow)
	if err := dc.SendFlow(10, 21, 1400); err != nil {
		t.Fatal(err)
	}
	dc.Run(time.Second)
	if len(*lats) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(*lats))
	}
	rep := dc.Report()
	if rep.Floods == 0 {
		t.Error("baseline did not flood the first unknown destination")
	}
	if rep.Groups != 0 {
		t.Error("baseline formed groups")
	}
}

func TestMigration(t *testing.T) {
	dc, lats := twoGroupDC(t, LazyCtrl)
	if err := dc.MigrateHost(11, 3); err != nil {
		t.Fatal(err)
	}
	if sw, _ := dc.SwitchOf(11); sw != 3 {
		t.Fatalf("SwitchOf(11) = %v, want 3", sw)
	}
	// Dissemination catches up; the flow then reaches the new location.
	dc.Run(5 * time.Second)
	if err := dc.SendFlow(10, 11, 1400); err != nil {
		t.Fatal(err)
	}
	dc.Run(time.Second)
	if len(*lats) != 1 {
		t.Errorf("deliveries = %d, want 1 after migration", len(*lats))
	}
}

func TestFailoverRoundTrip(t *testing.T) {
	var diags []Diagnosis
	var suspects []SwitchID
	dc, _ := func() (*DataCenter, *[]time.Duration) {
		var latencies []time.Duration
		dc, err := New(Config{
			Switches:       6,
			GroupSizeLimit: 3,
			Seed:           5,
			OnDiagnosis: func(s SwitchID, d Diagnosis) {
				suspects = append(suspects, s)
				diags = append(diags, d)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		dc.AddTenant(1)
		for i, sw := range []SwitchID{1, 2, 3} {
			if err := dc.AddHost(HostID(10+i), 1, sw); err != nil {
				t.Fatal(err)
			}
		}
		if err := dc.SeedGroupingFromPlacement(); err != nil {
			t.Fatal(err)
		}
		dc.Run(5 * time.Second)
		return dc, &latencies
	}()

	wasDesignated := SwitchID(0)
	for _, sw := range []SwitchID{1, 2, 3} {
		if dc.IsDesignated(sw) {
			wasDesignated = sw
		}
	}
	if wasDesignated == 0 {
		t.Fatal("no designated switch")
	}
	dc.FailSwitch(wasDesignated)
	dc.Run(2 * time.Minute)
	if len(suspects) == 0 {
		t.Fatal("failure never diagnosed")
	}
	// A replacement designated switch exists among the survivors.
	replacement := false
	for _, sw := range []SwitchID{1, 2, 3} {
		if sw != wasDesignated && dc.IsDesignated(sw) {
			replacement = true
		}
	}
	if !replacement {
		t.Error("no replacement designated switch")
	}
	// Recovery restores the original (lowest-MAC) designated switch.
	dc.RecoverSwitch(wasDesignated)
	dc.Run(time.Minute)
	if !dc.IsDesignated(wasDesignated) {
		t.Error("recovered switch did not resume designated role")
	}
}

// TestEarlyRecoveryResyncsGroupView pins recovery from a transient
// failure: a switch that fails and is recovered before the keep-alive
// diagnosis window closes still rebooted (volatile state gone), so
// MarkRecovered must re-push its group view even though the controller
// never marked it dead — otherwise the switch answers keep-alives
// configless forever.
func TestEarlyRecoveryResyncsGroupView(t *testing.T) {
	dc, err := New(Config{Switches: 6, GroupSizeLimit: 3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	dc.AddTenant(1)
	for i := 1; i <= 6; i++ {
		if err := dc.AddHost(HostID(i), 1, SwitchID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc.SeedGroupingFromPlacement(); err != nil {
		t.Fatal(err)
	}
	dc.Run(5 * time.Second)
	victim := SwitchID(2)
	if len(dc.rig.Edge(victim).Group().Members) == 0 {
		t.Fatal("victim never received a group view")
	}
	dc.FailSwitch(victim)
	dc.Run(6 * time.Second) // well inside the 15 s diagnosis window
	dc.RecoverSwitch(victim)
	if len(dc.rig.Edge(victim).Group().Members) != 0 {
		t.Fatal("reboot did not clear the group view")
	}
	dc.Run(30 * time.Second)
	if len(dc.rig.Edge(victim).Group().Members) == 0 {
		t.Error("early-recovered switch never got its group view re-pushed")
	}
	// Traffic from its hosts must flow again.
	if err := dc.SendFlow(2, 5, 1400); err != nil {
		t.Fatal(err)
	}
	dc.Run(5 * time.Second)
	if got := dc.rig.Edge(SwitchID(5)).Stats().Delivered; got == 0 {
		t.Error("flow from the recovered switch was never delivered")
	}
}

// TestDeadMemberFilterRemovalReachesNonNeighbors pins the wire-level
// filter tombstone: when a member dies, every live group member —
// including those that are not its wheel neighbors and so never see
// the missed heartbeats themselves — evicts the dead member's G-FIB
// filter once the designated broadcast or the controller's
// post-diagnosis tombstone lands, without waiting for a membership
// change.
func TestDeadMemberFilterRemovalReachesNonNeighbors(t *testing.T) {
	dc, err := New(Config{Switches: 6, GroupSizeLimit: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dc.AddTenant(1)
	for i := 1; i <= 6; i++ {
		if err := dc.AddHost(HostID(i), 1, SwitchID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc.SeedGroupingFromPlacement(); err != nil {
		t.Fatal(err)
	}
	// Let dissemination build every member's G-FIB.
	dc.Run(time.Minute)
	victim := SwitchID(4)
	holders := 0
	for id, sw := range dc.rig.Edges() {
		if id == victim {
			continue
		}
		if _, held := sw.GFIB().PeerVersion(victim); held {
			holders++
		}
	}
	if holders < 4 {
		t.Fatalf("only %d members hold the victim's filter before the failure", holders)
	}
	dc.FailSwitch(victim)
	dc.Run(3 * time.Minute)
	for id, sw := range dc.rig.Edges() {
		if id == victim {
			continue
		}
		if v, held := sw.GFIB().PeerVersion(victim); held {
			t.Errorf("switch %v still holds dead member %v's filter (version %d)", id, victim, v)
		}
	}
	st := dc.rig.Primary().Stats()
	if st.FilterRemovalsSent == 0 {
		t.Error("controller sent no filter tombstones after DiagSwitch")
	}
}

// TestDesignatedTenureStateReleased pins the designated role's
// lifecycle through the public API: S2 is promoted when S1 fails,
// demoted when S1 recovers, and promoted a second time — with the
// membership unchanged — when S1 fails again. S4 dies in between. The
// second tenure must be built from what the live members advertise, not
// from the first tenure's snapshot of S4: a re-promoted switch that
// re-disseminated a dead member's filter and re-reported its bindings
// would make first packets toward S4 encapsulate into a black hole
// instead of escalating.
func TestDesignatedTenureStateReleased(t *testing.T) {
	dc, err := New(Config{Switches: 4, GroupSizeLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	dc.AddTenant(1)
	for i := 1; i <= 4; i++ {
		if err := dc.AddHost(HostID(i), 1, SwitchID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc.SeedGroupingFromPlacement(); err != nil {
		t.Fatal(err)
	}
	dc.Run(time.Minute)
	if !dc.IsDesignated(1) {
		t.Fatal("setup: S1 is not the designated switch")
	}
	dc.FailSwitch(1)
	dc.Run(time.Minute)
	if !dc.IsDesignated(2) {
		t.Fatal("setup: S2 was not promoted when S1 failed")
	}
	dc.RecoverSwitch(1)
	dc.Run(time.Minute)
	if !dc.IsDesignated(1) || dc.IsDesignated(2) {
		t.Fatal("setup: the role did not return to S1 on recovery")
	}
	dc.FailSwitch(4)
	dc.Run(time.Minute)
	ctrl := dc.rig.Primary()
	if !ctrl.IsDead(4) || len(ctrl.CLIB().EntriesOn(4)) != 0 {
		t.Fatalf("setup: S4 not diagnosed (dead %v, %d C-LIB bindings)", ctrl.IsDead(4), len(ctrl.CLIB().EntriesOn(4)))
	}
	dc.FailSwitch(1)
	dc.Run(time.Minute)
	if !dc.IsDesignated(2) {
		t.Fatal("S2 was not promoted a second time")
	}
	for _, id := range []SwitchID{2, 3} {
		if v, held := dc.rig.Edge(id).GFIB().PeerVersion(4); held {
			t.Errorf("switch %v holds dead S4's filter again (version %d)", id, v)
		}
	}
	if n := len(ctrl.CLIB().EntriesOn(4)); n != 0 || !ctrl.IsDead(4) {
		t.Errorf("C-LIB attributes %d bindings to S4 (dead %v), want 0 on a dead switch", n, ctrl.IsDead(4))
	}
}

// TestReportFollowsMasterAfterTakeover pins the DataCenter against a
// controller failover: once the standby rules, Report, GroupOf and
// Groups read the new master (not the killed primary's frozen
// counters), the shared recorder keeps counting requests past the
// handoff, and the promoted standby knows the tenants AddTenant
// registered — its ARP relays carry the tenant, not 0.
func TestReportFollowsMasterAfterTakeover(t *testing.T) {
	dc, err := New(Config{Switches: 6, GroupSizeLimit: 3, Seed: 5, Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	dc.AddTenant(1)
	dc.AddTenant(2)
	for i, sw := range []SwitchID{1, 2, 3} {
		if err := dc.AddHost(HostID(10+i), 1, sw); err != nil {
			t.Fatal(err)
		}
		if err := dc.AddHost(HostID(20+i), 2, sw+3); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc.SeedGroupingFromPlacement(); err != nil {
		t.Fatal(err)
	}
	dc.Run(10 * time.Second)

	// Kill the master replica and run past three missed 5 s heartbeats.
	chaos.ControllerFailover{}.Apply(dc.Chaos())
	dc.Run(30 * time.Second)
	if dc.FailoverStats().Takeovers != 1 {
		t.Fatal("standby never took over")
	}
	if len(dc.Groups()) != 2 || dc.GroupOf(1) == dc.GroupOf(4) {
		t.Errorf("grouping lost across the takeover: %v", dc.Groups())
	}
	mid := dc.Report()

	var relayTenants []TenantID
	dc.rig.Net().Observer = func(from, to SwitchID, msg netsim.Message, delivered bool) {
		if m, ok := msg.(*openflow.ARPRelay); ok && !delivered {
			relayTenants = append(relayTenants, m.Tenant)
		}
	}
	// An inter-group flow to a known host, and one to a host deployed
	// this instant, which the C-LIB cannot know yet: the master must
	// relay an ARP for it.
	if err := dc.SendFlow(10, 21, 1400); err != nil {
		t.Fatal(err)
	}
	if err := dc.AddHost(13, 1, 4); err != nil {
		t.Fatal(err)
	}
	if err := dc.SendFlow(10, 13, 1400); err != nil {
		t.Fatal(err)
	}
	dc.Run(time.Second)
	after := dc.Report()
	if after.PacketIns <= mid.PacketIns {
		t.Errorf("PacketIns did not advance under the new master: %d -> %d", mid.PacketIns, after.PacketIns)
	}
	if after.ControllerRequests <= mid.ControllerRequests {
		t.Errorf("ControllerRequests stopped counting at the handoff: %d -> %d", mid.ControllerRequests, after.ControllerRequests)
	}
	if len(relayTenants) == 0 {
		t.Fatal("no ARPRelay observed for the unknown destination")
	}
	for _, tid := range relayTenants {
		if tid != 1 {
			t.Errorf("post-takeover ARPRelay carries tenant %d, want 1", tid)
		}
	}
}

// TestFailoverMidRecoveryFencesAndConverges drives a scripted chaos plan
// through the public API (docs/robustness.md#failover): S2 crashes, and
// while its diagnosis is still open the master replica dies for 60 s.
// The standby takes over under a bumped generation and serves a flow
// sent mid-window. When the old primary heals, still believing it is
// the master, the edges must fence its stale-generation pushes, the
// promoted standby must keep the role, and the fabric must come back to
// the fault-free fixpoint.
func TestFailoverMidRecoveryFencesAndConverges(t *testing.T) {
	dc, err := New(Config{Switches: 6, GroupSizeLimit: 3, Seed: 3, Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	dc.AddTenant(1)
	for i := 0; i < 6; i++ {
		if err := dc.AddHost(HostID(10+i), 1, SwitchID(1+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dc.SeedGroupingFromPlacement(); err != nil {
		t.Fatal(err)
	}
	dc.Run(10 * time.Second)

	t0 := dc.Now()
	plan := &chaos.Plan{Name: "master crash mid-recovery"}
	plan.Add(t0+time.Second, 45*time.Second, chaos.Crash{Switch: 2})
	plan.Add(t0+3*time.Second, 60*time.Second, chaos.ControllerFailover{})
	plan.Add(t0+30*time.Second, 0, chaos.Func{
		Name: "send a flow under the new master",
		Run: func(chaos.Harness) func() {
			if err := dc.SendFlow(10, 12, 1400); err != nil {
				t.Errorf("mid-window SendFlow: %v", err)
			}
			return nil
		},
	})
	dc.RunScenario(plan, 45*time.Second)

	st := dc.FailoverStats()
	if st.StaleGenRejected == 0 {
		t.Error("the healed stale master was never fenced")
	}
	if m := dc.Master(); m != StandbyNode {
		t.Errorf("master is %v, want the promoted standby %v", m, StandbyNode)
	}
	for _, d := range dc.CheckConvergence() {
		t.Errorf("divergence: %s", d)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := New(Config{Switches: 0}); err == nil {
		t.Error("zero switches accepted")
	}
	dc, err := New(Config{Switches: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.AddHost(1, 99, 1); err == nil {
		t.Error("host for unknown tenant accepted")
	}
	dc.AddTenant(1)
	if err := dc.AddHost(1, 1, 99); err == nil {
		t.Error("host on unknown switch accepted")
	}
	if err := dc.AddHost(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := dc.AddHost(1, 1, 2); err == nil {
		t.Error("duplicate host accepted")
	}
	if err := dc.MigrateHost(99, 1); err == nil {
		t.Error("migrating unknown host accepted")
	}
	if err := dc.MigrateHost(1, 99); err == nil {
		t.Error("migrating to unknown switch accepted")
	}
	if err := dc.SendFlow(99, 1, 0); err == nil {
		t.Error("flow from unknown host accepted")
	}
	if err := dc.SendFlow(1, 99, 0); err == nil {
		t.Error("flow to unknown host accepted")
	}
}

func TestNegotiateGroupSize(t *testing.T) {
	offers := []SwitchOffer{
		{PreferredLimit: 30, Capacity: 1},
		{PreferredLimit: 40, Capacity: 1},
		{PreferredLimit: 50, Capacity: 1},
	}
	limit, err := NegotiateGroupSize(100, offers)
	if err != nil {
		t.Fatal(err)
	}
	if limit < 30 || limit > 100 {
		t.Errorf("negotiated limit = %d, want within [30,100]", limit)
	}
}

func TestReportString(t *testing.T) {
	dc, _ := twoGroupDC(t, LazyCtrl)
	s := dc.Report().String()
	if s == "" {
		t.Error("empty report string")
	}
}
