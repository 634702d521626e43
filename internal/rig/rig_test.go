package rig

import (
	"reflect"
	"testing"
	"time"

	"lazyctrl/internal/controller"
	"lazyctrl/internal/edge"
	"lazyctrl/internal/grouping"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/tenant"
)

// twoGroups builds a 6-switch rig with tenant 1 on S1–S3 and tenant 2
// on S4–S6 (two hosts per switch), grouped {1,2,3} and {4,5,6}.
func twoGroups(t *testing.T, standby bool) *Rig {
	t.Helper()
	dir := tenant.NewDirectory([]model.SwitchID{1, 2, 3, 4, 5, 6})
	for tid := model.TenantID(1); tid <= 2; tid++ {
		if _, err := dir.AddTenant(tid, model.VLAN(tid)); err != nil {
			t.Fatal(err)
		}
	}
	for sw := model.SwitchID(1); sw <= 6; sw++ {
		for k := 0; k < 2; k++ {
			if _, err := dir.AddHost(model.HostID(10*int(sw)+k), model.TenantID(1+(sw-1)/3), sw); err != nil {
				t.Fatal(err)
			}
		}
	}
	r, err := New(dir,
		controller.Config{Mode: controller.ModeLazy, GroupSizeLimit: 3, Seed: 5},
		edge.Config{AdvertiseInterval: time.Second, ReportInterval: 2 * time.Second},
		standby)
	if err != nil {
		t.Fatal(err)
	}
	m := grouping.NewIntensity()
	for _, sw := range dir.Switches() {
		m.AddSwitch(sw)
	}
	for _, p := range [][2]model.SwitchID{{1, 2}, {2, 3}, {1, 3}, {4, 5}, {5, 6}, {4, 6}} {
		m.Add(p[0], p[1], 10)
	}
	if err := r.Primary().InitialGrouping(m); err != nil {
		t.Fatal(err)
	}
	return r
}

// lfib returns the hosts a switch's L-FIB holds, by MAC.
func lfib(r *Rig, sw model.SwitchID) map[model.MAC]bool {
	out := make(map[model.MAC]bool)
	for _, e := range r.Edge(sw).LFIB().WireEntries() {
		out[e.MAC] = true
	}
	return out
}

func directoryHosts(r *Rig, sw model.SwitchID) map[model.MAC]bool {
	out := make(map[model.MAC]bool)
	for _, h := range r.Dir().HostsOn(sw) {
		out[r.Dir().Host(h).MAC] = true
	}
	return out
}

// TestWiring pins what New promises with and without a standby: every
// directory switch built, attached to the underlay with its hosts, and
// started (a world whose switches or replicas never started cannot
// reach the fixpoint the checker asserts).
func TestWiring(t *testing.T) {
	for _, standby := range []bool{false, true} {
		r := twoGroups(t, standby)
		wantReplicas := []model.SwitchID{model.ControllerNode}
		if standby {
			wantReplicas = append(wantReplicas, model.StandbyNode)
		}
		if got := r.Replicas(); !reflect.DeepEqual(got, wantReplicas) {
			t.Errorf("standby=%v: Replicas() = %v, want %v", standby, got, wantReplicas)
		}
		if r.Active() != r.Primary() {
			t.Errorf("standby=%v: the primary is not the active master at start", standby)
		}
		for _, id := range wantReplicas {
			if r.Net().Node(id) == nil {
				t.Errorf("standby=%v: replica %v not on the underlay", standby, id)
			}
		}
		for _, sw := range r.Switches() {
			if r.Edge(sw) == nil || r.Net().Node(sw) == nil {
				t.Fatalf("standby=%v: S%d missing or not attached", standby, sw)
			}
			if got, want := lfib(r, sw), directoryHosts(r, sw); !reflect.DeepEqual(got, want) {
				t.Errorf("standby=%v: S%d L-FIB %v, directory %v", standby, sw, got, want)
			}
		}
		r.Sim().RunFor(30 * time.Second)
		if div := r.World().Diverged(); len(div) != 0 {
			t.Errorf("standby=%v: world not at the fixpoint after 30s:\n%v", standby, div)
		}
	}
}

// TestTakeover forces a takeover and pins the replica-aware half of the
// harness: Replicas() stays master-first, Active() follows the higher
// generation while the dead primary still claims the role, the promoted
// standby knows the tenants (its ARP relays carry the tenant, not 0),
// and Restart re-attaches the directory's hosts and signals only the
// current master.
func TestTakeover(t *testing.T) {
	r := twoGroups(t, true)
	primary, standby := r.Controllers()[0], r.Controllers()[1]
	r.Sim().RunFor(10 * time.Second)

	var relays []*openflow.ARPRelay
	r.Net().Observer = func(from, to model.SwitchID, msg netsim.Message, delivered bool) {
		if m, ok := msg.(*openflow.ARPRelay); ok && !delivered && from == model.StandbyNode {
			relays = append(relays, m)
		}
	}
	r.Net().FailNode(model.ControllerNode)
	r.Sim().RunFor(30 * time.Second) // three missed 5 s heartbeats and change
	if !standby.IsMaster() {
		t.Fatal("standby never took over")
	}
	if r.Active() != standby {
		t.Error("Active() still names the dead primary: it must follow the higher generation")
	}

	// A fresh tenant-1 host in the other group: the C-LIB does not know
	// it yet, so the first flow toward it makes the master relay an ARP.
	if err := r.AddHost(99, 1, 4); err != nil {
		t.Fatal(err)
	}
	r.Inject(r.Dir().Host(10), r.Dir().Host(99), 1400)
	r.Sim().RunFor(time.Second)
	if len(relays) == 0 {
		t.Fatal("the promoted standby relayed no ARP for an unknown destination")
	}
	for _, m := range relays {
		if m.Tenant != 1 {
			t.Errorf("post-takeover ARPRelay carries tenant %d, want 1 (VLAN binding missing on the standby)", m.Tenant)
		}
	}

	// Heal the old primary; the fence demotes it.
	r.Net().HealNode(model.ControllerNode)
	r.Sim().RunFor(30 * time.Second)
	if primary.IsMaster() {
		t.Fatal("healed stale master was never demoted")
	}
	if got, want := r.Replicas(), []model.SwitchID{model.StandbyNode, model.ControllerNode}; !reflect.DeepEqual(got, want) {
		t.Errorf("Replicas() after takeover = %v, want master-first %v", got, want)
	}

	r.Crash(2)
	r.Sim().RunFor(time.Second)
	masterV, demotedV := standby.GroupingVersion(), primary.GroupingVersion()
	r.Restart(2)
	if got, want := lfib(r, 2), directoryHosts(r, 2); !reflect.DeepEqual(got, want) {
		t.Errorf("restarted S2 L-FIB %v, directory %v", got, want)
	}
	if standby.GroupingVersion() == masterV {
		t.Error("Restart did not signal the current master")
	}
	if primary.GroupingVersion() != demotedV {
		t.Error("Restart signalled the demoted replica")
	}
	r.Sim().RunFor(time.Minute)
	if div := r.World().Diverged(); len(div) != 0 {
		t.Errorf("world not back at the fixpoint:\n%v", div)
	}
}
