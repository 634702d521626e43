package tenant

import (
	"sort"
	"testing"

	"lazyctrl/internal/model"
)

func switchSet(n int) []model.SwitchID {
	out := make([]model.SwitchID, n)
	for i := range out {
		out[i] = model.SwitchID(i + 1)
	}
	return out
}

func TestAddTenantAndHost(t *testing.T) {
	d := NewDirectory(switchSet(4))
	if _, err := d.AddTenant(1, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddTenant(1, 101); err == nil {
		t.Error("duplicate tenant accepted")
	}
	h, err := d.AddHost(1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.VLAN != 100 || h.Switch != 2 || h.MAC != model.HostMAC(1) {
		t.Errorf("host = %+v", h)
	}
	if _, err := d.AddHost(1, 1, 2); err == nil {
		t.Error("duplicate host accepted")
	}
	if _, err := d.AddHost(2, 99, 2); err == nil {
		t.Error("host for unknown tenant accepted")
	}
	if d.Host(42) != nil {
		t.Error("Host found an unknown host")
	}
}

func TestMigrate(t *testing.T) {
	d := NewDirectory(switchSet(3))
	if _, err := d.AddTenant(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddHost(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	from, err := d.Migrate(1, 3)
	if err != nil || from != 1 {
		t.Fatalf("Migrate = %v, %v", from, err)
	}
	if got := d.Host(1).Switch; got != 3 {
		t.Errorf("switch after migrate = %v, want 3", got)
	}
	if len(d.HostsOn(1)) != 0 || len(d.HostsOn(3)) != 1 {
		t.Errorf("HostsOn: from=%v to=%v", d.HostsOn(1), d.HostsOn(3))
	}
	// Same-switch migration is a no-op.
	if from, err := d.Migrate(1, 3); err != nil || from != 3 {
		t.Errorf("self Migrate = %v, %v", from, err)
	}
	if _, err := d.Migrate(99, 1); err == nil {
		t.Error("Migrate unknown host succeeded")
	}
}

func TestPopulateShape(t *testing.T) {
	d := NewDirectory(switchSet(20))
	err := d.Populate(PopulateConfig{
		Tenants:    15,
		MinVMs:     20,
		MaxVMs:     100,
		Colocation: 0.9,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(d.TenantIDs()); n != 15 {
		t.Errorf("tenants = %d, want 15", n)
	}
	if d.NumHosts() < 15*20 || d.NumHosts() > 15*100 {
		t.Errorf("NumHosts = %d, want within [300,1500]", d.NumHosts())
	}
	// Every tenant within size bounds.
	for _, id := range d.TenantIDs() {
		tn := d.Tenant(id)
		if len(tn.Hosts) < 20 || len(tn.Hosts) > 100 {
			t.Errorf("tenant %v has %d VMs, want [20,100]", id, len(tn.Hosts))
		}
		if tn.VLAN == 0 {
			t.Errorf("tenant %v has zero VLAN", id)
		}
	}
	// Colocation: for most tenants, the top-4 switches should hold the
	// bulk of the VMs (≈90% land on 4 home switches).
	concentrated := 0
	for _, id := range d.TenantIDs() {
		tn := d.Tenant(id)
		perSwitch := map[model.SwitchID]int{}
		for _, h := range tn.Hosts {
			perSwitch[d.Host(h).Switch]++
		}
		counts := make([]int, 0, len(perSwitch))
		for _, c := range perSwitch {
			counts = append(counts, c)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		top := 0
		for i := 0; i < len(counts) && i < 4; i++ {
			top += counts[i]
		}
		if float64(top) >= 0.7*float64(len(tn.Hosts)) {
			concentrated++
		}
	}
	if concentrated < 12 {
		t.Errorf("only %d/15 tenants concentrated, want ≥ 12", concentrated)
	}
}

func TestPopulateDeterministic(t *testing.T) {
	mk := func() *Directory {
		d := NewDirectory(switchSet(10))
		if err := d.Populate(PopulateConfig{Tenants: 5, MinVMs: 10, MaxVMs: 20, Colocation: 0.8, Seed: 42}); err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := mk(), mk()
	if a.NumHosts() != b.NumHosts() {
		t.Fatalf("host counts differ: %d vs %d", a.NumHosts(), b.NumHosts())
	}
	for hid := model.HostID(1); int(hid) <= a.NumHosts(); hid++ {
		sa, sb := a.Host(hid).Switch, b.Host(hid).Switch
		if sa != sb {
			t.Fatalf("placement of %v differs: %v vs %v", hid, sa, sb)
		}
	}
}

func TestPopulateValidation(t *testing.T) {
	d := NewDirectory(switchSet(3))
	if err := d.Populate(PopulateConfig{Tenants: 0, MinVMs: 1, MaxVMs: 2}); err == nil {
		t.Error("Tenants=0 accepted")
	}
	if err := d.Populate(PopulateConfig{Tenants: 1, MinVMs: 5, MaxVMs: 2}); err == nil {
		t.Error("MaxVMs < MinVMs accepted")
	}
	empty := NewDirectory(nil)
	if err := empty.Populate(PopulateConfig{Tenants: 1, MinVMs: 1, MaxVMs: 1}); err == nil {
		t.Error("no-switch populate accepted")
	}
}

func TestSwitchesSortedAndImmutableView(t *testing.T) {
	d := NewDirectory([]model.SwitchID{3, 1, 2})
	sw := d.Switches()
	if sw[0] != 1 || sw[1] != 2 || sw[2] != 3 {
		t.Errorf("Switches = %v, want sorted", sw)
	}
}
