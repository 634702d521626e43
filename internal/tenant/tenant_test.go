package tenant

import (
	"errors"
	"math/rand/v2"
	"runtime"
	"slices"
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
	// Out of order on purpose: Tenants is ascending whatever the order
	// of AddTenant.
	for _, id := range []model.TenantID{3, 1, 2} {
		if err := d.AddTenant(id, model.VLAN(100*id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddTenant(1, 101); err == nil {
		t.Error("duplicate tenant accepted")
	}
	var ids []model.TenantID
	for _, tn := range d.Tenants() {
		ids = append(ids, tn.ID)
	}
	if !slices.Equal(ids, []model.TenantID{1, 2, 3}) {
		t.Errorf("Tenants = %v, want ascending 1..3", ids)
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
	// 0 is "no host", and model.HostIP keeps 24 bits of the ID, so
	// 1<<24+1 would share host 1's IP.
	for _, id := range []model.HostID{0, 1 << 24, 1<<24 + 1, ^model.HostID(0)} {
		if _, err := d.AddHost(id, 1, 2); err == nil {
			t.Errorf("host ID %d accepted", id)
		}
	}
	for _, id := range []model.HostID{0, 42, 1<<24 - 1, 1 << 24, 1<<24 + 1} {
		if d.Host(id) != nil {
			t.Errorf("Host(%d) found an unknown host", id)
		}
	}
	if d.NumHosts() != 1 {
		t.Errorf("NumHosts = %d, want 1", d.NumHosts())
	}
}

// TestHostPointersStable: a *Host stays valid across later AddHost calls
// (including ones that open new pages of the table) and sees Migrate;
// per-tenant and per-switch lists keep insertion order.
func TestHostPointersStable(t *testing.T) {
	d := NewDirectory(switchSet(4))
	for _, id := range []model.TenantID{2, 1} {
		if err := d.AddTenant(id, model.VLAN(id)); err != nil {
			t.Fatal(err)
		}
	}
	order := []model.HostID{7, 3, 1<<24 - 1, 5000, 1, 9000, 4}
	held := make(map[model.HostID]*Host)
	for i, id := range order {
		h, err := d.AddHost(id, model.TenantID(1+i%2), 1)
		if err != nil {
			t.Fatal(err)
		}
		held[id] = h
	}
	for id, h := range held {
		if d.Host(id) != h || h.ID != id || h.IP != model.HostIP(id) {
			t.Errorf("host %d: pointer %p now %p, record %+v", id, h, d.Host(id), h)
		}
	}
	if got := d.HostsOn(1); !slices.Equal(got, order) {
		t.Errorf("HostsOn(1) = %v, want insertion order %v", got, order)
	}
	if got := d.Tenant(1).Hosts; !slices.Equal(got, []model.HostID{7, 1<<24 - 1, 1, 4}) {
		t.Errorf("tenant 1 hosts = %v, want insertion order", got)
	}
	if got := d.Tenant(2).Hosts; !slices.Equal(got, []model.HostID{3, 5000, 9000}) {
		t.Errorf("tenant 2 hosts = %v, want insertion order", got)
	}
	if _, err := d.Migrate(5000, 3); err != nil {
		t.Fatal(err)
	}
	if held[5000].Switch != 3 {
		t.Errorf("held pointer sees switch %v after Migrate, want S3", held[5000].Switch)
	}
	if got := d.HostsOn(1); !slices.Equal(got, []model.HostID{7, 3, 1<<24 - 1, 1, 9000, 4}) {
		t.Errorf("HostsOn(1) after Migrate = %v, want order kept", got)
	}
}

// TestOutlierHostIDCost: the highest legal ID costs one page of the table
// and the page index, about 150 KB, not a table sized to the ID.
func TestOutlierHostIDCost(t *testing.T) {
	d := NewDirectory(switchSet(1))
	if err := d.AddTenant(1, 1); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := d.AddHost(1<<24-1, 1, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("one outlying host allocated %d bytes, want ≤ 1 MiB", grew)
	}
}

func TestMigrate(t *testing.T) {
	d := NewDirectory(switchSet(3))
	if err := d.AddTenant(1, 1); err != nil {
		t.Fatal(err)
	}
	h, err := d.AddHost(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	from, err := d.Migrate(1, 3)
	if err != nil || from != 1 {
		t.Fatalf("Migrate = %v, %v", from, err)
	}
	if got := d.Host(1).Switch; got != 3 || h.Switch != 3 {
		t.Errorf("switch after migrate = %v (held pointer %v), want 3", got, h.Switch)
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

// TestUnlistedSwitchRefused: neither AddHost nor Migrate may put a host
// on a switch outside the directory's list, and a refusal changes
// nothing. An intensity matrix registers Switches up front; a host on
// an unlisted switch would register that switch in flow order instead.
func TestUnlistedSwitchRefused(t *testing.T) {
	d := NewDirectory([]model.SwitchID{2, 4})
	if err := d.AddTenant(1, 1); err != nil {
		t.Fatal(err)
	}
	for _, sw := range []model.SwitchID{0, 1, 3, 5} {
		if _, err := d.AddHost(1, 1, sw); !errors.Is(err, errUnknownSwitch) {
			t.Errorf("AddHost on S%v: err %v, want errUnknownSwitch", sw, err)
		}
	}
	if d.NumHosts() != 0 || d.Host(1) != nil || len(d.Tenant(1).Hosts) != 0 {
		t.Fatalf("refused AddHost left state: %d hosts, tenant %v", d.NumHosts(), d.Tenant(1).Hosts)
	}
	if _, err := d.AddHost(1, 1, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Migrate(1, 3); !errors.Is(err, errUnknownSwitch) {
		t.Errorf("Migrate to S3: err %v, want errUnknownSwitch", err)
	}
	if got := d.Host(1).Switch; got != 4 || !slices.Equal(d.HostsOn(4), []model.HostID{1}) || d.HostsOn(3) != nil {
		t.Errorf("refused Migrate moved the host: switch %v, HostsOn(4)=%v", got, d.HostsOn(4))
	}
	if !slices.Equal(d.Switches(), []model.SwitchID{2, 4}) {
		t.Errorf("Switches = %v, want [2 4]", d.Switches())
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
	if n := len(d.Tenants()); n != 15 {
		t.Errorf("tenants = %d, want 15", n)
	}
	if d.NumHosts() < 15*20 || d.NumHosts() > 15*100 {
		t.Errorf("NumHosts = %d, want within [300,1500]", d.NumHosts())
	}
	// Populate carves every list from one allocation: growing one
	// afterwards must not write into the next one's room.
	onS2, ofT2 := slices.Clone(d.HostsOn(2)), slices.Clone(d.Tenant(2).Hosts)
	if _, err := d.AddHost(model.HostID(d.NumHosts()+1), 1, 1); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(d.HostsOn(2), onS2) || !slices.Equal(d.Tenant(2).Hosts, ofT2) {
		t.Error("AddHost after Populate overwrote a neighbouring list")
	}
	// Every tenant within size bounds.
	for _, tn := range d.Tenants() {
		if len(tn.Hosts) < 20 || len(tn.Hosts) > 100 {
			t.Errorf("tenant %v has %d VMs, want [20,100]", tn.ID, len(tn.Hosts))
		}
		if tn.VLAN == 0 {
			t.Errorf("tenant %v has zero VLAN", tn.ID)
		}
	}
	// Colocation: for most tenants, the top-4 switches should hold the
	// bulk of the VMs (≈90% land on 4 home switches).
	concentrated := 0
	for _, tn := range d.Tenants() {
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
	if err := d.Populate(PopulateConfig{Tenants: 1, MinVMs: 1, MaxVMs: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Populate(PopulateConfig{Tenants: 1, MinVMs: 1, MaxVMs: 1}); err == nil {
		t.Error("populate over a populated directory accepted")
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

// TestShuffleMatchesRand pins shuffle to rand.Rand.Shuffle on a twin
// source: the same permutation, and the source left in the same state.
// The sizes cover both branches of the bounded draw (power-of-two
// bounds are masked, others multiplied) and Populate's 2,713 switches.
func TestShuffleMatchesRand(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 8, 1023, 1024, 2713, 4096} {
		for seed := uint64(1); seed <= 5; seed++ {
			src, twin := rand.NewPCG(seed, ^seed), rand.NewPCG(seed, ^seed)
			got, want := make([]int, n), make([]int, n)
			for i := range n {
				got[i], want[i] = i, i
			}
			shuffle(got, src)
			rand.New(twin).Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d seed=%d: shuffle differs from rand.Shuffle", n, seed)
			}
			if a, b := src.Uint64(), twin.Uint64(); a != b {
				t.Fatalf("n=%d seed=%d: next draw %#x, rand.Shuffle's source gives %#x", n, seed, a, b)
			}
		}
	}
}
