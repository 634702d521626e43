// Package tenant models the multi-tenant population of the data center:
// tenants identified by VLAN, their virtual machines, and the placement
// of VMs on edge switches. The paper's motivation (§II) rests on tenants
// of roughly constant size (20–100 VMs) whose traffic is isolated by
// virtualization; the trace generators and the controller's tenant
// information management module both consume this package.
package tenant

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"

	"lazyctrl/internal/model"
)

// Host is one virtual machine.
type Host struct {
	ID     model.HostID
	MAC    model.MAC
	IP     model.IP
	Tenant model.TenantID
	VLAN   model.VLAN
	Switch model.SwitchID
}

// Tenant is one cloud tenant with an isolated VLAN.
type Tenant struct {
	ID    model.TenantID
	VLAN  model.VLAN
	Hosts []model.HostID
}

// Directory holds the tenant/host/placement state of a data center.
type Directory struct {
	tenants  map[model.TenantID]*Tenant
	hosts    map[model.HostID]*Host
	bySwitch map[model.SwitchID][]model.HostID
	switches []model.SwitchID
	// dense caches hosts with small numeric IDs for index lookup. The
	// generators assign sequential IDs, so the replay engines' two
	// Host calls per folded flow hit this array instead of the map —
	// at full trace scale the map hashing alone dominated the fold.
	dense []*Host
}

// denseHostCap bounds the dense index so one outlying large ID cannot
// balloon the array; IDs past the cap stay map-only.
const denseHostCap = 1 << 21

// NewDirectory returns an empty directory over the given edge switches.
func NewDirectory(switches []model.SwitchID) *Directory {
	sorted := append([]model.SwitchID(nil), switches...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return &Directory{
		tenants:  make(map[model.TenantID]*Tenant),
		hosts:    make(map[model.HostID]*Host),
		bySwitch: make(map[model.SwitchID][]model.HostID),
		switches: sorted,
	}
}

// Switches returns the edge switches, ascending. The caller must not
// modify the returned slice.
func (d *Directory) Switches() []model.SwitchID { return d.switches }

// AddTenant registers a tenant with its VLAN.
func (d *Directory) AddTenant(id model.TenantID, vlan model.VLAN) (*Tenant, error) {
	if _, dup := d.tenants[id]; dup {
		return nil, fmt.Errorf("tenant: duplicate tenant %v", id)
	}
	t := &Tenant{ID: id, VLAN: vlan}
	d.tenants[id] = t
	return t, nil
}

// AddHost creates a VM for a tenant on a switch. Addresses are derived
// deterministically from the host ID.
func (d *Directory) AddHost(id model.HostID, tenantID model.TenantID, sw model.SwitchID) (*Host, error) {
	t, ok := d.tenants[tenantID]
	if !ok {
		return nil, fmt.Errorf("tenant: unknown tenant %v", tenantID)
	}
	if _, dup := d.hosts[id]; dup {
		return nil, fmt.Errorf("tenant: duplicate host %v", id)
	}
	h := &Host{
		ID:     id,
		MAC:    model.HostMAC(id),
		IP:     model.HostIP(id),
		Tenant: tenantID,
		VLAN:   t.VLAN,
		Switch: sw,
	}
	d.hosts[id] = h
	if i := int(id); i >= 0 && i < denseHostCap {
		for len(d.dense) <= i {
			d.dense = append(d.dense, nil)
		}
		d.dense[i] = h
	}
	t.Hosts = append(t.Hosts, id)
	d.bySwitch[sw] = append(d.bySwitch[sw], id)
	return h, nil
}

// ErrUnknownHost reports a lookup of an unregistered host.
var ErrUnknownHost = errors.New("tenant: unknown host")

// Host returns the host record, or nil.
func (d *Directory) Host(id model.HostID) *Host {
	if i := int(id); i >= 0 && i < len(d.dense) {
		return d.dense[i]
	}
	return d.hosts[id]
}

// Tenant returns the tenant record, or nil.
func (d *Directory) Tenant(id model.TenantID) *Tenant { return d.tenants[id] }

// TenantIDs returns all tenants, ascending.
func (d *Directory) TenantIDs() []model.TenantID {
	out := make([]model.TenantID, 0, len(d.tenants))
	for id := range d.tenants {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HostsOn returns the hosts attached to a switch. The caller must not
// modify the returned slice.
func (d *Directory) HostsOn(sw model.SwitchID) []model.HostID { return d.bySwitch[sw] }

// NumHosts returns the total VM count.
func (d *Directory) NumHosts() int { return len(d.hosts) }

// NumTenants returns the tenant count.
func (d *Directory) NumTenants() int { return len(d.tenants) }

// SwitchOf returns the switch hosting a VM.
func (d *Directory) SwitchOf(id model.HostID) (model.SwitchID, error) {
	h, ok := d.hosts[id]
	if !ok {
		return model.NoSwitch, fmt.Errorf("%w: %v", ErrUnknownHost, id)
	}
	return h.Switch, nil
}

// Migrate moves a VM to another switch (VM migration, §III-D3). It
// returns the old switch.
func (d *Directory) Migrate(id model.HostID, to model.SwitchID) (model.SwitchID, error) {
	h, ok := d.hosts[id]
	if !ok {
		return model.NoSwitch, fmt.Errorf("%w: %v", ErrUnknownHost, id)
	}
	from := h.Switch
	if from == to {
		return from, nil
	}
	list := d.bySwitch[from]
	for i, hid := range list {
		if hid == id {
			d.bySwitch[from] = append(list[:i], list[i+1:]...)
			break
		}
	}
	h.Switch = to
	d.bySwitch[to] = append(d.bySwitch[to], id)
	return from, nil
}

// PopulateConfig drives random tenant/VM generation.
type PopulateConfig struct {
	// Tenants is the number of tenants to create.
	Tenants int
	// MinVMs and MaxVMs bound each tenant's size (the paper observes
	// 20–100 VMs per tenant).
	MinVMs int
	MaxVMs int
	// Colocation in [0,1] controls placement locality: with probability
	// Colocation a VM lands on one of its tenant's "home" switches
	// (a small random subset), otherwise on a uniformly random switch.
	// High colocation produces the skewed, group-local traffic of §II-A.
	Colocation float64
	// Seed drives the generator.
	Seed uint64
}

// homesPerTenant is the size of each tenant's home-switch subset: small
// enough that a tenant's traffic clusters (§II-A), large enough that one
// tenant does not fill a rack.
const homesPerTenant = 4

// Populate fills the directory with a random multi-tenant population.
// Host IDs are dense starting at 1; tenant VLANs are 1-based.
func (d *Directory) Populate(cfg PopulateConfig) error {
	if cfg.Tenants <= 0 || cfg.MinVMs <= 0 || cfg.MaxVMs < cfg.MinVMs {
		return errors.New("tenant: invalid populate config")
	}
	if len(d.switches) == 0 {
		return errors.New("tenant: no switches to place on")
	}
	homes := min(homesPerTenant, len(d.switches))
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xfeedface))
	next := model.HostID(1)
	for ti := 1; ti <= cfg.Tenants; ti++ {
		id := model.TenantID(ti)
		vlan := model.VLAN(ti % 4094)
		if vlan == 0 {
			vlan = 4094
		}
		if _, err := d.AddTenant(id, vlan); err != nil {
			return err
		}
		// Choose home switches.
		perm := rng.Perm(len(d.switches))
		homeSet := make([]model.SwitchID, homes)
		for i := 0; i < homes; i++ {
			homeSet[i] = d.switches[perm[i]]
		}
		n := cfg.MinVMs
		if cfg.MaxVMs > cfg.MinVMs {
			n += rng.IntN(cfg.MaxVMs - cfg.MinVMs + 1)
		}
		for v := 0; v < n; v++ {
			var sw model.SwitchID
			if rng.Float64() < cfg.Colocation {
				sw = homeSet[rng.IntN(homes)]
			} else {
				sw = d.switches[rng.IntN(len(d.switches))]
			}
			if _, err := d.AddHost(next, id, sw); err != nil {
				return err
			}
			next++
		}
	}
	return nil
}
