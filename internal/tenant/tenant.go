// Package tenant models the multi-tenant population of the data center:
// tenants identified by VLAN, their virtual machines, and the placement
// of VMs on edge switches. The paper's motivation (§II) rests on tenants
// of roughly constant size (20–100 VMs) whose traffic is isolated by
// virtualization; the trace generators and the controller's tenant
// information management module both consume this package.
package tenant

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"

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
//
// Hosts are stored once, by value, in a table indexed by ID: fixed-size
// pages allocated on first use, so a lone outlying ID costs one page.
// A page never moves, so the *Host that Host returns stays valid across
// later AddHost calls and sees every Migrate. Tenants are one slice,
// ascending by ID; each tenant and each switch lists its hosts in
// insertion order.
type Directory struct {
	pages    []*hostPage
	numHosts int
	tenants  []Tenant
	bySwitch map[model.SwitchID][]model.HostID
	switches []model.SwitchID
}

// hostIDLimit bounds host IDs: legal IDs are 1 to hostIDLimit−1.
// model.HostIP keeps 24 bits of the ID, so a larger ID would share a
// smaller host's address, and 0 is the "no host" value.
const hostIDLimit = 1 << 24

// pageBits sizes a page of the host table: 4096 hosts, 112 KB.
const pageBits = 12

type hostPage [1 << pageBits]Host

// NewDirectory returns an empty directory over the given edge switches.
func NewDirectory(switches []model.SwitchID) *Directory {
	sorted := slices.Clone(switches)
	slices.Sort(sorted)
	return &Directory{
		bySwitch: make(map[model.SwitchID][]model.HostID, len(sorted)),
		switches: sorted,
	}
}

// Switches returns the edge switches, ascending. The caller must not
// modify the returned slice.
func (d *Directory) Switches() []model.SwitchID { return d.switches }

// AddTenant registers a tenant with its VLAN.
func (d *Directory) AddTenant(id model.TenantID, vlan model.VLAN) error {
	i, dup := d.tenantIndex(id)
	if dup {
		return fmt.Errorf("tenant: duplicate tenant %v", id)
	}
	d.tenants = slices.Insert(d.tenants, i, Tenant{ID: id, VLAN: vlan})
	return nil
}

func (d *Directory) tenantIndex(id model.TenantID) (int, bool) {
	return slices.BinarySearchFunc(d.tenants, id, func(t Tenant, id model.TenantID) int { return cmp.Compare(t.ID, id) })
}

// errUnknownSwitch reports a host placed on, or moved to, a switch
// outside the directory's list. Refusing it keeps Switches complete:
// the intensity fold counts each host's traffic at its switch's
// position in Switches, and registers them all up front, so every
// host has a valid position and no flow registers a switch (see
// trace.StreamIntensity).
var errUnknownSwitch = errors.New("tenant: unknown switch")

func (d *Directory) checkSwitch(sw model.SwitchID) error {
	if _, ok := slices.BinarySearch(d.switches, sw); !ok {
		return fmt.Errorf("%w: %v", errUnknownSwitch, sw)
	}
	return nil
}

// AddHost creates a VM for a tenant on one of the directory's switches.
// Addresses are derived deterministically from the host ID.
func (d *Directory) AddHost(id model.HostID, tenantID model.TenantID, sw model.SwitchID) (*Host, error) {
	if err := d.checkSwitch(sw); err != nil {
		return nil, err
	}
	ti, ok := d.tenantIndex(tenantID)
	if !ok {
		return nil, fmt.Errorf("tenant: unknown tenant %v", tenantID)
	}
	return d.addHost(id, ti, sw)
}

// addHost is AddHost for a listed switch and the tenant at index ti:
// Populate, which draws both from the directory, skips their lookups.
func (d *Directory) addHost(id model.HostID, ti int, sw model.SwitchID) (*Host, error) {
	if id == 0 || id >= hostIDLimit {
		return nil, fmt.Errorf("tenant: host ID %d outside [1, %d)", id, hostIDLimit)
	}
	p := int(id >> pageBits)
	if p >= len(d.pages) {
		d.pages = append(d.pages, make([]*hostPage, p+1-len(d.pages))...)
	}
	if d.pages[p] == nil {
		d.pages[p] = new(hostPage)
	}
	h := &d.pages[p][id%(1<<pageBits)]
	if h.ID != 0 {
		return nil, fmt.Errorf("tenant: duplicate host %v", id)
	}
	t := &d.tenants[ti]
	*h = Host{
		ID:     id,
		MAC:    model.HostMAC(id),
		IP:     model.HostIP(id),
		Tenant: t.ID,
		VLAN:   t.VLAN,
		Switch: sw,
	}
	d.numHosts++
	t.Hosts = append(t.Hosts, id)
	d.bySwitch[sw] = append(d.bySwitch[sw], id)
	return h, nil
}

// ErrUnknownHost reports a lookup of an unregistered host.
var ErrUnknownHost = errors.New("tenant: unknown host")

// Host returns the host record, or nil.
func (d *Directory) Host(id model.HostID) *Host {
	p := int(id >> pageBits)
	if p >= len(d.pages) || d.pages[p] == nil {
		return nil
	}
	if h := &d.pages[p][id%(1<<pageBits)]; h.ID != 0 {
		return h
	}
	return nil
}

// Tenant returns the tenant record, or nil. The pointer is valid until
// the next AddTenant.
func (d *Directory) Tenant(id model.TenantID) *Tenant {
	if i, ok := d.tenantIndex(id); ok {
		return &d.tenants[i]
	}
	return nil
}

// Tenants returns every tenant, ascending by ID. The caller must not
// modify the returned slice.
func (d *Directory) Tenants() []Tenant { return d.tenants }

// HostsOn returns the hosts attached to a switch, in the order they
// arrived. The caller must not modify the returned slice.
func (d *Directory) HostsOn(sw model.SwitchID) []model.HostID { return d.bySwitch[sw] }

// NumHosts returns the total VM count.
func (d *Directory) NumHosts() int { return d.numHosts }

// Migrate moves a VM to another of the directory's switches (VM
// migration, §III-D3). It returns the old switch.
func (d *Directory) Migrate(id model.HostID, to model.SwitchID) (model.SwitchID, error) {
	h := d.Host(id)
	if h == nil {
		return model.NoSwitch, fmt.Errorf("%w: %v", ErrUnknownHost, id)
	}
	if err := d.checkSwitch(to); err != nil {
		return model.NoSwitch, err
	}
	from := h.Switch
	if from == to {
		return from, nil
	}
	list := d.bySwitch[from]
	i := slices.Index(list, id)
	d.bySwitch[from] = slices.Delete(list, i, i+1)
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

// Populate fills an empty directory with a random multi-tenant
// population. Host IDs are dense starting at 1; tenant VLANs are
// 1-based.
func (d *Directory) Populate(cfg PopulateConfig) error {
	if cfg.Tenants <= 0 || cfg.MinVMs <= 0 || cfg.MaxVMs < cfg.MinVMs {
		return errors.New("tenant: invalid populate config")
	}
	if len(d.switches) == 0 {
		return errors.New("tenant: no switches to place on")
	}
	if len(d.tenants) > 0 {
		return errors.New("tenant: populate needs an empty directory")
	}
	homes := min(homesPerTenant, len(d.switches))
	src := rand.NewPCG(cfg.Seed, cfg.Seed^0xfeedface)
	rng := rand.New(src)
	// Draw every tenant's size and placement first, so each host list is
	// sized once before the hosts arrive. perm is reset and shuffled per
	// tenant, draw for draw what rng.Perm does; its first homes entries
	// are the tenant's home switches.
	sizes := make([]int, cfg.Tenants)
	var placed []int // index into d.switches of each host, in ID order
	perm := make([]int, len(d.switches))
	for ti := range sizes {
		for i := range perm {
			perm[i] = i
		}
		shuffle(perm, src)
		n := cfg.MinVMs
		if cfg.MaxVMs > cfg.MinVMs {
			n += rng.IntN(cfg.MaxVMs - cfg.MinVMs + 1)
		}
		sizes[ti] = n
		for range n {
			if rng.Float64() < cfg.Colocation {
				placed = append(placed, perm[rng.IntN(homes)])
			} else {
				placed = append(placed, rng.IntN(len(d.switches)))
			}
		}
	}
	perSwitch := make([]int, len(d.switches))
	for _, si := range placed {
		perSwitch[si]++
	}
	// One allocation holds every list: each gets capacity for exactly its
	// hosts, so a later append past it copies instead of writing into
	// the next list's room.
	room := make([]model.HostID, 2*len(placed))
	carve := func(n int) []model.HostID {
		l := room[:0:n]
		room = room[n:]
		return l
	}
	for si, n := range perSwitch {
		d.bySwitch[d.switches[si]] = carve(n)
	}
	d.tenants = make([]Tenant, 0, cfg.Tenants)
	next := model.HostID(1)
	for ti, n := range sizes {
		id := model.TenantID(ti + 1)
		vlan := model.VLAN(id % 4094)
		if vlan == 0 {
			vlan = 4094
		}
		d.tenants = append(d.tenants, Tenant{ID: id, VLAN: vlan, Hosts: carve(n)})
		for range n {
			if _, err := d.addHost(next, ti, d.switches[placed[next-1]]); err != nil {
				return err
			}
			next++
		}
	}
	return nil
}

// shuffle is rand.New(src).Shuffle over p, draw for draw, without its
// per-swap interface and closure calls: Populate shuffles a permutation
// of every switch for each tenant. The walk is the same Fisher–Yates,
// and each index is drawn as math/rand/v2's bounded draw does it: a
// mask when the bound is a power of two, otherwise the high word of a
// 64×64-bit product, redrawn while the low word falls below 2⁶⁴ mod n.
// src therefore ends in the state Shuffle leaves it in
// (TestShuffleMatchesRand).
func shuffle(p []int, src *rand.PCG) {
	for i := len(p) - 1; i > 0; i-- {
		n := uint64(i + 1)
		var j uint64
		if n&(n-1) == 0 {
			j = src.Uint64() & (n - 1)
		} else {
			var lo uint64
			j, lo = bits.Mul64(src.Uint64(), n)
			if lo < n {
				thresh := -n % n
				for lo < thresh {
					j, lo = bits.Mul64(src.Uint64(), n)
				}
			}
		}
		p[i], p[j] = p[j], p[i]
	}
}
