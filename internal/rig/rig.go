// Package rig wires the simulated LazyCtrl world once: a deterministic
// simulator, the latency-modelled underlay on top of it, a
// Floodlight-style controller (plus an optional hot standby), one OVS-
// style edge switch per directory switch, and the tenant/host
// population attached to them — the paper's testbed, on which every
// figure, the §V-E cold-cache probe, and the §III-E failover cases run.
// The public DataCenter, eval.RunEmulation, and the cold-cache driver
// are all built on it; callers supply config templates carrying only
// what differs between them (cadences, hooks, load scale).
//
// *Rig is also the one chaos.Harness implementation: crash = node
// failure on the underlay, restart = the §III-E3 reboot-and-resync path.
package rig

import (
	"fmt"
	"time"

	"lazyctrl/internal/chaos"
	"lazyctrl/internal/controller"
	"lazyctrl/internal/edge"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/sim"
	"lazyctrl/internal/tenant"
)

// Rig is one wired world. The directory is the ground truth for
// placement: mutate it only through the rig (AddTenant, AddHost,
// MigrateHost) once the rig exists, so the live tables follow.
type Rig struct {
	sim *sim.Simulator
	net *netsim.Network
	dir *tenant.Directory
	// replicas holds the primary and, when replicated, the standby —
	// construction order, which is also the deterministic tie-break
	// order while the master role is disputed.
	replicas []*controller.Controller
	edges    map[model.SwitchID]*edge.Switch
}

// New builds and starts the world over the directory's switches, hosts
// and tenants. ctrl and sw are templates: the rig fills Switches, Peer
// and Standby on the controller side (the simulator is seeded from
// ctrl.Seed) and ID and TrackEscalations on the edge side, and derives
// the standby's config from the primary's. Every hook in the templates
// first runs on the simulated clock, after New has returned.
//
// The wiring order is fixed — replicas attached, then per switch:
// build, attach hosts, join the underlay, start; then tenants on every
// replica; then the replicas start — because the order events enter
// the simulator's queue is part of every pinned result.
func New(dir *tenant.Directory, ctrl controller.Config, sw edge.Config, standby bool) (*Rig, error) {
	s := sim.New(ctrl.Seed)
	r := &Rig{
		sim:   s,
		net:   netsim.New(s, netsim.DefaultLatencies()),
		dir:   dir,
		edges: make(map[model.SwitchID]*edge.Switch, len(dir.Switches())),
	}
	ctrl.Switches = dir.Switches()
	if standby {
		ctrl.Peer = model.StandbyNode
	}
	primary, err := controller.New(ctrl, r.net.Env(model.ControllerNode))
	if err != nil {
		return nil, err
	}
	r.net.Attach(primary)
	r.net.SetSameGroup(primary.SameGroup)
	r.replicas = append(r.replicas, primary)
	if standby {
		// Same directory, cadences, recorder and hooks, mirrored state
		// only: the standby runs no switch-facing duties until takeover,
		// so it carries no fold hooks (the fold's keep-alive elision
		// already yields to replication on the primary).
		sb := ctrl
		sb.Peer, sb.Standby = model.ControllerNode, true
		sb.FoldGate, sb.FoldMeter = nil, nil
		replica, err := controller.New(sb, r.net.Env(model.StandbyNode))
		if err != nil {
			return nil, fmt.Errorf("standby: %w", err)
		}
		r.net.Attach(replica)
		r.replicas = append(r.replicas, replica)
	}
	sw.TrackEscalations = standby
	for _, id := range dir.Switches() {
		sw.ID = id
		e := edge.New(sw, r.net.Env(id))
		r.edges[id] = e
		r.attachHosts(id)
		r.net.Attach(e)
		e.Start()
	}
	for _, t := range dir.Tenants() {
		r.registerTenant(t.ID, t.VLAN)
	}
	for _, c := range r.replicas {
		c.Start()
	}
	return r, nil
}

func (r *Rig) attachHosts(sw model.SwitchID) {
	e := r.edges[sw]
	for _, h := range r.dir.HostsOn(sw) {
		host := r.dir.Host(h)
		e.AttachHost(host.MAC, host.IP, host.VLAN)
	}
}

// registerTenant binds the tenant's VLAN on every replica, so a
// promoted standby scopes its ARP relays exactly as the primary did.
func (r *Rig) registerTenant(id model.TenantID, vlan model.VLAN) {
	for _, c := range r.replicas {
		c.RegisterTenant(vlan, id)
	}
}

// Sim returns the simulator driving the world.
func (r *Rig) Sim() *sim.Simulator { return r.sim }

// Dir returns the placement directory.
func (r *Rig) Dir() *tenant.Directory { return r.dir }

// Primary returns the replica that started as master.
func (r *Rig) Primary() *controller.Controller { return r.replicas[0] }

// Controllers returns the primary and, when replicated, the standby.
// The caller must not modify the returned slice.
func (r *Rig) Controllers() []*controller.Controller { return r.replicas }

// Active returns the replica the fabric follows: the master-role
// claimant with the highest cluster generation. A killed primary keeps
// claiming the role it held, and dueling masters both claim it until
// the fence demotes one, but a takeover always bumps the generation, so
// the edges' own rule picks the live master. The primary stands in when
// nobody claims the role.
func (r *Rig) Active() *controller.Controller {
	active := r.replicas[0]
	for _, c := range r.replicas[1:] {
		if c.IsMaster() && (!active.IsMaster() || c.Generation() > active.Generation()) {
			active = c
		}
	}
	return active
}

// Edge returns a switch, or nil.
func (r *Rig) Edge(id model.SwitchID) *edge.Switch { return r.edges[id] }

// Edges returns every switch by ID. The caller must not modify the map.
func (r *Rig) Edges() map[model.SwitchID]*edge.Switch { return r.edges }

// AddTenant registers a tenant in the directory and on every replica.
func (r *Rig) AddTenant(id model.TenantID, vlan model.VLAN) error {
	if err := r.dir.AddTenant(id, vlan); err != nil {
		return err
	}
	r.registerTenant(id, vlan)
	return nil
}

// AddHost deploys a VM: directory first, then the switch's L-FIB.
// The directory refuses a switch outside its list, which is the rig's
// edge set.
func (r *Rig) AddHost(id model.HostID, tenantID model.TenantID, sw model.SwitchID) error {
	h, err := r.dir.AddHost(id, tenantID, sw)
	if err != nil {
		return err
	}
	r.edges[sw].AttachHost(h.MAC, h.IP, h.VLAN)
	return nil
}

// MigrateHost live-migrates a VM: the detach/attach pair is what
// triggers §III-D3 live state dissemination.
func (r *Rig) MigrateHost(id model.HostID, to model.SwitchID) error {
	from, err := r.dir.Migrate(id, to)
	if err != nil {
		return err
	}
	h := r.dir.Host(id)
	r.edges[from].DetachHost(h.MAC)
	r.edges[to].AttachHost(h.MAC, h.IP, h.VLAN)
	return nil
}

// Inject hands the first packet of a src→dst flow to src's switch,
// stamped with the current virtual time. Every flow the harnesses
// replay enters the datapath here. The packet is lent for the call
// (see edge.Switch.InjectLocal), so it lives on the stack and an
// injection allocates nothing the branch it takes does not.
func (r *Rig) Inject(src, dst *tenant.Host, bytes int) {
	r.edges[src.Switch].InjectLocal(&model.Packet{
		SrcMAC:   src.MAC,
		DstMAC:   dst.MAC,
		SrcIP:    src.IP,
		DstIP:    dst.IP,
		VLAN:     src.VLAN,
		Ether:    model.EtherTypeIPv4,
		Bytes:    bytes,
		Injected: r.Now(),
	})
}

// World builds the convergence checker over the rig: the directory is
// the ground truth, the underlay's node state the liveness oracle.
// Replica-aware invariants arm only on a replicated rig. Each call
// returns a fresh checker (Probe high-water marks start empty).
func (r *Rig) World() *chaos.World {
	w := &chaos.World{
		Controller: r.Primary(),
		Switches:   r.edges,
		Down:       r.net.NodeDown,
		Hosts: func(sw model.SwitchID) []openflow.LFIBEntry {
			ids := r.dir.HostsOn(sw)
			out := make([]openflow.LFIBEntry, 0, len(ids))
			for _, id := range ids {
				h := r.dir.Host(id)
				out = append(out, openflow.LFIBEntry{MAC: h.MAC, IP: h.IP, VLAN: h.VLAN})
			}
			return out
		},
	}
	if len(r.replicas) > 1 {
		w.Replicas = r.replicas
	}
	return w
}

// chaos.Harness.

func (r *Rig) Now() time.Duration               { return r.sim.Now().Duration() }
func (r *Rig) After(d time.Duration, fn func()) { r.sim.After(d, fn) }
func (r *Rig) Net() *netsim.Network             { return r.net }
func (r *Rig) Switches() []model.SwitchID       { return r.dir.Switches() }

func (r *Rig) GroupPeers(sw model.SwitchID) []model.SwitchID {
	g := r.Active().Grouping()
	return g.Members(g.GroupOf(sw))
}

func (r *Rig) Designated(sw model.SwitchID) model.SwitchID {
	if e := r.edges[sw]; e != nil {
		return e.Group().Designated
	}
	return model.NoSwitch
}

func (r *Rig) Crash(sw model.SwitchID) { r.net.FailNode(sw) }

// Restart heals and reboots a switch (§III-E3): it comes back cold —
// volatile tables wiped, L-FIB incarnation epoch advanced — its hosts
// re-attach from the hypervisor's view in directory order, and the
// recovery signal goes to whoever holds the master role right now.
// After a takeover that is the promoted standby; during a dispute both
// claimants hear it, and the fabric fences the stale one's re-pushes.
func (r *Rig) Restart(sw model.SwitchID) {
	r.net.HealNode(sw)
	e := r.edges[sw]
	if e == nil {
		return
	}
	e.Reboot()
	r.attachHosts(sw)
	for _, c := range r.replicas {
		if c.IsMaster() {
			c.MarkRecovered(sw)
		}
	}
}

func (r *Rig) CrashController()   { r.net.FailNode(model.ControllerNode) }
func (r *Rig) RestartController() { r.net.HealNode(model.ControllerNode) }

// Replicas lists the replica addresses master-first, resolved at call
// time; claimants (and non-claimants) keep construction order.
func (r *Rig) Replicas() []model.SwitchID {
	out := make([]model.SwitchID, 0, len(r.replicas))
	for _, c := range r.replicas {
		if c.IsMaster() {
			out = append(out, c.NodeID())
		}
	}
	for _, c := range r.replicas {
		if !c.IsMaster() {
			out = append(out, c.NodeID())
		}
	}
	return out
}
