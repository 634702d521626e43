// Package lazyctrl is a faithful reimplementation of LazyCtrl, the
// hybrid SDN control plane for cloud data centers by Zheng, Wang, Yang,
// Sun, Zhang and Uhlig (ICDCS 2015). Edge switches are clustered into
// local control groups by communication affinity; frequent intra-group
// control runs near the datapath through Bloom-filter G-FIBs, while a
// lazy central controller handles only inter-group and fine-grained
// events, adapting the grouping with the SGI algorithm as traffic
// drifts.
//
// The package exposes a simulated data center: a deterministic
// discrete-event underlay carrying an extended OpenFlow control
// protocol between an in-process Floodlight-style controller and Open
// vSwitch-style edge switches.
//
// A minimal session:
//
//	dc, err := lazyctrl.New(lazyctrl.Config{Switches: 6, GroupSizeLimit: 3})
//	...
//	dc.AddTenant(1)
//	dc.AddHost(1, 1, 1)    // host 1, tenant 1, switch S1
//	dc.AddHost(2, 1, 2)
//	dc.SeedGroupingFromPlacement()
//	dc.Run(10 * time.Second)
//	dc.SendFlow(1, 2, 1400)
//	dc.Run(time.Second)
//	fmt.Println(dc.Report())
package lazyctrl

import (
	"errors"
	"fmt"
	"time"

	"lazyctrl/internal/controller"
	"lazyctrl/internal/edge"
	"lazyctrl/internal/failover"
	"lazyctrl/internal/grouping"
	"lazyctrl/internal/metrics"
	"lazyctrl/internal/model"
	"lazyctrl/internal/rig"
	"lazyctrl/internal/tenant"
)

// Identifier aliases, so applications can speak the paper's vocabulary
// without importing internal packages.
type (
	// SwitchID identifies an edge switch.
	SwitchID = model.SwitchID
	// HostID identifies a host (virtual machine).
	HostID = model.HostID
	// TenantID identifies a tenant.
	TenantID = model.TenantID
	// GroupID identifies a local control group.
	GroupID = model.GroupID
	// VLAN is a tenant's VLAN tag.
	VLAN = model.VLAN
	// Diagnosis is a failover diagnosis (Table I).
	Diagnosis = failover.Diagnosis
)

// Mode selects the control plane.
type Mode uint8

// Control-plane modes.
const (
	// LazyCtrl is the paper's hybrid control plane.
	LazyCtrl Mode = iota + 1
	// OpenFlow is the standard centralized baseline (learning switch).
	OpenFlow
)

// Config describes a simulated data center.
type Config struct {
	// Switches is the number of edge switches (S1..Sn).
	Switches int
	// Mode selects LazyCtrl (default) or the OpenFlow baseline.
	Mode Mode
	// GroupSizeLimit caps local control group sizes. Zero selects 46.
	GroupSizeLimit int
	// Dynamic enables incremental regrouping under traffic drift.
	Dynamic bool
	// Standby runs a hot-standby controller replica: the primary
	// mirrors its C-LIB, grouping, and failure state to the standby
	// over a journal, and the standby takes the master role — under a
	// bumped cluster generation that fences the old master's pushes —
	// when the primary's heartbeats stop (docs/robustness.md).
	Standby bool
	// Seed makes the run reproducible.
	Seed uint64
	// OnDeliver observes every packet delivered to a host, with its
	// one-way forwarding latency.
	OnDeliver func(src, dst HostID, latency time.Duration)
	// OnDiagnosis observes failover diagnoses.
	OnDiagnosis func(suspect SwitchID, diag Diagnosis)
}

// DataCenter is a simulated LazyCtrl deployment: controller, edge
// switches, tenants, and hosts over a virtual-time underlay.
type DataCenter struct {
	cfg Config
	rig *rig.Rig
	rec *metrics.Recorder
}

// New builds a data center.
func New(cfg Config) (*DataCenter, error) {
	if cfg.Switches < 1 {
		return nil, errors.New("lazyctrl: need at least one switch")
	}
	if cfg.Mode == 0 {
		cfg.Mode = LazyCtrl
	}
	mode := controller.ModeLazy
	if cfg.Mode == OpenFlow {
		mode = controller.ModeLearning
	}
	ids := make([]SwitchID, cfg.Switches)
	for i := range ids {
		ids[i] = SwitchID(i + 1)
	}
	dc := &DataCenter{cfg: cfg, rec: metrics.NewRecorder(24*time.Hour, time.Hour)}
	r, err := rig.New(tenant.NewDirectory(ids), controller.Config{
		Mode:           mode,
		GroupSizeLimit: cfg.GroupSizeLimit,
		Seed:           cfg.Seed,
		Dynamic:        cfg.Dynamic,
		Recorder:       dc.rec,
		OnDiagnosis:    cfg.OnDiagnosis,
	}, edge.Config{
		AdvertiseInterval: time.Second,
		ReportInterval:    2 * time.Second,
		OnDeliver: func(p *model.Packet, at time.Duration) {
			if cfg.OnDeliver != nil {
				cfg.OnDeliver(dc.hostOf(p.SrcMAC), dc.hostOf(p.DstMAC), at-p.Injected)
			}
		},
	}, cfg.Standby)
	if err != nil {
		return nil, fmt.Errorf("lazyctrl: %w", err)
	}
	dc.rig = r
	return dc, nil
}

// hostOf resolves a delivered packet's address back to its host (0 for
// an address no deployed host owns).
func (dc *DataCenter) hostOf(mac model.MAC) HostID {
	if h, ok := model.MACHost(mac); ok && dc.rig.Dir().Host(h) != nil {
		return h
	}
	return 0
}

// AddTenant registers a tenant; its VLAN is derived from the ID.
func (dc *DataCenter) AddTenant(id TenantID) VLAN {
	if t := dc.rig.Dir().Tenant(id); t != nil {
		return t.VLAN
	}
	vlan := VLAN(id % 4094)
	if vlan == 0 {
		vlan = 4094
	}
	_ = dc.rig.AddTenant(id, vlan) // the only failure is a duplicate, handled above
	return vlan
}

// AddHost deploys a VM for a tenant on a switch.
func (dc *DataCenter) AddHost(h HostID, tenant TenantID, sw SwitchID) error {
	if err := dc.rig.AddHost(h, tenant, sw); err != nil {
		return fmt.Errorf("lazyctrl: %w", err)
	}
	return nil
}

// MigrateHost live-migrates a VM to another switch (§III-D3 live state
// dissemination is triggered by the attach/detach).
func (dc *DataCenter) MigrateHost(h HostID, to SwitchID) error {
	if err := dc.rig.MigrateHost(h, to); err != nil {
		return fmt.Errorf("lazyctrl: %w", err)
	}
	return nil
}

// SwitchOf returns the switch currently hosting a VM.
func (dc *DataCenter) SwitchOf(h HostID) (SwitchID, bool) {
	host := dc.rig.Dir().Host(h)
	if host == nil {
		return 0, false
	}
	return host.Switch, true
}

// intensity returns an empty switch-intensity matrix over every switch.
func (dc *DataCenter) intensity() *grouping.Intensity {
	m := grouping.NewIntensity()
	for _, id := range dc.rig.Dir().Switches() {
		m.AddSwitch(id)
	}
	return m
}

// SeedGroupingFromPlacement computes the initial grouping assuming
// tenant-local traffic: switches sharing tenants have high affinity.
// Applications with real traffic histories should use SeedGrouping.
func (dc *DataCenter) SeedGroupingFromPlacement() error {
	m, dir := dc.intensity(), dc.rig.Dir()
	for _, t := range dir.Tenants() {
		hosts := t.Hosts
		for i := range hosts {
			for j := i + 1; j < len(hosts); j++ {
				m.Add(dir.Host(hosts[i]).Switch, dir.Host(hosts[j]).Switch, 10)
			}
		}
	}
	return dc.rig.Active().InitialGrouping(m)
}

// PairRate is a switch-pair traffic intensity observation used to seed
// the initial grouping.
type PairRate struct {
	A, B SwitchID
	// FlowsPerSecond is the normalized traffic intensity between A and B.
	FlowsPerSecond float64
}

// SeedGrouping computes the initial grouping from measured switch-pair
// intensities (the paper seeds from the first hour of traffic).
func (dc *DataCenter) SeedGrouping(rates []PairRate) error {
	m := dc.intensity()
	for _, r := range rates {
		m.Add(r.A, r.B, r.FlowsPerSecond)
	}
	return dc.rig.Active().InitialGrouping(m)
}

// SendFlow injects the first packet of a flow from src to dst with the
// given payload size. Subsequent packets of the same pair reuse
// installed state automatically.
func (dc *DataCenter) SendFlow(src, dst HostID, bytes int) error {
	dir := dc.rig.Dir()
	s := dir.Host(src)
	if s == nil {
		return fmt.Errorf("lazyctrl: unknown src host %v", src)
	}
	d := dir.Host(dst)
	if d == nil {
		return fmt.Errorf("lazyctrl: unknown dst host %v", dst)
	}
	if bytes <= 0 {
		bytes = 1400
	}
	dc.rig.Inject(s, d, bytes)
	return nil
}

// Run advances virtual time by d, processing all scheduled work.
func (dc *DataCenter) Run(d time.Duration) { dc.rig.Sim().RunFor(d) }

// Now returns the current virtual time.
func (dc *DataCenter) Now() time.Duration { return dc.rig.Now() }

// FailSwitch injects a switch (node) failure into the underlay.
func (dc *DataCenter) FailSwitch(id SwitchID) { dc.rig.Crash(id) }

// RecoverSwitch reboots a failed switch and informs the controller
// (§III-E3 reboot-and-resync): the switch comes back cold — volatile
// tables wiped, L-FIB incarnation epoch advanced so its post-reboot
// advertisements dominate the pre-failure versions receivers still
// hold — its hosts re-attach from the hypervisor's view, and the
// current master re-pushes its group view.
func (dc *DataCenter) RecoverSwitch(id SwitchID) { dc.rig.Restart(id) }

// Master returns the address of the controller replica currently
// holding the master role: ControllerNode in a single-controller
// deployment, and model.NoSwitch while the role is disputed (mid
// split-brain, before the fence demotes the stale master).
func (dc *DataCenter) Master() SwitchID {
	master := model.NoSwitch
	for _, r := range dc.rig.Controllers() {
		if r.IsMaster() {
			if master != model.NoSwitch {
				return model.NoSwitch
			}
			master = r.NodeID()
		}
	}
	return master
}

// FailoverStats aggregates the replicated-controller counters: role
// transitions and journal state on the replicas, fencing and
// escalation counters summed over the edge switches.
type FailoverStats struct {
	// Master is the current role holder (see DataCenter.Master).
	Master SwitchID
	// Generation is the master's cluster generation.
	Generation uint64
	// Takeovers and StepDowns count role transitions across both
	// replicas.
	Takeovers uint64
	StepDowns uint64
	// StaleGenRejected counts controller pushes the edges fenced;
	// DupEscalationsSuppressed and EscalationsReflushed count the
	// escalation-dedup work across the failover window.
	StaleGenRejected         uint64
	DupEscalationsSuppressed uint64
	EscalationsReflushed     uint64
}

// FailoverStats returns the replicated-controller summary (zero-valued
// counters without Config.Standby).
func (dc *DataCenter) FailoverStats() FailoverStats {
	out := FailoverStats{Master: dc.Master()}
	for _, r := range dc.rig.Controllers() {
		st := r.Stats()
		out.Takeovers += st.Takeovers
		out.StepDowns += st.StepDowns
		if r.IsMaster() {
			out.Generation = r.Generation()
		}
	}
	for _, sw := range dc.rig.Edges() {
		st := sw.Stats()
		out.StaleGenRejected += st.StaleGenRejected
		out.DupEscalationsSuppressed += st.DupEscalationsSuppressed
		out.EscalationsReflushed += st.EscalationsReflushed
	}
	return out
}

// FailLink injects a link failure between two nodes (use
// ControllerNode for the control link).
func (dc *DataCenter) FailLink(a, b SwitchID) { dc.rig.Net().FailLink(a, b) }

// HealLink restores a failed link.
func (dc *DataCenter) HealLink(a, b SwitchID) { dc.rig.Net().HealLink(a, b) }

// ControllerNode is the controller's address for FailLink/HealLink.
const ControllerNode = model.ControllerNode

// StandbyNode is the standby replica's address (Config.Standby).
const StandbyNode = model.StandbyNode

// NoSwitch is the invalid switch address (Master returns it while the
// master role is disputed).
const NoSwitch = model.NoSwitch

// GroupOf returns the local control group of a switch, as the current
// master sees it.
func (dc *DataCenter) GroupOf(sw SwitchID) GroupID {
	return dc.rig.Active().Grouping().GroupOf(sw)
}

// Groups returns the current master's group membership map.
func (dc *DataCenter) Groups() map[GroupID][]SwitchID {
	grp := dc.rig.Active().Grouping()
	out := make(map[GroupID][]SwitchID, grp.NumGroups())
	for _, gid := range grp.GroupIDs() {
		out[gid] = append([]SwitchID(nil), grp.Members(gid)...)
	}
	return out
}

// IsDesignated reports whether a switch currently holds its group's
// designated role.
func (dc *DataCenter) IsDesignated(sw SwitchID) bool {
	s := dc.rig.Edge(sw)
	return s != nil && s.IsDesignated()
}

// Report summarizes the run.
type Report struct {
	Mode               Mode
	Groups             int
	GroupingVersion    uint64
	ControllerRequests uint64
	PacketIns          uint64
	ARPRelays          uint64
	StateReports       uint64
	Floods             uint64
	FlowMods           uint64
	Regroupings        uint64
}

// Report returns the control-plane summary of the replica currently
// holding the master role (the request total spans both replicas: they
// share one recorder).
func (dc *DataCenter) Report() Report {
	ctrl := dc.rig.Active()
	st := ctrl.Stats()
	return Report{
		Mode:               dc.cfg.Mode,
		Groups:             ctrl.Grouping().NumGroups(),
		GroupingVersion:    ctrl.GroupingVersion(),
		ControllerRequests: dc.rec.TotalWorkload(),
		PacketIns:          st.PacketIns,
		ARPRelays:          st.ARPRelays,
		StateReports:       st.StateReports,
		Floods:             st.Floods,
		FlowMods:           st.FlowModsSent,
		Regroupings:        st.Regroupings,
	}
}

// String renders the report.
func (r Report) String() string {
	mode := "lazyctrl"
	if r.Mode == OpenFlow {
		mode = "openflow"
	}
	return fmt.Sprintf("mode=%s groups=%d v%d requests=%d packetIns=%d relays=%d reports=%d floods=%d flowMods=%d regroupings=%d",
		mode, r.Groups, r.GroupingVersion, r.ControllerRequests, r.PacketIns,
		r.ARPRelays, r.StateReports, r.Floods, r.FlowMods, r.Regroupings)
}

// NegotiateGroupSize runs the Appendix-C Rubinstein bargaining between
// the controller's preferred group size and per-switch offers.
func NegotiateGroupSize(controllerLimit int, offers []grouping.SwitchOffer) (int, error) {
	return grouping.Negotiate(grouping.AggregateOffers(offers), grouping.BargainConfig{
		ControllerLimit: controllerLimit,
	})
}

// SwitchOffer re-exports the bargaining offer type.
type SwitchOffer = grouping.SwitchOffer
