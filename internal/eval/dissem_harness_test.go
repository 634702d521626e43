package eval

import (
	"fmt"
	"time"

	"lazyctrl/internal/edge"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
)

// DissemConfig parameterizes the G-FIB distribution harness: a fabric
// of edge switches partitioned into local control groups, driven round
// by round with every control message metered through the OpenFlow
// codec. It isolates exactly the protocol cost the delta path attacks:
// what a host arrival puts on the control channel.
type DissemConfig struct {
	// Switches is the fabric size (zero selects 1024).
	Switches int
	// GroupSize is the LCG size (zero selects 46, the paper's storage
	// example; the last group takes the remainder).
	GroupSize int
	// HostsPerSwitch warms each L-FIB (zero selects 24, the paper's
	// average VM density).
	HostsPerSwitch int
	// FullPush disables the word-delta path (the measurement baseline):
	// every changed filter ships in full.
	FullPush bool
}

func (c DissemConfig) withDefaults() DissemConfig {
	if c.Switches == 0 {
		c.Switches = 1024
	}
	if c.GroupSize == 0 {
		c.GroupSize = 46
	}
	if c.HostsPerSwitch == 0 {
		c.HostsPerSwitch = 24
	}
	return c
}

// Dissem is the constructed harness.
type Dissem struct {
	cfg      DissemConfig
	net      *dissemNet
	Switches map[model.SwitchID]*edge.Switch
	ids      []model.SwitchID
	nextHost model.HostID
	// hosts tracks attachments per switch so churn can also remove.
	hosts map[model.SwitchID][]model.HostID
}

// dissemNet is a synchronous single-threaded underlay for the
// dissemination harness: every control message is encoded (metering
// bytes on the wire), decoded, and delivered inline; periodic timers
// are collected per node and fired explicitly by Round in registration
// passes, so one Round is exactly "every member advertises, then every
// designated switch disseminates and reports".
type dissemNet struct {
	nodes    map[model.SwitchID]netsim.Node
	periodic map[model.SwitchID][]func()
	deferred []func()
	now      time.Duration

	// Drop, when set, discards a message (after metering zero bytes
	// for it — a dropped message never crossed the wire). The NACK/
	// resync tests inject losses with it.
	Drop func(from, to model.SwitchID, msg netsim.Message) bool

	wireBytes uint64
	messages  uint64
	codecErrs uint64
	maxPasses int
}

func newDissemNet() *dissemNet {
	return &dissemNet{
		nodes:    make(map[model.SwitchID]netsim.Node),
		periodic: make(map[model.SwitchID][]func()),
	}
}

func (n *dissemNet) attach(node netsim.Node) { n.nodes[node.NodeID()] = node }

func (n *dissemNet) send(from, to model.SwitchID, msg netsim.Message) {
	ofMsg, ok := msg.(openflow.Message)
	if !ok {
		if dst := n.nodes[to]; dst != nil {
			dst.HandleMessage(from, msg)
		}
		return
	}
	if n.Drop != nil && n.Drop(from, to, msg) {
		return
	}
	data, err := openflow.Encode(ofMsg, 0)
	if err != nil {
		n.codecErrs++
		return
	}
	n.wireBytes += uint64(len(data))
	n.messages++
	decoded, _, err := openflow.Decode(data)
	if err != nil {
		n.codecErrs++
		return
	}
	if dst := n.nodes[to]; dst != nil {
		dst.HandleMessage(from, decoded)
	}
	// Messages to unattached nodes (the controller) are metered but
	// discarded: the harness has no controller, yet its state-link
	// bytes belong in the control-channel total.
}

// dissemEnv adapts one node address to netsim.Env.
type dissemEnv struct {
	net *dissemNet
	id  model.SwitchID
}

func (e *dissemEnv) Now() time.Duration { return e.net.now }

func (e *dissemEnv) After(d time.Duration, fn func()) func() {
	canceled := false
	e.net.deferred = append(e.net.deferred, func() {
		if !canceled {
			fn()
		}
	})
	return func() { canceled = true }
}

func (e *dissemEnv) Every(d time.Duration, fn func()) func() {
	slots := e.net.periodic[e.id]
	idx := len(slots)
	e.net.periodic[e.id] = append(slots, fn)
	if idx+1 > e.net.maxPasses {
		e.net.maxPasses = idx + 1
	}
	return func() { e.net.periodic[e.id][idx] = nil }
}

func (e *dissemEnv) Send(to model.SwitchID, msg netsim.Message) { e.net.send(e.id, to, msg) }

// drainDeferred runs callbacks scheduled with After, including any
// they schedule in turn.
func (n *dissemNet) drainDeferred() {
	for len(n.deferred) > 0 {
		batch := n.deferred
		n.deferred = nil
		for _, fn := range batch {
			fn()
		}
	}
}

// NewDissem builds the fabric, configures the groups, warms every
// L-FIB, and runs distribution rounds until the G-FIBs are fully
// populated, then zeroes the wire counters: what the caller measures
// from here on is pure churn cost.
func NewDissem(cfg DissemConfig) (*Dissem, error) {
	c := cfg.withDefaults()
	if c.Switches < 2 || c.GroupSize < 2 {
		return nil, fmt.Errorf("eval: dissem needs ≥2 switches in ≥1 group of ≥2")
	}
	d := &Dissem{
		cfg:      c,
		net:      newDissemNet(),
		Switches: make(map[model.SwitchID]*edge.Switch, c.Switches),
		hosts:    make(map[model.SwitchID][]model.HostID),
	}
	for i := 1; i <= c.Switches; i++ {
		id := model.SwitchID(i)
		sw := edge.New(edge.Config{
			ID:           id,
			GFIBFullPush: c.FullPush,
		}, &dissemEnv{net: d.net, id: id})
		d.net.attach(sw)
		d.Switches[id] = sw
		d.ids = append(d.ids, id)
	}
	// Warm hosts before group configuration so the first dissemination
	// rounds carry the steady-state filters.
	for _, id := range d.ids {
		for j := 0; j < c.HostsPerSwitch; j++ {
			d.Arrive(id)
		}
	}
	// Partition into contiguous groups; the first member is designated.
	for start := 0; start < len(d.ids); start += c.GroupSize {
		end := start + c.GroupSize
		if end > len(d.ids) {
			end = len(d.ids)
		}
		members := append([]model.SwitchID(nil), d.ids[start:end]...)
		gid := model.GroupID(start/c.GroupSize + 1)
		for i, m := range members {
			prev := members[(i-1+len(members))%len(members)]
			next := members[(i+1)%len(members)]
			d.Switches[m].HandleMessage(model.ControllerNode, &openflow.GroupConfig{
				Group:      gid,
				Members:    members,
				Designated: members[0],
				RingPrev:   prev,
				RingNext:   next,
				// KeepAliveInterval 0: the harness drives only the
				// advertisement/dissemination/report timers.
				SyncInterval: 10 * time.Second,
				Version:      1,
			})
		}
	}
	d.net.drainDeferred()
	// Two rounds populate every G-FIB (advertise, then disseminate).
	d.Round()
	d.Round()
	d.ResetCounters()
	return d, nil
}

// Arrive attaches a fresh host to the given switch — the single-host-
// arrival churn event of the benchmark — and returns its ID.
func (d *Dissem) Arrive(sw model.SwitchID) model.HostID {
	d.nextHost++
	d.Switches[sw].AttachHost(model.HostMAC(d.nextHost), model.HostIP(d.nextHost), 1)
	d.hosts[sw] = append(d.hosts[sw], d.nextHost)
	return d.nextHost
}

// Depart detaches the most recently attached host of a switch (no-op
// when none remain), exercising deltas that clear bits.
func (d *Dissem) Depart(sw model.SwitchID) {
	hs := d.hosts[sw]
	if len(hs) == 0 {
		return
	}
	h := hs[len(hs)-1]
	d.hosts[sw] = hs[:len(hs)-1]
	d.Switches[sw].DetachHost(model.HostMAC(h))
}

// Round fires one full periodic cycle: pass 0 is every switch's
// advertisement; later passes are the designated switches'
// dissemination and controller reporting. Timer callbacks scheduled
// during the round run before it returns.
func (d *Dissem) Round() {
	d.net.now += 30 * time.Second
	for pass := 0; pass < d.net.maxPasses; pass++ {
		for _, id := range d.ids {
			slots := d.net.periodic[id]
			if pass < len(slots) && slots[pass] != nil {
				slots[pass]()
			}
		}
		d.net.drainDeferred()
	}
}

// WireBytes returns the encoded control-channel bytes since the last
// reset; Messages the message count; CodecErrors must stay zero.
func (d *Dissem) WireBytes() uint64   { return d.net.wireBytes }
func (d *Dissem) Messages() uint64    { return d.net.messages }
func (d *Dissem) CodecErrors() uint64 { return d.net.codecErrs }

// ResetCounters zeroes the wire meters.
func (d *Dissem) ResetCounters() {
	d.net.wireBytes, d.net.messages = 0, 0
}

// SetDrop installs a message-drop hook (nil removes it).
func (d *Dissem) SetDrop(fn func(from, to model.SwitchID, msg netsim.Message) bool) {
	d.net.Drop = fn
}
