package eval

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"lazyctrl/internal/controller"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
)

// StormConfig parameterizes a packet-in storm against a standalone
// controller (no underlay): the worst case of §IV-B, where every flow
// setup in the data center lands on the central controller at once.
type StormConfig struct {
	// Switches is the number of edge switches (zero selects 64).
	Switches int
	// Hosts is the number of warm hosts spread over the switches (zero
	// selects 4096).
	Hosts int
	// Events is the burst size handed to one ProcessBurst call (zero
	// selects 8192).
	Events int
	// Shards is the number of workers Run's ProcessBurst decides the
	// burst with; the outcome does not depend on it.
	Shards int
	// Seed drives the deterministic event mix.
	Seed uint64
}

// stormUnknownFrac is the fraction of storm events whose destination was
// never learned, forcing the flood path: rare, as in a warmed data
// center, but present in every burst.
const stormUnknownFrac = 0.02

func (c StormConfig) withDefaults() StormConfig {
	if c.Switches == 0 {
		c.Switches = 64
	}
	if c.Hosts == 0 {
		c.Hosts = 4096
	}
	if c.Events == 0 {
		c.Events = 8192
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Storm is a reusable packet-in-storm driver: a learning-mode
// controller warmed with every host location plus a deterministic
// burst. Run replays the burst through ProcessBurst; the controller's
// outputs land in a message-counting sink, so the work measured is
// exactly the controller hot path (table reads, decisions, ordered
// application).
type Storm struct {
	Ctrl    *controller.Controller
	Batch   []openflow.PacketIn
	workers int
	sink    *sinkEnv
}

// NewStorm builds a storm driver.
func NewStorm(cfg StormConfig) (*Storm, error) {
	c := cfg.withDefaults()
	switches := make([]model.SwitchID, c.Switches)
	for i := range switches {
		switches[i] = model.SwitchID(i + 1)
	}
	sink := &sinkEnv{}
	ctrl, err := controller.New(controller.Config{
		Mode:     controller.ModeLearning,
		Switches: switches,
		Seed:     c.Seed,
	}, sink)
	if err != nil {
		return nil, fmt.Errorf("storm: %w", err)
	}
	hostSwitch := func(h model.HostID) model.SwitchID {
		return model.SwitchID(uint32(h)%uint32(c.Switches) + 1)
	}
	// Warm sequentially: every host location learned before the storm.
	for h := model.HostID(1); h <= model.HostID(c.Hosts); h++ {
		ctrl.HandleMessage(hostSwitch(h), &openflow.PacketIn{
			Switch: hostSwitch(h),
			Packet: model.Packet{SrcMAC: model.HostMAC(h), DstMAC: model.BroadcastMAC, VLAN: 1},
		})
	}
	rng := rand.New(rand.NewPCG(c.Seed, c.Seed^0xbeef))
	batch := make([]openflow.PacketIn, c.Events)
	for i := range batch {
		src := model.HostID(1 + rng.IntN(c.Hosts))
		dst := model.HostID(1 + rng.IntN(c.Hosts))
		if rng.Float64() < stormUnknownFrac {
			dst = model.HostID(1_000_000 + rng.IntN(1000))
		}
		batch[i] = openflow.PacketIn{
			Switch: hostSwitch(src),
			Reason: openflow.ReasonNoMatch,
			Packet: model.Packet{
				SrcMAC: model.HostMAC(src),
				DstMAC: model.HostMAC(dst),
				SrcIP:  model.HostIP(src),
				DstIP:  model.HostIP(dst),
				VLAN:   1,
				Ether:  model.EtherTypeIPv4,
				Bytes:  1000,
			},
		}
	}
	return &Storm{Ctrl: ctrl, Batch: batch, workers: c.Shards, sink: sink}, nil
}

// Run replays the burst once.
func (s *Storm) Run() { s.Ctrl.ProcessBurst(s.Batch, s.workers) }

// MessagesOut reports how many messages the controller emitted.
func (s *Storm) MessagesOut() uint64 { return s.sink.sends.Load() }

// sinkEnv is a netsim.Env that counts emitted messages and fires
// timers inline, isolating the controller hot path from any underlay.
type sinkEnv struct {
	sends atomic.Uint64
}

func (e *sinkEnv) Now() time.Duration { return 0 }

func (e *sinkEnv) After(d time.Duration, fn func()) func() {
	fn()
	return func() {}
}

func (e *sinkEnv) Every(d time.Duration, fn func()) func() { return func() {} }

func (e *sinkEnv) Send(to model.SwitchID, msg netsim.Message) { e.sends.Add(1) }
