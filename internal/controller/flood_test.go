package controller

import (
	"testing"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/sim"
)

// timedSend is one send as a simRecordingEnv saw it.
type timedSend struct {
	at  time.Duration
	to  model.SwitchID
	pkt *model.Packet
}

// simRecordingEnv is a DES-backed Env with the Poster capability that
// records every send (all of them data packets here) with its virtual
// time, and runs no periodic task.
type simRecordingEnv struct {
	s     *sim.Simulator
	sends []timedSend
}

func (e *simRecordingEnv) Now() time.Duration { return e.s.Now().Duration() }

func (e *simRecordingEnv) After(d time.Duration, fn func()) func() {
	t := e.s.After(d, fn)
	return func() { t.Stop() }
}

func (e *simRecordingEnv) Post(d time.Duration, fn func()) { e.s.After(d, fn) }

func (e *simRecordingEnv) Every(time.Duration, func()) func() { return func() {} }

func (e *simRecordingEnv) Send(to model.SwitchID, msg netsim.Message) {
	e.sends = append(e.sends, timedSend{e.Now(), to, msg.(*model.Packet)})
}

// floodPacketIn is a first packet from host 1 toward a host the
// controller has never seen, so learning mode floods it.
func floodPacketIn(ingress model.SwitchID) *openflow.PacketIn {
	return &openflow.PacketIn{
		Switch: ingress,
		Reason: openflow.ReasonNoMatch,
		Packet: model.Packet{
			SrcMAC:   model.HostMAC(1),
			DstMAC:   model.HostMAC(10_000),
			SrcIP:    model.HostIP(1),
			DstIP:    model.HostIP(10_000),
			VLAN:     1,
			Ether:    model.EtherTypeIPv4,
			Bytes:    1400,
			Injected: 3 * time.Millisecond,
		},
	}
}

// TestFloodShape pins the learning flood's timing and fan-out: every
// switch but the ingress gets exactly one copy, in Config.Switches
// order, copy i leaving at t0 + queueDelay + i·service (the ingress's
// slot stays empty), and every copy reads as the PacketIn's packet.
func TestFloodShape(t *testing.T) {
	switches := switchList(8)
	service := time.Duration(float64(time.Second) / serviceRate)
	for _, at := range []int{0, 3, 7} {
		s := sim.New(1)
		env := &simRecordingEnv{s: s}
		c, err := New(Config{Mode: ModeLearning, Switches: switches}, env)
		if err != nil {
			t.Fatal(err)
		}
		// A background load makes the queueing wait differ from one
		// service time, so base and step cannot stand in for each other.
		c.SetBackgroundLoad(serviceRate / 2)
		s.RunFor(time.Second)
		t0, base := env.Now(), c.queueDelay()
		if base == service {
			t.Fatalf("queueDelay %v equals the service time; the load floor did not apply", base)
		}
		ingress := switches[at]
		pin := floodPacketIn(ingress)
		c.HandleMessage(ingress, pin)
		s.Run()

		var want []timedSend
		for i, sw := range switches {
			if i != at {
				want = append(want, timedSend{at: t0 + base + time.Duration(i)*service, to: sw})
			}
		}
		if len(env.sends) != len(want) {
			t.Fatalf("ingress %v: %d copies sent, want %d", ingress, len(env.sends), len(want))
		}
		for i, got := range env.sends {
			if got.at != want[i].at || got.to != want[i].to {
				t.Errorf("ingress %v: copy %d to %v at %v, want to %v at %v", ingress, i, got.to, got.at, want[i].to, want[i].at)
			}
			if *got.pkt != pin.Packet {
				t.Errorf("ingress %v: copy %d reads %+v, want %+v", ingress, i, *got.pkt, pin.Packet)
			}
		}
		if st := c.Stats(); st.Floods != 1 {
			t.Errorf("ingress %v: Floods = %d, want 1", ingress, st.Floods)
		}
	}
}

// TestFloodAllocationsFlat pins that a flood costs the same allocations
// however many switches it reaches.
func TestFloodAllocationsFlat(t *testing.T) {
	allocs := func(switches int) float64 {
		c, err := New(Config{Mode: ModeLearning, Switches: switchList(switches)}, discardEnv{})
		if err != nil {
			t.Fatal(err)
		}
		pin := floodPacketIn(1)
		return testing.AllocsPerRun(20, func() { c.HandleMessage(1, pin) })
	}
	small, large := allocs(16), allocs(256)
	if small != large || large > 2 {
		t.Errorf("a flood allocates %.0f times at 16 switches and %.0f at 256, want the same and at most 2", small, large)
	}
}
