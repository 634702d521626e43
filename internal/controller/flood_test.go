package controller

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

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

// simRecordingEnv is a DES-backed Env that records every send (all of
// them data packets here) with its virtual time, and runs no periodic
// task. It is not the DES's own env, so a flood on it arms every copy
// up front.
type simRecordingEnv struct {
	s     *sim.Simulator
	sends *[]timedSend
}

func (e *simRecordingEnv) Now() time.Duration { return e.s.Now().Duration() }

func (e *simRecordingEnv) After(d time.Duration, fn func()) func() {
	t := e.s.After(d, fn)
	return func() { t.Stop() }
}

func (e *simRecordingEnv) Every(time.Duration, func()) func() { return func() {} }

func (e *simRecordingEnv) Send(to model.SwitchID, msg netsim.Message) {
	*e.sends = append(*e.sends, timedSend{e.Now(), to, msg.(*model.Packet)})
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

// stubSwitch is a switch node that ignores what it receives.
type stubSwitch model.SwitchID

func (s stubSwitch) NodeID() model.SwitchID                     { return model.SwitchID(s) }
func (stubSwitch) HandleMessage(model.SwitchID, netsim.Message) {}

// newFloodController returns a learning controller on a fresh
// simulator, appending every packet it sends to *sends with the
// instant it leaves. With series it runs on a real netsim.Network,
// every switch attached, where a flood's copies are a series; without,
// on a simRecordingEnv, where they are posted up front.
func newFloodController(t testing.TB, switches []model.SwitchID, series bool, sends *[]timedSend) (*sim.Simulator, *Controller, netsim.Env) {
	s := sim.New(1)
	var env netsim.Env = &simRecordingEnv{s: s, sends: sends}
	if series {
		net := netsim.New(s, netsim.DefaultLatencies())
		for _, sw := range switches {
			net.Attach(stubSwitch(sw))
		}
		net.Meter = func(_, to model.SwitchID, msg netsim.Message) {
			*sends = append(*sends, timedSend{s.Now().Duration(), to, msg.(*model.Packet)})
		}
		env = net.Env(model.ControllerNode)
	}
	c, err := New(Config{Mode: ModeLearning, Switches: switches}, env)
	if err != nil {
		t.Fatal(err)
	}
	return s, c, env
}

// probe is the destination a timedSend records for a tie-break probe.
const probe model.SwitchID = 1000

// TestFloodShape pins the learning flood's timing and fan-out on both
// of its paths, the series of a real netsim.Network and the Arm loop
// of any other env: every switch but the ingress gets exactly one copy,
// in Config.Switches order, copy i leaving at t0 + queueDelay +
// i·service (the ingress's slot stays empty), and every copy reads as
// the PacketIn's packet. A series holds one pending event for the
// flood, the loop one per copy. Two probes posted for the instant of
// copy 5, one before the PacketIn is handled and one after, run on
// either side of it: the series' reserved places in the event order
// are the posts'. The ingress is first, in the middle, last, and not a
// configured switch (admission refuses such a PacketIn, so the test
// calls handlePacketIn itself).
func TestFloodShape(t *testing.T) {
	switches := switchList(8)
	for _, ingress := range []model.SwitchID{switches[0], switches[3], switches[7], 99} {
		for _, series := range []bool{false, true} {
			var sends []timedSend
			s, c, env := newFloodController(t, switches, series, &sends)
			// A background load makes the queueing wait differ from one
			// service time, so base and step cannot stand in for each other.
			c.SetBackgroundLoad(serviceRate / 2)
			s.RunFor(time.Second)
			t0, base := env.Now(), c.queueDelay()
			if base == serviceTime {
				t.Fatalf("queueDelay %v equals the service time; the load floor did not apply", base)
			}
			mark := func() { sends = append(sends, timedSend{at: env.Now(), to: probe}) }
			netsim.Arm(env, base+5*serviceTime, mark)
			pin := floodPacketIn(ingress)
			c.handlePacketIn(pin)
			netsim.Arm(env, base+5*serviceTime, mark)
			wantPending := 2 + len(switches) // the probes and every copy
			if ingress != 99 {
				wantPending--
			}
			if series {
				wantPending = 2 + 1
			}
			if p := s.Pending(); p != wantPending {
				t.Errorf("ingress %v, series %v: %d events pending, want %d", ingress, series, p, wantPending)
			}
			s.Run()

			var want []timedSend
			for i, sw := range switches {
				at := t0 + base + time.Duration(i)*serviceTime
				if i == 5 {
					want = append(want, timedSend{at: at, to: probe})
				}
				if sw != ingress {
					want = append(want, timedSend{at: at, to: sw})
				}
				if i == 5 {
					want = append(want, timedSend{at: at, to: probe})
				}
			}
			name := fmt.Sprintf("ingress %v, series %v", ingress, series)
			if len(sends) != len(want) {
				t.Fatalf("%s: %d sends and probes, want %d", name, len(sends), len(want))
			}
			for i, got := range sends {
				if got.at != want[i].at || got.to != want[i].to {
					t.Errorf("%s: send %d to %v at %v, want to %v at %v", name, i, got.to, got.at, want[i].to, want[i].at)
				}
				if got.to != probe && *got.pkt != pin.Packet {
					t.Errorf("%s: send %d reads %+v, want %+v", name, i, *got.pkt, pin.Packet)
				}
			}
			if st := c.Stats(); st.Floods != 1 {
				t.Errorf("%s: Floods = %d, want 1", name, st.Floods)
			}
		}
	}
}

// countingEnv is an Env other than the DES's that fires timers at
// once, counts sends and returns one shared no-op cancel, like the
// storm's and the benchmark's sinks: a flood on it arms every copy up
// front, and the env allocates nothing for it.
type countingEnv struct{ sends int }

func (e *countingEnv) Now() time.Duration                      { return 0 }
func (e *countingEnv) After(_ time.Duration, fn func()) func() { fn(); return noCancel }
func (e *countingEnv) Every(time.Duration, func()) func()      { return noCancel }
func (e *countingEnv) Send(model.SwitchID, netsim.Message)     { e.sends++ }

func noCancel() {}

// TestFloodAllocationsFlat pins that a flood costs the same allocations
// however many switches it reaches, on either path: at most itself and
// its bound run. On the DES the run includes firing every copy, whose
// events and deliveries are pooled; off it, on a countingEnv, each copy
// is an Arm whose handle is a value.
func TestFloodAllocationsFlat(t *testing.T) {
	allocs := func(switches int, series bool) float64 {
		pin := floodPacketIn(1)
		if !series {
			env := &countingEnv{}
			c, err := New(Config{Mode: ModeLearning, Switches: switchList(switches)}, env)
			if err != nil {
				t.Fatal(err)
			}
			n := testing.AllocsPerRun(20, func() { c.HandleMessage(1, pin) })
			if want := 21 * (switches - 1); env.sends != want {
				t.Fatalf("%d switches: %d copies sent, want %d", switches, env.sends, want)
			}
			return n
		}
		var sends []timedSend
		s, c, _ := newFloodController(t, switchList(switches), series, &sends)
		return testing.AllocsPerRun(20, func() {
			c.HandleMessage(1, pin)
			s.Run()
			sends = sends[:0]
		})
	}
	for _, series := range []bool{false, true} {
		if small, large := allocs(16, series), allocs(256, series); small != large || large > 2 {
			t.Errorf("series %v: a flood allocates %.0f times at 16 switches and %.0f at 256, want the same and at most 2", series, small, large)
		}
	}
}

// TestFloodSize pins the flood object to its 96-byte size class: the
// series handle took the room next to ingress that packing next into
// an int32 freed.
func TestFloodSize(t *testing.T) {
	if size := unsafe.Sizeof(flood{}); size > 96 {
		t.Errorf("flood is %d bytes, want at most 96", size)
	}
}
