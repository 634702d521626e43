package controller

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"lazyctrl/internal/grouping"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/sim"
	"lazyctrl/internal/telemetry"
)

// sameMatrix reports whether two matrices hold the same switches in the
// same registration order with the same weights. Both sides are cloned
// first: Decay leaves empty neighbor lists that Clone turns into nil,
// and DeepEqual tells the two apart.
func sameMatrix(a, b *grouping.Intensity) bool {
	return reflect.DeepEqual(a.Clone(), b.Clone())
}

// TestFlowsCountedOnlyWhenRegrouping pins where the controller counts
// traffic into its intensity matrix. A lazy dynamic controller, whose
// regroups read the matrix, counts every PacketIn it handles and every
// state-report pair, through a regroup and its Decay, exactly as a
// reference matrix fed the same Add and Decay calls in arrival order. A
// lazy static and a learning controller never read the matrix after
// InitialGrouping, and count nothing into it.
func TestFlowsCountedOnlyWhenRegrouping(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mode    Mode
		dynamic bool
	}{
		{"lazy dynamic", ModeLazy, true},
		{"lazy static", ModeLazy, false},
		{"learning", ModeLearning, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newRecordingEnv()
			c, err := New(Config{Mode: tc.mode, Switches: switchList(8), GroupSizeLimit: 2, Seed: 7, Dynamic: tc.dynamic}, env)
			if err != nil {
				t.Fatal(err)
			}
			c.RegisterTenant(1, 1)
			host := func(sw model.SwitchID) model.HostID { return model.HostID(uint32(sw) * 100) }
			for sw := model.SwitchID(1); sw <= 8; sw++ {
				h := host(sw)
				if tc.mode == ModeLearning {
					// An unknown destination: flooded, and the source learned.
					c.HandleMessage(sw, &openflow.PacketIn{Switch: sw, Reason: openflow.ReasonNoMatch, Packet: *pkt(h, 9999)})
					continue
				}
				c.clib.ApplyLFIB(sw, model.NoGroup, &openflow.LFIBUpdate{Origin: sw, Full: true, Version: 1,
					Entries: []openflow.LFIBEntry{{MAC: model.HostMAC(h), IP: model.HostIP(h), VLAN: 1}}})
			}
			warm := grouping.NewIntensity()
			warm.Add(1, 2, 100)
			warm.Add(3, 4, 100)
			warm.Add(5, 6, 100)
			warm.Add(7, 8, 100)
			warm.Add(1, 3, 1)
			if err := c.InitialGrouping(warm); err != nil {
				t.Fatal(err)
			}
			ref := grouping.NewIntensity()
			if tc.mode == ModeLazy {
				ref = warm.Clone()
			}
			for _, sw := range switchList(8) {
				ref.AddSwitch(sw)
			}
			same := func(step string) {
				t.Helper()
				if !sameMatrix(c.intensity, ref) {
					t.Fatalf("%s: matrix differs from the reference\ngot:  %+v\nwant: %+v", step, *c.intensity, *ref)
				}
			}
			same("initial grouping")
			flows := func(n int, pairs ...model.SwitchPair) {
				for i := 0; i < n; i++ {
					for _, p := range pairs {
						c.HandleMessage(p.A, &openflow.PacketIn{Switch: p.A, Reason: openflow.ReasonNoMatch, Packet: *pkt(host(p.A), host(p.B))})
						if tc.dynamic {
							ref.Add(p.A, p.B, 1)
						}
					}
				}
			}
			report := func(from model.SwitchID, pairs ...openflow.PairStat) {
				c.HandleMessage(from, &openflow.StateReport{Group: c.grp.GroupOf(from), Version: c.groupingVersion, Pairs: pairs})
				for _, p := range pairs {
					if tc.dynamic {
						ref.Add(p.A, p.B, float64(p.NewFlows))
					}
				}
			}

			flows(2, model.SwitchPair{A: 1, B: 3}, model.SwitchPair{A: 2, B: 4})
			same("flows")
			report(1, openflow.PairStat{A: 1, B: 3, NewFlows: 200}, openflow.PairStat{A: 2, B: 4, NewFlows: 200})
			same("report")
			if !tc.dynamic {
				return
			}

			// Cross-group traffic now dominates: the regroup is effective
			// and decays the matrix.
			flows(3, model.SwitchPair{A: 2, B: 3})
			c.lastRegroupAt = -regroupMinInterval
			before := c.stats.Regroupings
			c.maybeRegroup()
			if c.stats.Regroupings == before {
				t.Fatal("regroup made no change, so it never decayed the matrix")
			}
			ref.Decay(0.9)
			same("regroup")
			for round := 0; round < 3; round++ {
				flows(1, model.SwitchPair{A: 1, B: 3}, model.SwitchPair{A: 3, B: 1}, model.SwitchPair{A: 2, B: 4})
				report(3, openflow.PairStat{A: 1, B: 3, NewFlows: 7}, openflow.PairStat{A: 4, B: 2, NewFlows: 3})
				same(fmt.Sprintf("round %d on decayed weights", round))
			}
		})
	}
}

// TestInstallShape pins what an install, a per-flow forward, a lazy
// resolution and a bounce send, field for field and byte for byte on the
// wire, against the messages spelled out as literals: the exact-match
// rule and the packet with the Encap action toward the destination's
// switch, the packet alone, or the packet flooded back.
func TestInstallShape(t *testing.T) {
	span := telemetry.SpanContext{Trace: 9, Span: 4}
	encap := func(dst model.SwitchID) []openflow.Action { return []openflow.Action{openflow.Encap(dst)} }
	rule := func(p model.Packet, dst model.SwitchID, span telemetry.SpanContext) *openflow.FlowMod {
		return &openflow.FlowMod{
			Command:     openflow.FlowAdd,
			Match:       openflow.ExactDst(p.DstMAC, p.VLAN),
			Priority:    100,
			IdleTimeout: 60 * time.Second,
			Actions:     encap(dst),
			Span:        span,
		}
	}
	learning := func(perFlow bool) (*Controller, *recordingEnv) {
		env := newRecordingEnv()
		c, err := New(Config{Mode: ModeLearning, Switches: switchList(16), Seed: 7, PerFlowRules: perFlow}, env)
		if err != nil {
			t.Fatal(err)
		}
		warmLearning(c, 64) // host h on switch h%16+1
		env.reset()
		return c, env
	}
	// Host 3 lives on switch 4, hosts 5 and 21 on switch 6.
	toRemote := openflow.PacketIn{Switch: 4, Reason: openflow.ReasonNoMatch, Packet: *pkt(3, 5), Span: span}
	toLocal := openflow.PacketIn{Switch: 6, Reason: openflow.ReasonNoMatch, Packet: *pkt(5, 21), Span: span}

	ruleCtrl, ruleEnv := learning(false)
	ruleCtrl.HandleMessage(4, &toRemote)
	ruleCtrl.HandleMessage(6, &toLocal)
	flowCtrl, flowEnv := learning(true)
	flowCtrl.HandleMessage(4, &toRemote)

	lazyCtrl, lazyEnv := lazyGrouped(t)
	lazyCtrl.RegisterTenant(1, 1)
	lazyPin := openflow.PacketIn{Switch: 2, Reason: openflow.ReasonNoMatch, Packet: *pkt(200, 4242), Span: span}
	lazyCtrl.HandleMessage(2, &lazyPin)
	lazyEnv.reset()
	lazyCtrl.HandleMessage(9, &openflow.LFIBUpdate{Origin: 9, Version: 2,
		Entries: []openflow.LFIBEntry{{MAC: model.HostMAC(4242), IP: model.HostIP(4242), VLAN: 1}}})

	for _, tc := range []struct {
		name string
		got  []netsim.Message
		want []openflow.Message
	}{
		{"rule install", ruleEnv.sends[4], []openflow.Message{
			rule(toRemote.Packet, 6, span),
			&openflow.PacketOut{Actions: encap(6), Packet: toRemote.Packet, Span: span},
		}},
		{"bounce", ruleEnv.sends[6], []openflow.Message{
			&openflow.PacketOut{Actions: []openflow.Action{openflow.Flood()}, Packet: toLocal.Packet, Span: span},
		}},
		{"per-flow forward", flowEnv.sends[4], []openflow.Message{
			&openflow.PacketOut{Actions: encap(6), Packet: toRemote.Packet, Span: span},
		}},
		{"lazy resolution", lazyEnv.sends[2], []openflow.Message{
			rule(lazyPin.Packet, 9, telemetry.SpanContext{}),
			&openflow.PacketOut{Actions: encap(9), Packet: lazyPin.Packet},
		}},
	} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: sent %d messages, want %d: %v", tc.name, len(tc.got), len(tc.want), tc.got)
			continue
		}
		for i, want := range tc.want {
			got := tc.got[i].(openflow.Message)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: message %d is %+v, want %+v", tc.name, i, got, want)
			}
			gotWire, err1 := openflow.Encode(got, 0)
			wantWire, err2 := openflow.Encode(want, 0)
			if err1 != nil || err2 != nil || !bytes.Equal(gotWire, wantWire) {
				t.Errorf("%s: message %d encodes to %x (%v), want %x (%v)", tc.name, i, gotWire, err1, wantWire, err2)
			}
		}
	}
}

// countingSwitch is a switch on the underlay that counts the messages
// it receives by type and keeps none.
type countingSwitch struct {
	id  model.SwitchID
	got map[openflow.MsgType]int
}

func (n *countingSwitch) NodeID() model.SwitchID { return n.id }
func (n *countingSwitch) HandleMessage(_ model.SwitchID, m netsim.Message) {
	if msg, ok := m.(openflow.Message); ok {
		n.got[msg.MsgType()]++
	}
}

// TestPacketInAllocations pins the objects a PacketIn costs the
// controller on the DES, delivery of what it sends included: a post,
// holding the PacketOut, or the FlowMod and the PacketOut of an
// install, is one block slot, so a PacketIn costs at most a tenth of
// an object. The post's queue entry, its event and its deliveries are
// reused.
func TestPacketInAllocations(t *testing.T) {
	desController := func(cfg Config) (*Controller, *sim.Simulator, *countingSwitch) {
		s := sim.New(1)
		n := netsim.New(s, netsim.DefaultLatencies())
		cfg.Switches, cfg.Seed = switchList(16), 7
		c, err := New(cfg, n.Env(model.ControllerNode))
		if err != nil {
			t.Fatal(err)
		}
		n.Attach(c)
		var ingress *countingSwitch
		for _, id := range cfg.Switches {
			sw := &countingSwitch{id: id, got: make(map[openflow.MsgType]int)}
			n.Attach(sw)
			if id == 4 {
				ingress = sw
			}
		}
		return c, s, ingress
	}
	learning := func(perFlow bool) (*Controller, *sim.Simulator, *countingSwitch) {
		c, s, ingress := desController(Config{Mode: ModeLearning, PerFlowRules: perFlow})
		warmLearning(c, 64) // host h on switch h%16+1
		s.RunFor(time.Second)
		return c, s, ingress
	}
	lazy := func() (*Controller, *sim.Simulator, *countingSwitch) {
		c, s, ingress := desController(Config{Mode: ModeLazy})
		m := grouping.NewIntensity()
		m.Add(1, 2, 100)
		m.Add(3, 4, 100)
		m.Add(1, 3, 1)
		if err := c.InitialGrouping(m); err != nil {
			t.Fatal(err)
		}
		h := model.HostID(600) // on switch 6
		c.clib.ApplyLFIB(6, c.grp.GroupOf(6), &openflow.LFIBUpdate{Full: true, Version: 1,
			Entries: []openflow.LFIBEntry{{MAC: model.HostMAC(h), IP: model.HostIP(h), VLAN: 1}}})
		s.RunFor(time.Second)
		return c, s, ingress
	}
	for _, tc := range []struct {
		name  string
		setup func() (*Controller, *sim.Simulator, *countingSwitch)
		pin   *model.Packet
		sent  map[openflow.MsgType]int
	}{
		// Hosts 3 and 19 live on switch 4, host 5 on switch 6.
		{"learning forward", func() (*Controller, *sim.Simulator, *countingSwitch) { return learning(true) },
			pkt(3, 5), map[openflow.MsgType]int{openflow.TypePacketOut: 1}},
		{"learning bounce", func() (*Controller, *sim.Simulator, *countingSwitch) { return learning(false) },
			pkt(3, 19), map[openflow.MsgType]int{openflow.TypePacketOut: 1}},
		{"learning install", func() (*Controller, *sim.Simulator, *countingSwitch) { return learning(false) },
			pkt(3, 5), map[openflow.MsgType]int{openflow.TypeFlowMod: 1, openflow.TypePacketOut: 1}},
		{"lazy install", lazy,
			pkt(400, 600), map[openflow.MsgType]int{openflow.TypeFlowMod: 1, openflow.TypePacketOut: 1}},
	} {
		c, s, ingress := tc.setup()
		pin := &openflow.PacketIn{Switch: 4, Reason: openflow.ReasonNoMatch, Packet: *tc.pin}
		clear(ingress.got)
		// Enough PacketIns for the block to grow to full size in the
		// warm-up and be replaced a few times in the measurement.
		const runs = 320
		got := testing.AllocsPerRun(1, func() {
			for range runs {
				c.HandleMessage(4, pin)
				s.RunFor(10 * time.Millisecond)
			}
		}) / runs
		// AllocsPerRun runs once more to warm up.
		for typ, n := range tc.sent {
			if ingress.got[typ] != 2*runs*n {
				t.Errorf("%s: switch 4 got %d messages of type %v in %d PacketIns, want %d", tc.name, ingress.got[typ], typ, 2*runs, 2*runs*n)
			}
		}
		if got > 0.1 {
			t.Errorf("%s: %.3f allocations per PacketIn, want ≤ 0.1", tc.name, got)
		}
	}
}
