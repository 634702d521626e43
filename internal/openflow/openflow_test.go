package openflow

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"lazyctrl/internal/model"
)

// roundTrip encodes and decodes a message, failing the test on any
// mismatch.
func roundTrip(t *testing.T, m Message, xid uint32) Message {
	t.Helper()
	data, err := Encode(m, xid)
	if err != nil {
		t.Fatalf("Encode(%v): %v", m.MsgType(), err)
	}
	got, gotXID, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode(%v): %v", m.MsgType(), err)
	}
	if gotXID != xid {
		t.Errorf("xid = %d, want %d", gotXID, xid)
	}
	if got.MsgType() != m.MsgType() {
		t.Errorf("type = %v, want %v", got.MsgType(), m.MsgType())
	}
	return got
}

func samplePacket() model.Packet {
	return model.Packet{
		SrcMAC:  model.HostMAC(10),
		DstMAC:  model.HostMAC(20),
		SrcIP:   model.HostIP(10),
		DstIP:   model.HostIP(20),
		VLAN:    7,
		Ether:   model.EtherTypeIPv4,
		Bytes:   1500,
		FlowSeq: 3,
	}
}

func TestPacketInRoundTrip(t *testing.T) {
	m := &PacketIn{Switch: 42, Reason: ReasonNoMatch, Packet: samplePacket()}
	got, ok := roundTrip(t, m, 7).(*PacketIn)
	if !ok || !reflect.DeepEqual(got, m) {
		t.Errorf("PacketIn round trip = %+v, want %+v", got, m)
	}
}

func TestPacketInEncapRoundTrip(t *testing.T) {
	p := samplePacket()
	p.Encap = &model.EncapHeader{SrcSwitch: 1, DstSwitch: 9}
	m := &PacketIn{Switch: 1, Reason: ReasonFalsePositive, Packet: p}
	got, ok := roundTrip(t, m, 8).(*PacketIn)
	if !ok || !reflect.DeepEqual(got, m) {
		t.Errorf("encap PacketIn round trip = %+v, want %+v", got, m)
	}
}

func TestARPPacketRoundTrip(t *testing.T) {
	p := samplePacket()
	p.Ether = model.EtherTypeARP
	p.ARPOp = model.ARPRequest
	p.ARPTarget = model.HostIP(20)
	p.DstMAC = model.BroadcastMAC
	m := &PacketIn{Switch: 3, Reason: ReasonARP, Packet: p}
	got, ok := roundTrip(t, m, 9).(*PacketIn)
	if !ok || !reflect.DeepEqual(got, m) {
		t.Errorf("ARP PacketIn round trip = %+v, want %+v", got, m)
	}
}

func TestPacketOutRoundTrip(t *testing.T) {
	m := &PacketOut{
		Actions: []Action{{Type: ActionTypeOutput, Port: 3}, Encap(12), Flood()},
		Packet:  samplePacket(),
	}
	got, ok := roundTrip(t, m, 11).(*PacketOut)
	if !ok || !reflect.DeepEqual(got, m) {
		t.Errorf("PacketOut round trip = %+v, want %+v", got, m)
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	m := &FlowMod{
		Command:     FlowAdd,
		Match:       ExactDst(model.HostMAC(5), 3),
		Priority:    100,
		IdleTimeout: 30 * time.Second,
		HardTimeout: 5 * time.Minute,
		Actions:     []Action{Encap(77)},
	}
	got, ok := roundTrip(t, m, 13).(*FlowMod)
	if !ok || !reflect.DeepEqual(got, m) {
		t.Errorf("FlowMod round trip = %+v, want %+v", got, m)
	}
}

func TestGroupConfigRoundTrip(t *testing.T) {
	m := &GroupConfig{
		Group:             3,
		Members:           []model.SwitchID{1, 2, 5},
		Designated:        2,
		Backups:           []model.SwitchID{5},
		RingPrev:          5,
		RingNext:          1,
		SyncInterval:      10 * time.Second,
		KeepAliveInterval: time.Second,
		Version:           42,
	}
	got, ok := roundTrip(t, m, 17).(*GroupConfig)
	if !ok || !reflect.DeepEqual(got, m) {
		t.Errorf("GroupConfig round trip = %+v, want %+v", got, m)
	}
}

func TestLFIBUpdateRoundTrip(t *testing.T) {
	m := &LFIBUpdate{
		Origin: 9,
		Full:   true,
		Entries: []LFIBEntry{
			{MAC: model.HostMAC(1), IP: model.HostIP(1), VLAN: 2},
			{MAC: model.HostMAC(2), IP: model.HostIP(2), VLAN: 2},
		},
		Version: 5,
	}
	got, ok := roundTrip(t, m, 18).(*LFIBUpdate)
	if !ok || !reflect.DeepEqual(got, m) {
		t.Errorf("LFIBUpdate round trip = %+v, want %+v", got, m)
	}
}

func TestGFIBUpdateRoundTrip(t *testing.T) {
	m := &GFIBUpdate{
		Group: 2,
		Filters: []GFIBFilter{
			{Switch: 1, Filter: []byte{1, 2, 3}},
			{Switch: 4, Filter: []byte{}},
		},
		Version: 6,
	}
	got, ok := roundTrip(t, m, 19).(*GFIBUpdate)
	if !ok {
		t.Fatal("wrong type")
	}
	if got.Group != m.Group || got.Version != m.Version || len(got.Filters) != 2 {
		t.Errorf("GFIBUpdate round trip = %+v, want %+v", got, m)
	}
	if !bytes.Equal(got.Filters[0].Filter, []byte{1, 2, 3}) || got.Filters[0].Switch != 1 {
		t.Errorf("filter 0 = %+v", got.Filters[0])
	}
}

func TestStateReportRoundTrip(t *testing.T) {
	m := &StateReport{
		Group: 1,
		LFIBs: []LFIBUpdate{
			{Origin: 2, Entries: []LFIBEntry{{MAC: model.HostMAC(3), IP: model.HostIP(3), VLAN: 1}}, Version: 1},
			{Origin: 5, Full: true, Version: 2},
		},
		Pairs:   []PairStat{{A: 2, B: 5, NewFlows: 120}},
		Version: 7,
	}
	got, ok := roundTrip(t, m, 20).(*StateReport)
	if !ok || !reflect.DeepEqual(got, m) {
		t.Errorf("StateReport round trip = %+v, want %+v", got, m)
	}
}

func TestKeepAliveAndARPRelayRoundTrip(t *testing.T) {
	ka := &KeepAlive{From: 6, Seq: 99}
	gotKA, ok := roundTrip(t, ka, 21).(*KeepAlive)
	if !ok || !reflect.DeepEqual(gotKA, ka) {
		t.Errorf("KeepAlive round trip = %+v, want %+v", gotKA, ka)
	}
	p := samplePacket()
	p.Ether = model.EtherTypeARP
	p.ARPOp = model.ARPRequest
	ar := &ARPRelay{Tenant: 8, Packet: p}
	gotAR, ok := roundTrip(t, ar, 22).(*ARPRelay)
	if !ok || !reflect.DeepEqual(gotAR, ar) {
		t.Errorf("ARPRelay round trip = %+v, want %+v", gotAR, ar)
	}
}

func TestConfigAckRoundTrip(t *testing.T) {
	ack := &ConfigAck{From: 7, Version: 12345}
	got, ok := roundTrip(t, ack, 23).(*ConfigAck)
	if !ok || !reflect.DeepEqual(got, ack) {
		t.Errorf("ConfigAck round trip = %+v, want %+v", got, ack)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) succeeded")
	}
	if _, _, err := Decode(make([]byte, 5)); err == nil {
		t.Error("Decode(short) succeeded")
	}
	data, err := Encode(&KeepAlive{From: 1, Seq: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[0] = 0x01 // plain OpenFlow version, not the LazyCtrl extension
	if _, _, err := Decode(bad); err == nil {
		t.Error("Decode with wrong version succeeded")
	}
	bad = append([]byte(nil), data...)
	bad[1] = 0xee
	if _, _, err := Decode(bad); err == nil {
		t.Error("Decode with unknown type succeeded")
	}
	// Length mismatch.
	bad = append(append([]byte(nil), data...), 0xff)
	if _, _, err := Decode(bad); err == nil {
		t.Error("Decode with trailing bytes succeeded")
	}
}

func TestDecodeTruncatedBodies(t *testing.T) {
	msgs := []Message{
		&PacketIn{Switch: 1, Reason: ReasonNoMatch, Packet: samplePacket()},
		&FlowMod{Command: FlowAdd, Match: ExactDst(model.HostMAC(1), 1), Actions: []Action{{Type: ActionTypeOutput, Port: 1}}},
		&GroupConfig{Group: 1, Members: []model.SwitchID{1, 2}},
		&LFIBUpdate{Origin: 1, Entries: []LFIBEntry{{MAC: model.HostMAC(1)}}},
		&StateReport{Group: 1, Pairs: []PairStat{{A: 1, B: 2, NewFlows: 3}}},
	}
	for _, m := range msgs {
		data, err := Encode(m, 5)
		if err != nil {
			t.Fatalf("Encode(%v): %v", m.MsgType(), err)
		}
		// Truncate the body but fix up the header length so only body
		// parsing can catch it.
		for cut := headerLen; cut < len(data); cut += 3 {
			trunc := append([]byte(nil), data[:cut]...)
			trunc[2], trunc[3], trunc[4], trunc[5] = 0, 0, byte(cut>>8), byte(cut)
			if _, _, err := Decode(trunc); err == nil {
				t.Errorf("%v: truncation to %d bytes decoded successfully", m.MsgType(), cut)
			}
		}
	}
}

func TestActionStrings(t *testing.T) {
	tests := []struct {
		a    Action
		want string
	}{
		{Action{Type: ActionTypeOutput, Port: 3}, "output:3"},
		{Flood(), "flood"},
		{Action{Type: ActionTypeDrop}, "drop"},
		{Action{Type: ActionTypeController}, "controller"},
		{Encap(9), "encap:S9"},
	}
	for _, tt := range tests {
		if got := tt.a.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestMsgTypeString(t *testing.T) {
	if TypePacketIn.String() != "PacketIn" {
		t.Errorf("String() = %q", TypePacketIn.String())
	}
	if MsgType(200).String() != "MsgType(200)" {
		t.Errorf("unknown String() = %q", MsgType(200).String())
	}
}

func TestPropertyLFIBUpdateRoundTrip(t *testing.T) {
	f := func(origin uint32, macs []uint64, version uint64, full bool) bool {
		m := &LFIBUpdate{Origin: model.SwitchID(origin), Full: full, Version: version}
		for _, raw := range macs {
			m.Entries = append(m.Entries, LFIBEntry{
				MAC:  model.MAC{byte(raw >> 40), byte(raw >> 32), byte(raw >> 24), byte(raw >> 16), byte(raw >> 8), byte(raw)},
				IP:   model.IP(raw),
				VLAN: model.VLAN(raw & 0xfff),
			})
		}
		enc, err := Encode(m, 1)
		if err != nil {
			return false
		}
		dec, _, err := Decode(enc)
		if err != nil {
			return false
		}
		got, ok := dec.(*LFIBUpdate)
		if !ok || got.Origin != m.Origin || got.Full != m.Full || got.Version != m.Version {
			return false
		}
		if len(got.Entries) != len(m.Entries) {
			return false
		}
		for i := range got.Entries {
			if got.Entries[i] != m.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodePacketIn(b *testing.B) {
	m := &PacketIn{Switch: 42, Reason: ReasonNoMatch, Packet: samplePacket()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePacketIn(b *testing.B) {
	m := &PacketIn{Switch: 42, Reason: ReasonNoMatch, Packet: samplePacket()}
	data, err := Encode(m, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
