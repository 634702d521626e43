package openflow

import (
	"reflect"
	"testing"

	"lazyctrl/internal/model"
)

func TestBatchRoundTrip(t *testing.T) {
	m := &Batch{Msgs: []Message{
		&GroupConfig{
			Group:      3,
			Members:    []model.SwitchID{1, 2},
			Designated: 1,
			RingPrev:   2,
			RingNext:   2,
			Version:    7,
		},
		&LFIBUpdate{
			Origin: 2,
			Full:   true,
			Entries: []LFIBEntry{
				{MAC: model.HostMAC(20), IP: model.HostIP(20), VLAN: 7},
			},
			Version: 7,
		},
		&FlowMod{
			Command:  FlowAdd,
			Match:    ExactDst(model.HostMAC(20), 7),
			Priority: 100,
			Actions:  []Action{Encap(2)},
		},
	}}
	got := roundTrip(t, m, 42).(*Batch)
	if len(got.Msgs) != 3 {
		t.Fatalf("decoded %d messages, want 3", len(got.Msgs))
	}
	if !reflect.DeepEqual(got.Msgs[0], m.Msgs[0]) {
		t.Errorf("GroupConfig mismatch: %+v", got.Msgs[0])
	}
	if !reflect.DeepEqual(got.Msgs[1], m.Msgs[1]) {
		t.Errorf("LFIBUpdate mismatch: %+v", got.Msgs[1])
	}
	if !reflect.DeepEqual(got.Msgs[2], m.Msgs[2]) {
		t.Errorf("FlowMod mismatch: %+v", got.Msgs[2])
	}
}

func TestBatchOfPacketIns(t *testing.T) {
	m := &Batch{Msgs: []Message{
		&PacketIn{Switch: 1, Reason: ReasonNoMatch, Packet: samplePacket()},
		&PacketIn{Switch: 2, Reason: ReasonARP, Packet: samplePacket()},
	}}
	got := roundTrip(t, m, 1).(*Batch)
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestBatchEmpty(t *testing.T) {
	got := roundTrip(t, &Batch{}, 0).(*Batch)
	if len(got.Msgs) != 0 {
		t.Errorf("empty batch decoded %d messages", len(got.Msgs))
	}
}

func TestBatchRejectsNesting(t *testing.T) {
	inner := &Batch{Msgs: []Message{&KeepAlive{From: 1, Seq: 1}}}
	outer := &Batch{Msgs: []Message{inner}}
	data, err := Encode(outer, 0)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, _, err := Decode(data); err == nil {
		t.Fatal("nested batch decoded without error")
	}
}

func TestBatchTruncated(t *testing.T) {
	m := &Batch{Msgs: []Message{&KeepAlive{From: 1, Seq: 9}}}
	data, err := Encode(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Claim more sub-messages than the body holds.
	data[headerLen+3] = 200
	if _, _, err := Decode(data); err == nil {
		t.Fatal("truncated batch decoded without error")
	}
}
