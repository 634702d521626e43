package openflow

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lazyctrl/internal/bloom"
	"lazyctrl/internal/model"
)

// fuzzSeed is one seed message and the number of its committed corpus
// file. Numbers are never reused: a retired message type leaves a gap,
// so the surviving files keep their names.
type fuzzSeed struct {
	n int
	m Message
}

// fuzzSeeds returns one representative instance of every message type,
// including the size-adaptive encodings (dense and flat pair sections,
// delta and full filter pushes) so the committed corpus starts the
// fuzzer inside each decoder branch rather than leaving coverage
// discovery to mutation.
func fuzzSeeds() []fuzzSeed {
	pkt := model.Packet{
		SrcMAC: model.HostMAC(3),
		DstMAC: model.HostMAC(9),
		SrcIP:  0x0a000003,
		DstIP:  0x0a000009,
		VLAN:   12,
		Ether:  model.EtherTypeIPv4,
	}
	return []fuzzSeed{
		{3, &PacketIn{Switch: 42, Reason: ReasonNoMatch, Packet: pkt}},
		{4, &PacketOut{Actions: []Action{{Type: ActionTypeOutput, Port: 3}, Encap(7)}, Packet: pkt}},
		{5, &FlowMod{
			Command:     FlowAdd,
			Match:       ExactDst(model.HostMAC(9), 12),
			Priority:    100,
			IdleTimeout: 30 * time.Second,
			HardTimeout: 5 * time.Minute,
			Actions:     []Action{Encap(7)},
		}},
		{9, &GroupConfig{
			Group:             2,
			Members:           []model.SwitchID{1, 2, 3},
			Designated:        2,
			Backups:           []model.SwitchID{3},
			RingPrev:          1,
			RingNext:          3,
			SyncInterval:      time.Second,
			KeepAliveInterval: 100 * time.Millisecond,
			Version:           5,
		}},
		{10, &LFIBUpdate{
			Origin: 3,
			Full:   true,
			Entries: []LFIBEntry{
				{MAC: model.HostMAC(1), IP: 0x0a000001, VLAN: 12},
				{MAC: model.HostMAC(2), IP: 0x0a000002, VLAN: 12},
			},
			Version: 9,
		}},
		{11, &GFIBUpdate{
			Group: 2,
			Filters: []GFIBFilter{
				{Switch: 1, Filter: []byte{0xde, 0xad, 0xbe, 0xef}, Version: 4},
				{Switch: 3, Filter: []byte{0x01, 0x02}, Version: 7},
			},
			Version: 5,
		}},
		// Dense pair section: ≥3 pairs over few distinct switches.
		{12, &StateReport{
			Group: 2,
			LFIBs: []LFIBUpdate{{Origin: 1, Entries: []LFIBEntry{{MAC: model.HostMAC(1), IP: 0x0a000001, VLAN: 12}}, Version: 3}},
			Pairs: []PairStat{
				{A: 1, B: 2, NewFlows: 10},
				{A: 1, B: 3, NewFlows: 4},
				{A: 2, B: 3, NewFlows: 6},
			},
			Version: 5,
		}},
		// Flat pair section: too few pairs for the dense table to pay.
		{13, &StateReport{Group: 2, Pairs: []PairStat{{A: 1, B: 9, NewFlows: 1}}, Version: 5}},
		{14, &KeepAlive{From: 3, Seq: 42}},
		{15, &ARPRelay{Tenant: 7, Packet: pkt}},
		{16, &Batch{Msgs: []Message{
			&GroupConfig{Group: 1, Members: []model.SwitchID{1, 2}, Designated: 1, RingPrev: 2, RingNext: 2, SyncInterval: time.Second, KeepAliveInterval: time.Second, Version: 2},
			&KeepAlive{From: 1, Seq: 1},
		}}},
		{17, &GFIBDelta{
			Group: 2,
			Deltas: []GFIBFilterDelta{
				{Switch: 1, BaseVersion: 3, TargetVersion: 4, Words: []bloom.WordDelta{{Index: 5, Word: 0xff00ff00ff00ff00}}},
			},
			Removals: []model.SwitchID{9},
			Version:  5,
		}},
		{18, &GFIBNack{Group: 2, Origin: 3, Peers: []model.SwitchID{1, 4}}},
		// Replication set: role handoff and the three journal-record
		// kinds, plus a generation-stamped keep-alive (the replica
		// heartbeat that doubles as the bootstrap-snapshot request).
		{19, &RoleAnnounce{From: model.StandbyNode, Generation: 7}},
		{20, &KeepAlive{From: model.StandbyNode, Seq: 1, Generation: 7}},
		{21, &StateSyncRecord{
			Kind: SyncLFIB, Generation: 7, GroupingVersion: 4,
			Origin: 3, Full: true, Version: 9,
			Entries: []LFIBEntry{{MAC: model.HostMAC(1), IP: 0x0a000001, VLAN: 12}},
		}},
		{22, &StateSyncRecord{
			Kind: SyncGrouping, Generation: 7, GroupingVersion: 5,
			Assign: []SyncAssign{{Switch: 1, Group: 2}, {Switch: 3, Group: 2}},
		}},
		{23, &StateSyncRecord{Kind: SyncTombstone, Generation: 7, GroupingVersion: 5, Origin: 4, Full: true}},
		{24, &PacketInBurst{Switch: 3, Items: []BurstPacket{
			{Reason: ReasonNoMatch, Packet: pkt},
			{Reason: ReasonARP, Packet: pkt},
		}}},
		{25, &FailureReport{Observer: 2, Suspect: 3, Direction: LossDown, MissedSeq: 17}},
		{26, &ConfigAck{From: 3, Version: 5}},
	}
}

// FuzzCodecRoundTrip feeds arbitrary bytes to Decode and checks the
// codec's stability contract on everything that parses: a decoded
// message must re-encode without error, the re-encoded bytes must
// decode to a deep-equal message under the same xid, and a second
// encode must be byte-identical to the first (encode is a fixpoint
// after one canonicalization round — non-canonical varints or a
// non-optimal pair-section flag in the input may re-encode smaller,
// but never unstably). Decode itself must never panic or over-allocate
// regardless of input; the bounds checks lazyvet's wireproto analyzer
// enforces are what keeps crafted count fields from turning into
// gigabyte make() calls here.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, s := range fuzzSeeds() {
		data, err := Encode(s.m, 0xdead0000|uint32(s.m.MsgType()))
		if err != nil {
			f.Fatalf("encoding seed %v: %v", s.m.MsgType(), err)
		}
		f.Add(data)
	}
	// A few deliberately broken headers so the fuzzer starts with
	// rejection paths covered too.
	f.Add([]byte{})
	f.Add([]byte{Version, 0xff, 0, 0, 0, 10, 0, 0, 0, 1})
	f.Add([]byte{0x00, 1, 0, 0, 0, 10, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, xid, err := Decode(data)
		if err != nil {
			return // rejected input: only contract is "no panic"
		}
		enc1, err := Encode(m, xid)
		if err != nil {
			t.Fatalf("re-encoding decoded %v: %v", m.MsgType(), err)
		}
		m2, xid2, err := Decode(enc1)
		if err != nil {
			t.Fatalf("decoding re-encoded %v: %v", m.MsgType(), err)
		}
		if xid2 != xid {
			t.Fatalf("xid changed across round trip: %#x -> %#x", xid, xid2)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("%v round trip changed value:\n first: %#v\nsecond: %#v", m.MsgType(), m, m2)
		}
		enc2, err := Encode(m2, xid2)
		if err != nil {
			t.Fatalf("second encode of %v: %v", m.MsgType(), err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("%v encode not a fixpoint:\n first: %x\nsecond: %x", m.MsgType(), enc1, enc2)
		}
	})
}

const fuzzCorpusDir = "testdata/fuzz/FuzzCodecRoundTrip"

// corpusFileName derives a stable name for a seed corpus entry.
func corpusFileName(s fuzzSeed) string {
	return fmt.Sprintf("seed-%02d-%v", s.n, s.m.MsgType())
}

// corpusEntry renders data in the "go test fuzz v1" corpus file format.
func corpusEntry(data []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
}

// TestFuzzCorpusCommitted checks that the committed seed corpus under
// testdata/fuzz/FuzzCodecRoundTrip matches the current encodings of
// fuzzSeeds, so a wire-format change cannot silently strand the
// corpus on stale bytes. Regenerate with:
//
//	LAZYCTRL_WRITE_CORPUS=1 go test ./internal/openflow -run TestFuzzCorpusCommitted
func TestFuzzCorpusCommitted(t *testing.T) {
	write := os.Getenv("LAZYCTRL_WRITE_CORPUS") != ""
	if write {
		if err := os.MkdirAll(fuzzCorpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range fuzzSeeds() {
		data, err := Encode(s.m, 0xdead0000|uint32(s.m.MsgType()))
		if err != nil {
			t.Fatalf("encoding seed %v: %v", s.m.MsgType(), err)
		}
		path := filepath.Join(fuzzCorpusDir, corpusFileName(s))
		want := corpusEntry(data)
		if write {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("seed corpus entry missing (regenerate with LAZYCTRL_WRITE_CORPUS=1): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale: committed corpus does not match current encoding of %v; regenerate with LAZYCTRL_WRITE_CORPUS=1", path, s.m.MsgType())
		}
	}
}
