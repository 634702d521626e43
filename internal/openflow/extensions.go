package openflow

import (
	"time"

	"lazyctrl/internal/model"
)

// GroupConfig is sent by the controller to every switch at setup and
// after each regrouping (§III-D1): it carries the group membership, the
// designated switch and its backups, the switch's neighbors on the
// failure-detection wheel, and the timing parameters for group
// synchronization and keep-alives.
type GroupConfig struct {
	Group      model.GroupID
	Members    []model.SwitchID
	Designated model.SwitchID
	Backups    []model.SwitchID
	// RingPrev and RingNext are the receiver's neighbors on the
	// failure-detection wheel (ordered by management MAC).
	RingPrev model.SwitchID
	RingNext model.SwitchID
	// SyncInterval is the group state synchronization period; KeepAlive
	// is the wheel heartbeat period.
	SyncInterval      time.Duration
	KeepAliveInterval time.Duration
	// Version is the grouping version this configuration belongs to.
	Version uint64
	// Generation is the sender's cluster generation (0 = unfenced; only
	// controller replicas stamp it). Receivers reject configs fenced
	// behind their highest-seen generation.
	Generation uint64
}

// MsgType implements Message.
func (*GroupConfig) MsgType() MsgType { return TypeGroupConfig }

func (m *GroupConfig) layout(w wire) wire {
	w = u32(w, &m.Group)
	w = list(w, &m.Members, countU32, 4, u32)
	w = u32(w, &m.Designated)
	w = list(w, &m.Backups, countU32, 4, u32)
	w = u32(w, &m.RingPrev)
	w = u32(w, &m.RingNext)
	w = u64(w, &m.SyncInterval)
	w = u64(w, &m.KeepAliveInterval)
	w = u64(w, &m.Version)
	return uvarint(w, &m.Generation)
}

// LFIBEntry is one host-location binding.
type LFIBEntry struct {
	MAC  model.MAC
	IP   model.IP
	VLAN model.VLAN
}

// lfibEntries moves an entry list: a u32 count, then 12 bytes per
// entry.
func lfibEntries(w wire, s *[]LFIBEntry) wire {
	return list(w, s, countU32, 12, func(w wire, e *LFIBEntry) wire {
		w = mac(w, &e.MAC)
		w = u32(w, &e.IP)
		return u16(w, &e.VLAN)
	})
}

// LFIBUpdate carries a switch's L-FIB: as the legs of a StateReport
// over peer links (member → designated switch) and state links
// (designated switch → controller), per §III-D3, and on its own as a
// switch's answer to an ARP relay.
type LFIBUpdate struct {
	Origin model.SwitchID
	// Full marks a complete snapshot (replaces prior state); otherwise
	// the entries are increments.
	Full    bool
	Entries []LFIBEntry
	Version uint64
	// Generation is a fencing stamp no sender sets (0 = unfenced):
	// controller preloads travel as GFIBUpdate. It keeps its wire slot.
	Generation uint64
}

// MsgType implements Message.
func (*LFIBUpdate) MsgType() MsgType { return TypeLFIBUpdate }

func (m *LFIBUpdate) layout(w wire) wire {
	w = u32(w, &m.Origin)
	w = flag(w, &m.Full)
	w = lfibEntries(w, &m.Entries)
	w = u64(w, &m.Version)
	return uvarint(w, &m.Generation)
}

// GFIBFilter pairs a peer switch with the serialized Bloom filter of
// its L-FIB and the origin's state version the filter was built at.
// The version seeds the receiver's delta tracking: a later GFIBDelta
// applies only on top of the exact version the receiver holds.
type GFIBFilter struct {
	Switch  model.SwitchID
	Filter  []byte
	Version uint64
}

// GFIBUpdate distributes full Bloom filters to group members so they
// can rebuild their G-FIBs, driven by the designated switch (or by the
// controller after regrouping). It is the full-state half of the
// protocol; GFIBDelta is the incremental half.
type GFIBUpdate struct {
	Group   model.GroupID
	Filters []GFIBFilter
	Version uint64
	// Generation fences controller-issued preloads (0 = unfenced;
	// designated-switch dissemination leaves it 0).
	Generation uint64
}

// MsgType implements Message.
func (*GFIBUpdate) MsgType() MsgType { return TypeGFIBUpdate }

func (m *GFIBUpdate) layout(w wire) wire {
	w = u32(w, &m.Group)
	// A filter costs at least switch + version + length.
	w = list(w, &m.Filters, countU32, 16, func(w wire, f *GFIBFilter) wire {
		w = u32(w, &f.Switch)
		w = u64(w, &f.Version)
		return blob(w, &f.Filter)
	})
	w = u64(w, &m.Version)
	return uvarint(w, &m.Generation)
}

// PairStat reports the number of new flows observed between two edge
// switches during the last reporting window; the controller aggregates
// these into the intensity matrix that drives SGI.
type PairStat struct {
	A, B     model.SwitchID
	NewFlows uint32
}

// StateReport is sent by a designated switch to the controller over the
// state link: the aggregated L-FIBs of the group plus traffic
// statistics.
//
// The pair-statistics section is size-adaptive on the wire: a report
// whose pairs concentrate on few distinct switches (the steady state —
// a group's members pairwise, ~n²/2 pairs over n switches) encodes a
// dense switch-index table once (u32 per distinct switch) and each
// pair as two u16 indexes plus the count (8 bytes instead of 12); a
// sparse report where the table would not pay for itself keeps the
// flat u32-pair form. The encoder computes both sizes and flags the
// cheaper one in a leading byte, so no report ever grows.
type StateReport struct {
	Group   model.GroupID
	LFIBs   []LFIBUpdate
	Pairs   []PairStat
	Version uint64
}

// MsgType implements Message.
func (*StateReport) MsgType() MsgType { return TypeStateReport }

// Pair-section encodings (the leading flag byte).
const (
	pairEncFlat  = 0 // u32 A, u32 B, u32 count per pair
	pairEncDense = 1 // switch table + u16 indexes per pair
)

// maxDenseSwitches bounds the dense table: pair indexes travel as u16
// and so does the table's length field, whose largest representable
// value is 65,535 (a 65,536-entry table would wrap the length to 0).
const maxDenseSwitches = 1<<16 - 1

// pairSwitchTable builds the distinct-switch table of a pair list in
// first-appearance order, or nil when the dense form is not applicable
// (too many distinct switches) or not smaller than the flat form.
func pairSwitchTable(pairs []PairStat) ([]model.SwitchID, map[model.SwitchID]uint16) {
	// Dense saves 4 bytes/pair against ≥2 table entries + the length:
	// with fewer than 3 pairs it can never win, so don't even allocate
	// the table (reports without pair stats are the steady state of
	// the dissemination path, and its alloc budget is gated).
	if len(pairs) < 3 {
		return nil, nil
	}
	table := make([]model.SwitchID, 0, 16)
	index := make(map[model.SwitchID]uint16, 16)
	intern := func(id model.SwitchID) bool {
		if _, ok := index[id]; ok {
			return true
		}
		if len(table) >= maxDenseSwitches {
			return false
		}
		index[id] = uint16(len(table))
		table = append(table, id)
		return true
	}
	for _, p := range pairs {
		if !intern(p.A) || !intern(p.B) {
			return nil, nil
		}
	}
	// Dense: 2 (table len) + 4·switches + 8·pairs. Flat: 12·pairs.
	if 2+4*len(table)+8*len(pairs) >= 12*len(pairs) {
		return nil, nil
	}
	return table, index
}

// StateReport's count fields travel as varints, and the pair-section
// flag byte is omitted entirely for the empty pair list (the steady
// state of the report path between traffic windows): the "flag/count
// bytes" of the ROADMAP wire-byte headroom item cost two bytes total
// in the common case instead of nine. Each L-FIB leg is an LFIBUpdate
// body behind its uvarint size.
func (m *StateReport) layout(w wire) wire {
	w = u32(w, &m.Group)
	// A leg costs at least its size byte and one more.
	w = list(w, &m.LFIBs, countVarint, 2, func(w wire, u *LFIBUpdate) wire {
		return framed(w, countVarint, u.layout)
	})
	// A non-empty pair list opens with the encoding flag and, in the
	// dense form, the switch table; the encoder picks the cheaper form.
	// A pair costs at least 8 bytes (the dense form's).
	var (
		enc   uint8 = pairEncFlat
		table []model.SwitchID
		index map[model.SwitchID]uint16
		first = true
	)
	w = list(w, &m.Pairs, countVarint, 8, func(w wire, p *PairStat) wire {
		if first {
			first = false
			if !w.dec() {
				if table, index = pairSwitchTable(m.Pairs); table != nil {
					enc = pairEncDense
				}
			}
			switch w = u8(w, &enc); {
			case enc == pairEncDense:
				w = list(w, &table, countU16, 4, u32)
			case enc != pairEncFlat:
				return w.fail(ErrTruncated)
			}
		}
		if enc == pairEncFlat {
			w = u32(w, &p.A)
			w = u32(w, &p.B)
		} else {
			a, b := index[p.A], index[p.B]
			w = u16(w, &a)
			w = u16(w, &b)
			if w.dec() && !w.failed() {
				if int(a) >= len(table) || int(b) >= len(table) {
					return w.fail(ErrTruncated)
				}
				p.A, p.B = table[a], table[b]
			}
		}
		return u32(w, &p.NewFlows)
	})
	return u64(w, &m.Version)
}

// KeepAlive is the failure-detection wheel heartbeat (§III-E1), sent
// from upstream to downstream switches and from the controller to each
// switch.
type KeepAlive struct {
	From model.SwitchID
	Seq  uint64
	// Generation is the sender's cluster generation (0 on the wheel —
	// only controller replicas stamp it). Edges adopt a higher
	// generation from it and reject stale-master heartbeats behind it.
	Generation uint64
}

// MsgType implements Message.
func (*KeepAlive) MsgType() MsgType { return TypeKeepAlive }

func (m *KeepAlive) layout(w wire) wire {
	w = u32(w, &m.From)
	w = u64(w, &m.Seq)
	return uvarint(w, &m.Generation)
}

// ARPRelay carries an ARP request from the controller to the designated
// switches of the groups hosting the relevant tenant (level-iii of live
// state dissemination, §III-D3).
type ARPRelay struct {
	Tenant model.TenantID
	Packet model.Packet
}

// MsgType implements Message.
func (*ARPRelay) MsgType() MsgType { return TypeARPRelay }

func (m *ARPRelay) layout(w wire) wire {
	w = u32(w, &m.Tenant)
	return packet(w, &m.Packet)
}
