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

func encodeSwitches(dst []byte, ids []model.SwitchID) []byte {
	dst = putU32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = putU32(dst, uint32(id))
	}
	return dst
}

func decodeSwitches(r *reader) []model.SwitchID {
	n := int(r.u32())
	if n == 0 || n*4 > r.remain() {
		if n != 0 {
			r.fail()
		}
		return nil
	}
	ids := make([]model.SwitchID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, model.SwitchID(r.u32()))
	}
	return ids
}

func (m *GroupConfig) encodeBody(dst []byte) []byte {
	dst = putU32(dst, uint32(m.Group))
	dst = encodeSwitches(dst, m.Members)
	dst = putU32(dst, uint32(m.Designated))
	dst = encodeSwitches(dst, m.Backups)
	dst = putU32(dst, uint32(m.RingPrev))
	dst = putU32(dst, uint32(m.RingNext))
	dst = putU64(dst, uint64(m.SyncInterval))
	dst = putU64(dst, uint64(m.KeepAliveInterval))
	dst = putU64(dst, m.Version)
	return putUvarint(dst, m.Generation)
}

func (m *GroupConfig) decodeBody(src []byte) error {
	r := &reader{src: src}
	m.Group = model.GroupID(r.u32())
	m.Members = decodeSwitches(r)
	m.Designated = model.SwitchID(r.u32())
	m.Backups = decodeSwitches(r)
	m.RingPrev = model.SwitchID(r.u32())
	m.RingNext = model.SwitchID(r.u32())
	m.SyncInterval = time.Duration(r.u64())
	m.KeepAliveInterval = time.Duration(r.u64())
	m.Version = r.u64()
	m.Generation = r.uvarint()
	return r.done()
}

// LFIBEntry is one host-location binding.
type LFIBEntry struct {
	MAC  model.MAC
	IP   model.IP
	VLAN model.VLAN
}

func encodeLFIBEntries(dst []byte, entries []LFIBEntry) []byte {
	dst = putU32(dst, uint32(len(entries)))
	for _, e := range entries {
		dst = append(dst, e.MAC[:]...)
		dst = putU32(dst, uint32(e.IP))
		dst = putU16(dst, uint16(e.VLAN))
	}
	return dst
}

func decodeLFIBEntries(r *reader) []LFIBEntry {
	n := int(r.u32())
	if n == 0 || n*12 > r.remain() {
		if n != 0 {
			r.fail()
		}
		return nil
	}
	entries := make([]LFIBEntry, 0, n)
	for i := 0; i < n; i++ {
		var e LFIBEntry
		e.MAC = r.mac()
		e.IP = model.IP(r.u32())
		e.VLAN = model.VLAN(r.u16())
		entries = append(entries, e)
	}
	return entries
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

func (m *LFIBUpdate) encodeBody(dst []byte) []byte {
	dst = putU32(dst, uint32(m.Origin))
	if m.Full {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = encodeLFIBEntries(dst, m.Entries)
	dst = putU64(dst, m.Version)
	return putUvarint(dst, m.Generation)
}

func (m *LFIBUpdate) decodeBody(src []byte) error {
	r := &reader{src: src}
	m.Origin = model.SwitchID(r.u32())
	m.Full = r.u8() == 1
	m.Entries = decodeLFIBEntries(r)
	m.Version = r.u64()
	m.Generation = r.uvarint()
	return r.done()
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

func (m *GFIBUpdate) encodeBody(dst []byte) []byte {
	dst = putU32(dst, uint32(m.Group))
	dst = putU32(dst, uint32(len(m.Filters)))
	for _, f := range m.Filters {
		dst = putU32(dst, uint32(f.Switch))
		dst = putU64(dst, f.Version)
		dst = putU32(dst, uint32(len(f.Filter)))
		dst = append(dst, f.Filter...)
	}
	dst = putU64(dst, m.Version)
	return putUvarint(dst, m.Generation)
}

func (m *GFIBUpdate) decodeBody(src []byte) error {
	r := &reader{src: src}
	m.Group = model.GroupID(r.u32())
	n := int(r.u32())
	if n*16 > r.remain() { // each filter costs at least switch+version+length
		r.fail()
		return ErrTruncated
	}
	m.Filters = make([]GFIBFilter, 0, n)
	for i := 0; i < n; i++ {
		var f GFIBFilter
		f.Switch = model.SwitchID(r.u32())
		f.Version = r.u64()
		f.Filter = r.bytes(int(r.u32()))
		m.Filters = append(m.Filters, f)
	}
	m.Version = r.u64()
	m.Generation = r.uvarint()
	return r.done()
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
// in the common case instead of nine.
func (m *StateReport) encodeBody(dst []byte) []byte {
	dst = putU32(dst, uint32(m.Group))
	dst = putUvarint(dst, uint64(len(m.LFIBs)))
	for i := range m.LFIBs {
		inner := m.LFIBs[i].encodeBody(nil)
		dst = putUvarint(dst, uint64(len(inner)))
		dst = append(dst, inner...)
	}
	dst = putUvarint(dst, uint64(len(m.Pairs)))
	if len(m.Pairs) == 0 {
		return putU64(dst, m.Version)
	}
	if table, index := pairSwitchTable(m.Pairs); table != nil {
		dst = append(dst, pairEncDense)
		dst = putU16(dst, uint16(len(table)))
		for _, id := range table {
			dst = putU32(dst, uint32(id))
		}
		for _, p := range m.Pairs {
			dst = putU16(dst, index[p.A])
			dst = putU16(dst, index[p.B])
			dst = putU32(dst, p.NewFlows)
		}
	} else {
		dst = append(dst, pairEncFlat)
		for _, p := range m.Pairs {
			dst = putU32(dst, uint32(p.A))
			dst = putU32(dst, uint32(p.B))
			dst = putU32(dst, p.NewFlows)
		}
	}
	return putU64(dst, m.Version)
}

func (m *StateReport) decodeBody(src []byte) error {
	r := &reader{src: src}
	m.Group = model.GroupID(r.u32())
	// Varint counts are not wire-bounded; divide so a crafted count
	// cannot wrap the guard into a makeslice panic (see delta.go).
	n := int(r.uvarint())
	if n < 0 || n > r.remain()/2 { // each L-FIB costs ≥ its varint length prefix + body
		r.fail()
		return ErrTruncated
	}
	if n > 0 {
		m.LFIBs = make([]LFIBUpdate, 0, n)
	}
	for i := 0; i < n; i++ {
		body := r.bytes(int(r.uvarint()))
		if r.err != nil {
			return r.err
		}
		var u LFIBUpdate
		if err := u.decodeBody(body); err != nil {
			return err
		}
		m.LFIBs = append(m.LFIBs, u)
	}
	np := int(r.uvarint())
	if np < 0 || np > r.remain() {
		r.fail()
		return ErrTruncated
	}
	if np == 0 {
		m.Version = r.u64()
		return r.done()
	}
	enc := r.u8()
	switch enc {
	case pairEncDense:
		nt := int(r.u16())
		if nt*4 > r.remain() || np > r.remain()/8 {
			r.fail()
			return ErrTruncated
		}
		table := make([]model.SwitchID, nt)
		for i := range table {
			table[i] = model.SwitchID(r.u32())
		}
		if np > 0 {
			m.Pairs = make([]PairStat, 0, np)
		}
		for i := 0; i < np; i++ {
			ai, bi := int(r.u16()), int(r.u16())
			flows := r.u32()
			if ai >= nt || bi >= nt {
				r.fail()
				return ErrTruncated
			}
			m.Pairs = append(m.Pairs, PairStat{A: table[ai], B: table[bi], NewFlows: flows})
		}
	case pairEncFlat:
		if np > r.remain()/12 {
			r.fail()
			return ErrTruncated
		}
		if np > 0 {
			m.Pairs = make([]PairStat, 0, np)
		}
		for i := 0; i < np; i++ {
			var p PairStat
			p.A = model.SwitchID(r.u32())
			p.B = model.SwitchID(r.u32())
			p.NewFlows = r.u32()
			m.Pairs = append(m.Pairs, p)
		}
	default:
		if r.err == nil {
			r.fail()
			return ErrTruncated
		}
	}
	m.Version = r.u64()
	return r.done()
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

func (m *KeepAlive) encodeBody(dst []byte) []byte {
	dst = putU32(dst, uint32(m.From))
	dst = putU64(dst, m.Seq)
	return putUvarint(dst, m.Generation)
}

func (m *KeepAlive) decodeBody(src []byte) error {
	r := &reader{src: src}
	m.From = model.SwitchID(r.u32())
	m.Seq = r.u64()
	m.Generation = r.uvarint()
	return r.done()
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

func (m *ARPRelay) encodeBody(dst []byte) []byte {
	dst = putU32(dst, uint32(m.Tenant))
	return encodePacket(dst, &m.Packet)
}

func (m *ARPRelay) decodeBody(src []byte) error {
	r := &reader{src: src}
	m.Tenant = model.TenantID(r.u32())
	m.Packet = decodePacket(r)
	return r.done()
}
