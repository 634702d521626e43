package openflow

import (
	"math"

	"lazyctrl/internal/bloom"
	"lazyctrl/internal/model"
	"lazyctrl/internal/telemetry"
)

// This file holds the incremental half of the G-FIB distribution
// protocol plus the edge-side PacketIn micro-batch. The versioning
// model is shared with GFIBUpdate: every filter is stamped with its
// origin's L-FIB version, a GFIBDelta moves a receiver from exactly
// BaseVersion to TargetVersion by overwriting the changed 64-bit words,
// and a receiver that does not hold the base version answers with a
// GFIBNack naming the peers it needs in full. See docs/protocol.md.

// GFIBFilterDelta is the word-level diff of one peer's Bloom filter
// between two of its L-FIB versions. Word indexes are u16 on the wire,
// bounding delta-encodable filters at 64 Ki words (512 KB) — far above
// any G-FIB geometry; senders fall back to a full push beyond it (see
// DeltaWireCost).
type GFIBFilterDelta struct {
	Switch        model.SwitchID
	BaseVersion   uint64
	TargetVersion uint64
	Words         []bloom.WordDelta
}

// DeltaWireCost returns the encoded size of a delta item carrying the
// given words, or MaxInt when they cannot be delta-encoded (a word
// index beyond the u16 wire format). FullWireCost returns the encoded
// size of a full GFIBFilter item carrying the filter. Both G-FIB
// senders (the designated switch and the controller's preload) ship a
// delta exactly when it is the smaller of the two.
func DeltaWireCost(words []bloom.WordDelta) int {
	for _, w := range words {
		if w.Index > math.MaxUint16 {
			return math.MaxInt
		}
	}
	// switch (4) + base/target versions (16) + varint word count.
	return 20 + uvarintLen(uint64(len(words))) + 10*len(words)
}

// uvarintLen is the encoded size of v as a LEB128 varint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// FullWireCost is DeltaWireCost's counterpart for full filter items:
// switch (4) + version (8) + length (4) + the marshaled filter.
func FullWireCost(f *bloom.Filter) int { return 16 + f.MarshaledLen() }

// GFIBDelta carries sub-filter updates to group members: only the
// changed words of the changed filters, so a single host arrival ships
// O(k) words instead of the whole 2 KB array. A receiver applies each
// item only if it holds the item's base version; otherwise it leaves
// its filter untouched and NACKs.
//
// Removals are the protocol's filter tombstones: the named peers'
// filters must be evicted outright (the peer was diagnosed dead or
// reported lost on peer evidence), so non-neighbor members stop
// encapsulating toward a black hole immediately instead of keeping the
// dead member's filter until the next membership change. A removal is
// unconditional — no base version, never NACKed — and a removed filter
// returns through the normal full-push path when the peer comes back.
type GFIBDelta struct {
	Group  model.GroupID
	Deltas []GFIBFilterDelta
	// Removals names peers whose filters the receiver must drop.
	Removals []model.SwitchID
	// Version is the grouping version the sender operated under.
	Version uint64
	// Generation fences controller-issued deltas (tombstone broadcasts;
	// 0 = unfenced, designated-switch dissemination leaves it 0).
	Generation uint64
}

// MsgType implements Message.
func (*GFIBDelta) MsgType() MsgType { return TypeGFIBDelta }

// GFIBDelta's count fields — delta items, per-item words, removals —
// travel as varints: the removals list is almost always empty and the
// word counts almost always small, so each costs one byte instead of
// four (the ROADMAP "wire-byte headroom" item; TestDissemDeltaByteReduction
// pins the resulting margin).
func (m *GFIBDelta) layout(w wire) wire {
	w = u32(w, &m.Group)
	// An item costs at least switch + base/target versions + word count.
	w = list(w, &m.Deltas, countVarint, 21, func(w wire, d *GFIBFilterDelta) wire {
		w = u32(w, &d.Switch)
		w = u64(w, &d.BaseVersion)
		w = u64(w, &d.TargetVersion)
		return list(w, &d.Words, countVarint, 10, func(w wire, x *bloom.WordDelta) wire {
			w = u16(w, &x.Index)
			return u64(w, &x.Word)
		})
	})
	w = list(w, &m.Removals, countVarint, 4, u32)
	w = u64(w, &m.Version)
	return uvarint(w, &m.Generation)
}

// GFIBNack asks the sender of a G-FIB update for a full resync of the
// named peers' filters: the receiver got a delta whose base version it
// does not hold (missed round, cleared G-FIB, reboot). The sender
// answers with a full GFIBUpdate scoped to those peers. This explicit
// repair path replaces the old every-Nth-round anti-entropy refresh on
// the dissemination path.
type GFIBNack struct {
	Group model.GroupID
	// Origin is the switch requesting the resync (carried explicitly
	// so the request survives ring relays intact).
	Origin model.SwitchID
	Peers  []model.SwitchID
}

// MsgType implements Message.
func (*GFIBNack) MsgType() MsgType { return TypeGFIBNack }

func (m *GFIBNack) layout(w wire) wire {
	w = u32(w, &m.Group)
	w = u32(w, &m.Origin)
	return list(w, &m.Peers, countU32, 4, u32)
}

// BurstPacket is one PacketIn worth of payload inside a PacketInBurst:
// the reason and the packet, without repeating the shared origin
// switch.
type BurstPacket struct {
	Reason PacketInReason
	Packet model.Packet
	// Span is the escalation's telemetry span context (zero when
	// unsampled; not encoded — see PacketIn.Span).
	Span telemetry.SpanContext
}

// PacketInBurst carries several PacketIns from one switch in a single
// control message. Edge switches fill it from their micro-batching
// intake window (flush on count or deadline), so a packet-in storm
// crosses the control link as a handful of bursts instead of thousands
// of messages; the controller handles the items in order, as it would
// the single PacketIns.
type PacketInBurst struct {
	Switch model.SwitchID
	Items  []BurstPacket
}

// MsgType implements Message.
func (*PacketInBurst) MsgType() MsgType { return TypePacketInBurst }

func (m *PacketInBurst) layout(w wire) wire {
	w = u32(w, &m.Switch)
	return list(w, &m.Items, countU32, 1, func(w wire, it *BurstPacket) wire {
		w = u8(w, &it.Reason)
		return packet(w, &it.Packet)
	})
}

// PacketIns expands the burst into the per-message form the
// controller's burst intake consumes.
func (m *PacketInBurst) PacketIns() []PacketIn {
	out := make([]PacketIn, len(m.Items))
	for i := range m.Items {
		out[i] = PacketIn{Switch: m.Switch, Reason: m.Items[i].Reason, Packet: m.Items[i].Packet, Span: m.Items[i].Span}
	}
	return out
}
