package openflow

import "lazyctrl/internal/model"

// This file holds the controller-replication message set: the role
// handoff announcement and the primary→standby state-journal record.
// Both carry the cluster generation ID that fences stale masters; the
// generation rules (who stamps, who rejects, monotonicity) are
// documented in docs/robustness.md and docs/protocol.md.

// RoleAnnounce declares that the sending controller replica holds the
// master role at the carried cluster generation. The new primary
// broadcasts it to every edge switch (and its peer replica) on
// takeover; edges adopt the higher generation, redirect reports and
// PacketIn escalations to the announced master, and from then on
// reject any controller push fenced behind it. A replica receiving a
// RoleAnnounce with a higher generation steps down to standby.
type RoleAnnounce struct {
	// From is the announcing replica's node address.
	From model.SwitchID
	// Generation is the cluster generation the sender claims mastership
	// at. Generations only ever increase; 0 is never announced.
	Generation uint64
}

// MsgType implements Message.
func (*RoleAnnounce) MsgType() MsgType { return TypeRoleAnnounce }

func (m *RoleAnnounce) layout(w wire) wire {
	w = u32(w, &m.From)
	return uvarint(w, &m.Generation)
}

// SyncKind discriminates the payload of a StateSyncRecord.
type SyncKind uint8

// Journal record kinds mirrored from primary to standby.
const (
	// SyncLFIB mirrors one switch's aggregated L-FIB state, in the same
	// full/increment form the designated switches report it (the
	// standby applies it through the identical fib.ApplyLFIB path).
	SyncLFIB SyncKind = iota + 1
	// SyncGrouping mirrors the full switch→group assignment after a
	// regroup (and on standby bootstrap).
	SyncGrouping
	// SyncTombstone mirrors a switch-death diagnosis: the standby drops
	// the switch's C-LIB state exactly like the primary did.
	SyncTombstone
)

// String names the record kind.
func (k SyncKind) String() string {
	switch k {
	case SyncLFIB:
		return "lfib"
	case SyncGrouping:
		return "grouping"
	case SyncTombstone:
		return "tombstone"
	default:
		return "unknown"
	}
}

// SyncAssign is one switch→group assignment inside a SyncGrouping
// record.
type SyncAssign struct {
	Switch model.SwitchID
	Group  model.GroupID
}

// StateSyncRecord is the primary→standby journal record: the same
// versioned increments the designated switches already emit, re-framed
// so the standby mirrors C-LIB, grouping, and version state without a
// second reporting channel. A standby applies records in arrival order
// and rejects any record fenced behind its highest-seen generation
// (a partitioned-then-healed stale primary cannot roll the standby
// back). On bootstrap the primary sends a full snapshot: one
// SyncGrouping plus one full SyncLFIB per live switch.
type StateSyncRecord struct {
	Kind SyncKind
	// Generation is the sender's cluster generation; the receiver
	// rejects records behind its highest-seen generation.
	Generation uint64
	// GroupingVersion is the sender's grouping version at journal time.
	GroupingVersion uint64

	// SyncLFIB / SyncTombstone payload: the subject switch and — for
	// SyncLFIB — its entries in LFIBUpdate form.
	Origin  model.SwitchID
	Full    bool
	Version uint64
	Entries []LFIBEntry

	// SyncGrouping payload: the full assignment.
	Assign []SyncAssign
}

// MsgType implements Message.
func (*StateSyncRecord) MsgType() MsgType { return TypeStateSyncRecord }

func (m *StateSyncRecord) layout(w wire) wire {
	w = u8(w, &m.Kind)
	w = uvarint(w, &m.Generation)
	w = uvarint(w, &m.GroupingVersion)
	w = u32(w, &m.Origin)
	w = flag(w, &m.Full)
	w = lfibEntries(w, &m.Entries)
	w = u64(w, &m.Version)
	return list(w, &m.Assign, countVarint, 8, func(w wire, a *SyncAssign) wire {
		w = u32(w, &a.Switch)
		return u32(w, &a.Group)
	})
}
