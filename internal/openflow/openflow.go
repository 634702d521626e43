// Package openflow implements the control-channel wire protocol of the
// LazyCtrl prototype: the OpenFlow v1.0 messages the model exchanges
// (PacketIn, PacketOut, FlowMod) extended with the LazyCtrl vendor
// messages (§IV of the paper): group configuration, L-FIB/G-FIB
// dissemination, designated-switch state reports, ring keep-alives,
// scoped ARP relay, failure reports and controller replication. The
// set holds only messages some node sends; msgTypes declares it once.
// It also defines the flow-table match/action model,
// including the Encap action that extends OpenFlow v1.0 with GRE-like
// overlay encapsulation.
//
// The Batch message coalesces several messages to one destination
// (body: uvarint generation, u32 count, then per item u8 type + u32
// length + body) so a regroup round encodes and sends at most one
// control message per switch; see Batch for the framing details and
// the no-nesting rule.
//
// G-FIB distribution is a versioned delta protocol: GFIBUpdate carries
// full filters stamped with their origin's state version, GFIBDelta
// carries only the changed 64-bit words between two versions, and
// GFIBNack requests a full resync when a receiver's held version does
// not match a delta's base. PacketInBurst aggregates an edge switch's
// micro-batched PacketIns into one control message. The message set,
// versioning rules, and framing are documented in docs/protocol.md.
//
// The in-memory underlays hand messages over as Go values; the binary
// codec runs where bytes are the point: the wire meter, the
// dissemination harness in internal/eval's tests, and the round-trip
// tests.
package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lazyctrl/internal/telemetry"
)

// Version is the protocol version carried in every header. LazyCtrl
// extends OpenFlow v1.0 (wire version 0x01); the extension bit marks the
// modified protocol.
const Version uint8 = 0x01 | 0x80

// MsgType identifies a control message.
type MsgType uint8

// Message types: only what some node sends. The first block is the
// OpenFlow v1.0 subset the model uses; the rest are the LazyCtrl
// extensions. Codes are wire-stable: a retired type leaves its code
// unassigned instead of renumbering the types after it.
const (
	TypePacketIn  MsgType = 4
	TypePacketOut MsgType = 5
	TypeFlowMod   MsgType = 6

	// LazyCtrl extensions.
	TypeGroupConfig MsgType = 10
	TypeLFIBUpdate  MsgType = 11
	TypeGFIBUpdate  MsgType = 12
	TypeStateReport MsgType = 13
	TypeKeepAlive   MsgType = 14
	TypeARPRelay    MsgType = 15
	// TypeBatch coalesces several messages to one destination (one
	// encode and one send per switch per regroup round, see Batch).
	TypeBatch MsgType = 16
	// TypeGFIBDelta ships only the changed words of changed filters
	// (the incremental half of G-FIB distribution, see GFIBDelta).
	TypeGFIBDelta MsgType = 17
	// TypeGFIBNack requests a full resync after a delta whose base
	// version the receiver does not hold (see GFIBNack).
	TypeGFIBNack MsgType = 18
	// TypePacketInBurst carries an edge switch's micro-batched
	// PacketIns in one control message (see PacketInBurst).
	TypePacketInBurst MsgType = 19
	// Failure handling (failure.go) and controller replication
	// (replication.go).
	TypeFailureReport   MsgType = 32
	TypeConfigAck       MsgType = 33
	TypeRoleAnnounce    MsgType = 34
	TypeStateSyncRecord MsgType = 35
)

// msgTypes is the codec's message set, indexed by wire code: the name
// String prints and the constructor Decode fills. A code without an
// entry does not decode.
var msgTypes = [...]struct {
	name string
	new  func() Message
}{
	TypePacketIn:        {"PacketIn", func() Message { return &PacketIn{} }},
	TypePacketOut:       {"PacketOut", func() Message { return &PacketOut{} }},
	TypeFlowMod:         {"FlowMod", func() Message { return &FlowMod{} }},
	TypeGroupConfig:     {"GroupConfig", func() Message { return &GroupConfig{} }},
	TypeLFIBUpdate:      {"LFIBUpdate", func() Message { return &LFIBUpdate{} }},
	TypeGFIBUpdate:      {"GFIBUpdate", func() Message { return &GFIBUpdate{} }},
	TypeStateReport:     {"StateReport", func() Message { return &StateReport{} }},
	TypeKeepAlive:       {"KeepAlive", func() Message { return &KeepAlive{} }},
	TypeARPRelay:        {"ARPRelay", func() Message { return &ARPRelay{} }},
	TypeBatch:           {"Batch", func() Message { return &Batch{} }},
	TypeGFIBDelta:       {"GFIBDelta", func() Message { return &GFIBDelta{} }},
	TypeGFIBNack:        {"GFIBNack", func() Message { return &GFIBNack{} }},
	TypePacketInBurst:   {"PacketInBurst", func() Message { return &PacketInBurst{} }},
	TypeFailureReport:   {"FailureReport", func() Message { return &FailureReport{} }},
	TypeConfigAck:       {"ConfigAck", func() Message { return &ConfigAck{} }},
	TypeRoleAnnounce:    {"RoleAnnounce", func() Message { return &RoleAnnounce{} }},
	TypeStateSyncRecord: {"StateSyncRecord", func() Message { return &StateSyncRecord{} }},
}

// The flight recorders (internal/telemetry) store message types as
// numeric codes to keep their hot path pointer-free; register the
// render names once so tails print the wire names.
func init() {
	for t, e := range msgTypes {
		if e.name != "" {
			telemetry.RegisterFlightType(uint8(t), e.name)
		}
	}
}

// String returns the message type name.
func (t MsgType) String() string {
	if int(t) < len(msgTypes) && msgTypes[t].name != "" {
		return msgTypes[t].name
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message is a decodable control message.
type Message interface {
	// MsgType returns the wire type tag.
	MsgType() MsgType
	// layout states the body's fields once, in wire order; w's
	// direction makes it an encode or a decode (see wire).
	layout(w wire) wire
}

// headerLen is the fixed header size: version(1) type(1) length(4) xid(4).
const headerLen = 10

// maxMessageLen bounds decoded messages (a G-FIB update carrying dozens
// of Bloom filters is the largest legitimate message).
const maxMessageLen = 16 << 20

// Errors returned by the codec.
var (
	ErrTruncated   = errors.New("openflow: truncated message")
	ErrBadVersion  = errors.New("openflow: unsupported version")
	ErrUnknownType = errors.New("openflow: unknown message type")
	ErrTooLarge    = errors.New("openflow: message exceeds size bound")
)

// Encode serializes a message with the given transaction ID. The body
// is laid out behind the header in the returned frame itself; 64 bytes
// of body fit without growing it.
func Encode(m Message, xid uint32) ([]byte, error) {
	buf := m.layout(wire{buf: make([]byte, headerLen, headerLen+64)}).buf
	if len(buf) > maxMessageLen {
		return nil, ErrTooLarge
	}
	buf[0] = Version
	buf[1] = uint8(m.MsgType())
	binary.BigEndian.PutUint32(buf[2:6], uint32(len(buf)))
	binary.BigEndian.PutUint32(buf[6:10], xid)
	return buf, nil
}

// newMessage allocates an empty message of the given type.
func newMessage(t MsgType) (Message, error) {
	if int(t) < len(msgTypes) && msgTypes[t].new != nil {
		return msgTypes[t].new(), nil
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
}

// Decode parses one complete message, returning it with its transaction
// ID.
func Decode(data []byte) (Message, uint32, error) {
	if len(data) < headerLen {
		return nil, 0, ErrTruncated
	}
	if data[0] != Version {
		return nil, 0, fmt.Errorf("%w: 0x%02x", ErrBadVersion, data[0])
	}
	total := binary.BigEndian.Uint32(data[2:6])
	if total > maxMessageLen {
		return nil, 0, ErrTooLarge
	}
	if uint32(len(data)) != total {
		return nil, 0, fmt.Errorf("%w: header says %d bytes, have %d", ErrTruncated, total, len(data))
	}
	xid := binary.BigEndian.Uint32(data[6:10])
	m, err := newMessage(MsgType(data[1]))
	if err != nil {
		return nil, 0, err
	}
	if err := m.layout(reading(data[headerLen:])).done(); err != nil {
		return nil, 0, fmt.Errorf("openflow: decoding %v: %w", MsgType(data[1]), err)
	}
	return m, xid, nil
}
