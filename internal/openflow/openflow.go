// Package openflow implements the control-channel wire protocol of the
// LazyCtrl prototype: an OpenFlow v1.0-style message set (Hello, Echo,
// PacketIn, PacketOut, FlowMod, Stats) extended with the LazyCtrl vendor
// messages (§IV of the paper): group configuration, L-FIB/G-FIB
// dissemination, designated-switch state reports, ring keep-alives, and
// scoped ARP relay. It also defines the flow-table match/action model,
// including the Encap action that extends OpenFlow v1.0 with GRE-like
// overlay encapsulation.
//
// The Batch message coalesces several messages to one destination
// (body: u32 count, then per item u8 type + u32 length + body) so a
// regroup round encodes and sends at most one control message per
// switch; see Batch for the framing details and the no-nesting rule.
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
// dissemination harness (eval.Dissem), and the round-trip tests.
package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lazyctrl/internal/model"
	"lazyctrl/internal/telemetry"
)

// Version is the protocol version carried in every header. LazyCtrl
// extends OpenFlow v1.0 (wire version 0x01); the extension bit marks the
// modified protocol.
const Version uint8 = 0x01 | 0x80

// MsgType identifies a control message.
type MsgType uint8

// Message types. The first block mirrors OpenFlow v1.0; the second block
// holds the LazyCtrl extensions.
const (
	TypeHello MsgType = iota + 1
	TypeEchoRequest
	TypeEchoReply
	TypePacketIn
	TypePacketOut
	TypeFlowMod
	TypeFlowRemoved
	TypeStatsRequest
	TypeStatsReply

	// LazyCtrl extensions.
	TypeGroupConfig
	TypeLFIBUpdate
	TypeGFIBUpdate
	TypeStateReport
	TypeKeepAlive
	TypeARPRelay
	// TypeBatch coalesces several messages to one destination (one
	// encode and one send per switch per regroup round, see Batch).
	TypeBatch
	// TypeGFIBDelta ships only the changed words of changed filters
	// (the incremental half of G-FIB distribution, see GFIBDelta).
	TypeGFIBDelta
	// TypeGFIBNack requests a full resync after a delta whose base
	// version the receiver does not hold (see GFIBNack).
	TypeGFIBNack
	// TypePacketInBurst carries an edge switch's micro-batched
	// PacketIns in one control message (see PacketInBurst).
	TypePacketInBurst
)

var msgTypeNames = map[MsgType]string{
	TypeHello:           "Hello",
	TypeEchoRequest:     "EchoRequest",
	TypeEchoReply:       "EchoReply",
	TypePacketIn:        "PacketIn",
	TypePacketOut:       "PacketOut",
	TypeFlowMod:         "FlowMod",
	TypeFlowRemoved:     "FlowRemoved",
	TypeStatsRequest:    "StatsRequest",
	TypeStatsReply:      "StatsReply",
	TypeGroupConfig:     "GroupConfig",
	TypeLFIBUpdate:      "LFIBUpdate",
	TypeGFIBUpdate:      "GFIBUpdate",
	TypeStateReport:     "StateReport",
	TypeKeepAlive:       "KeepAlive",
	TypeARPRelay:        "ARPRelay",
	TypeBatch:           "Batch",
	TypeGFIBDelta:       "GFIBDelta",
	TypeGFIBNack:        "GFIBNack",
	TypePacketInBurst:   "PacketInBurst",
	TypeFailureReport:   "FailureReport",
	TypeConfigAck:       "ConfigAck",
	TypeRoleAnnounce:    "RoleAnnounce",
	TypeStateSyncRecord: "StateSyncRecord",
}

// The flight recorders (internal/telemetry) store message types as
// numeric codes to keep their hot path pointer-free; register the
// render names once so tails print the wire names.
func init() {
	for t, s := range msgTypeNames {
		telemetry.RegisterFlightType(uint8(t), s)
	}
}

// String returns the message type name.
func (t MsgType) String() string {
	if s, ok := msgTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message is a decodable control message.
type Message interface {
	// MsgType returns the wire type tag.
	MsgType() MsgType
	// encodeBody appends the body encoding to dst.
	encodeBody(dst []byte) []byte
	// decodeBody parses the body.
	decodeBody(src []byte) error
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

// Encode serializes a message with the given transaction ID.
func Encode(m Message, xid uint32) ([]byte, error) {
	body := m.encodeBody(make([]byte, 0, 64))
	total := headerLen + len(body)
	if total > maxMessageLen {
		return nil, ErrTooLarge
	}
	buf := make([]byte, headerLen, total)
	buf[0] = Version
	buf[1] = uint8(m.MsgType())
	binary.BigEndian.PutUint32(buf[2:6], uint32(total))
	binary.BigEndian.PutUint32(buf[6:10], xid)
	return append(buf, body...), nil
}

// newMessage allocates an empty message of the given type.
func newMessage(t MsgType) (Message, error) {
	switch t {
	case TypeHello:
		return &Hello{}, nil
	case TypeEchoRequest:
		return &EchoRequest{}, nil
	case TypeEchoReply:
		return &EchoReply{}, nil
	case TypePacketIn:
		return &PacketIn{}, nil
	case TypePacketOut:
		return &PacketOut{}, nil
	case TypeFlowMod:
		return &FlowMod{}, nil
	case TypeFlowRemoved:
		return &FlowRemoved{}, nil
	case TypeStatsRequest:
		return &StatsRequest{}, nil
	case TypeStatsReply:
		return &StatsReply{}, nil
	case TypeGroupConfig:
		return &GroupConfig{}, nil
	case TypeLFIBUpdate:
		return &LFIBUpdate{}, nil
	case TypeGFIBUpdate:
		return &GFIBUpdate{}, nil
	case TypeStateReport:
		return &StateReport{}, nil
	case TypeKeepAlive:
		return &KeepAlive{}, nil
	case TypeARPRelay:
		return &ARPRelay{}, nil
	case TypeBatch:
		return &Batch{}, nil
	case TypeGFIBDelta:
		return &GFIBDelta{}, nil
	case TypeGFIBNack:
		return &GFIBNack{}, nil
	case TypePacketInBurst:
		return &PacketInBurst{}, nil
	case TypeFailureReport:
		return &FailureReport{}, nil
	case TypeConfigAck:
		return &ConfigAck{}, nil
	case TypeRoleAnnounce:
		return &RoleAnnounce{}, nil
	case TypeStateSyncRecord:
		return &StateSyncRecord{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
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
	if err := m.decodeBody(data[headerLen:]); err != nil {
		return nil, 0, fmt.Errorf("openflow: decoding %v: %w", MsgType(data[1]), err)
	}
	return m, xid, nil
}

// --- primitive encode/decode helpers ---

type reader struct {
	src []byte
	off int
	err error
}

func (r *reader) remain() int { return len(r.src) - r.off }

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.remain() < 1 {
		r.fail()
		return 0
	}
	v := r.src[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.remain() < 2 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.src[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.remain() < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.src[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.remain() < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.src[r.off:])
	r.off += 8
	return v
}

func (r *reader) bytes(n int) []byte {
	if n < 0 || r.err != nil || r.remain() < n {
		r.fail()
		return nil
	}
	v := make([]byte, n)
	copy(v, r.src[r.off:r.off+n])
	r.off += n
	return v
}

func (r *reader) mac() model.MAC {
	var m model.MAC
	if r.err != nil || r.remain() < 6 {
		r.fail()
		return m
	}
	copy(m[:], r.src[r.off:r.off+6])
	r.off += 6
	return m
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.remain() != 0 {
		return fmt.Errorf("openflow: %d trailing bytes", r.remain())
	}
	return nil
}

// putUvarint appends v LEB128-encoded (7 bits per byte, high bit =
// continuation): the mostly-zero and mostly-small count fields of the
// delta path cost one byte instead of four. See docs/protocol.md.
func putUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// uvarint reads a LEB128-encoded unsigned integer (at most 10 bytes;
// the 10th may carry only bit 0 — anything else would shift bits past
// 63, silently wrapping a crafted overlong encoding into a small bogus
// value, so it fails instead, like binary.Uvarint).
func (r *reader) uvarint() uint64 {
	var v uint64
	var shift uint
	for i := 0; i < 10; i++ {
		b := r.u8()
		if r.err != nil {
			return 0
		}
		if i == 9 && b > 1 {
			r.fail()
			return 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
	}
	r.fail()
	return 0
}

func putU16(dst []byte, v uint16) []byte {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	return append(dst, b[:]...)
}

func putU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func putU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}
