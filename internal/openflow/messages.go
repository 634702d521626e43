package openflow

import (
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/telemetry"
)

// PacketInReason explains why a packet reached the controller.
type PacketInReason uint8

// PacketIn reasons.
const (
	ReasonNoMatch       PacketInReason = iota + 1 // no flow rule, no L-FIB/G-FIB hit
	ReasonARP                                     // ARP that escaped the group
	ReasonFalsePositive                           // mis-forwarded packet reported (§III-D4, optional)
)

// PacketIn carries a packet from a switch to the controller.
type PacketIn struct {
	Switch model.SwitchID
	Reason PacketInReason
	Packet model.Packet
	// Span is the telemetry span context of the escalation's trace
	// (zero when unsampled). It is not part of the encoded body: the
	// in-process fabric passes the struct as-is, and on a real wire the
	// header's existing 4-byte xid field carries the low span-ID bits
	// (Encode already threads an xid per message), so unreplicated
	// deployments see no wire format change. See docs/observability.md.
	Span telemetry.SpanContext
}

// MsgType implements Message.
func (*PacketIn) MsgType() MsgType { return TypePacketIn }

func (m *PacketIn) encodeBody(dst []byte) []byte {
	dst = putU32(dst, uint32(m.Switch))
	dst = append(dst, uint8(m.Reason))
	return encodePacket(dst, &m.Packet)
}

func (m *PacketIn) decodeBody(src []byte) error {
	r := &reader{src: src}
	m.Switch = model.SwitchID(r.u32())
	m.Reason = PacketInReason(r.u8())
	m.Packet = decodePacket(r)
	return r.done()
}

// PacketOut instructs a switch to emit a packet with the given actions.
type PacketOut struct {
	Actions []Action
	Packet  model.Packet
	// Span propagates the originating escalation's trace back to the
	// edge (not encoded; see PacketIn.Span).
	Span telemetry.SpanContext
}

// MsgType implements Message.
func (*PacketOut) MsgType() MsgType { return TypePacketOut }

func (m *PacketOut) encodeBody(dst []byte) []byte {
	dst = encodeActions(dst, m.Actions)
	return encodePacket(dst, &m.Packet)
}

func (m *PacketOut) decodeBody(src []byte) error {
	r := &reader{src: src}
	m.Actions = decodeActions(r)
	m.Packet = decodePacket(r)
	return r.done()
}

// FlowMod installs, modifies, or removes a flow rule.
type FlowMod struct {
	Command     FlowModCommand
	Match       Match
	Priority    uint16
	IdleTimeout time.Duration
	HardTimeout time.Duration
	Actions     []Action
	// Span propagates the originating escalation's trace back to the
	// edge (not encoded; see PacketIn.Span).
	Span telemetry.SpanContext
}

// MsgType implements Message.
func (*FlowMod) MsgType() MsgType { return TypeFlowMod }

func (m *FlowMod) encodeBody(dst []byte) []byte {
	dst = append(dst, uint8(m.Command))
	dst = m.Match.encode(dst)
	dst = putU16(dst, m.Priority)
	dst = putU64(dst, uint64(m.IdleTimeout))
	dst = putU64(dst, uint64(m.HardTimeout))
	return encodeActions(dst, m.Actions)
}

func (m *FlowMod) decodeBody(src []byte) error {
	r := &reader{src: src}
	m.Command = FlowModCommand(r.u8())
	m.Match = decodeMatch(r)
	m.Priority = r.u16()
	m.IdleTimeout = time.Duration(r.u64())
	m.HardTimeout = time.Duration(r.u64())
	m.Actions = decodeActions(r)
	return r.done()
}
