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

func (m *PacketIn) layout(w wire) wire {
	w = u32(w, &m.Switch)
	w = u8(w, &m.Reason)
	return packet(w, &m.Packet)
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

func (m *PacketOut) layout(w wire) wire {
	w = actions(w, &m.Actions)
	return packet(w, &m.Packet)
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

func (m *FlowMod) layout(w wire) wire {
	w = u8(w, &m.Command)
	w = match(w, &m.Match)
	w = u16(w, &m.Priority)
	w = u64(w, &m.IdleTimeout)
	w = u64(w, &m.HardTimeout)
	return actions(w, &m.Actions)
}
