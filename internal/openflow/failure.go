package openflow

import "lazyctrl/internal/model"

// LossDirection identifies which keep-alive stream went silent, in the
// terms of Table I of the paper.
type LossDirection uint8

// Loss directions observed by wheel neighbors and switches.
const (
	// LossUp: the keep-alive Sn → Sn−1 was not received (observed by
	// Sn−1).
	LossUp LossDirection = iota + 1
	// LossDown: the keep-alive Sn → Sn+1 was not received (observed by
	// Sn+1).
	LossDown
	// LossCtrl: the keep-alive Controller → Sn was not received
	// (observed and reported by Sn via an alternate path, or inferred by
	// the controller from a missing acknowledgment).
	LossCtrl
)

// String names the direction.
func (d LossDirection) String() string {
	switch d {
	case LossUp:
		return "up"
	case LossDown:
		return "down"
	case LossCtrl:
		return "ctrl"
	default:
		return "unknown"
	}
}

// FailureReport notifies the controller that an observer missed
// keep-alives from a suspect switch (§III-E1).
type FailureReport struct {
	Observer  model.SwitchID
	Suspect   model.SwitchID
	Direction LossDirection
	// MissedSeq is the first keep-alive sequence number that went
	// missing.
	MissedSeq uint64
}

// MsgType implements Message.
func (*FailureReport) MsgType() MsgType { return TypeFailureReport }

func (m *FailureReport) layout(w wire) wire {
	w = u32(w, &m.Observer)
	w = u32(w, &m.Suspect)
	w = u8(w, &m.Direction)
	return u64(w, &m.MissedSeq)
}

// ConfigAck acknowledges a GroupConfig push — the barrier-reply of the
// supervised push path. The controller retries an unacknowledged config
// with exponential backoff, so a push lost outside the keep-alive
// heuristics no longer strands the destination until the next regroup.
type ConfigAck struct {
	// From is the acknowledging switch.
	From model.SwitchID
	// Version echoes the grouping version of the adopted GroupConfig.
	Version uint64
}

// MsgType implements Message.
func (*ConfigAck) MsgType() MsgType { return TypeConfigAck }

func (m *ConfigAck) layout(w wire) wire {
	w = u32(w, &m.From)
	return u64(w, &m.Version)
}
