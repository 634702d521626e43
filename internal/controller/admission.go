package controller

import (
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
)

// admit is the controller's admission table: one row per message type
// it receives, saying who may send it and which identity fields must
// name the sender. HandleMessage runs it before dispatch, so no handler
// is reached by a message whose sender had no standing to send it; a
// switch is one in Config.Switches, which is also what bounds every
// per-switch table. The journal row runs the generation fence. The
// handlers keep only per-item scope filters: a report's legs and pairs,
// a NACK's peers and a sync record's items are judged item by item (see
// docs/robustness.md, "Admission").
func (c *Controller) admit(from model.SwitchID, msg netsim.Message) bool {
	sw := c.sw[from] != nil
	peer := c.cfg.Peer != 0 && from == c.cfg.Peer
	switch m := msg.(type) {
	case *openflow.PacketIn:
		return sw && m.Switch == from
	case *openflow.PacketInBurst:
		return sw && m.Switch == from
	case *openflow.GFIBNack:
		return sw && m.Origin == from
	case *openflow.LFIBUpdate:
		return sw && m.Origin == from
	case *openflow.StateReport:
		return sw
	case *openflow.FailureReport:
		return sw && m.Observer == from && c.sw[m.Suspect] != nil
	case *openflow.KeepAlive:
		return (sw || peer) && m.From == from
	case *openflow.RoleAnnounce:
		// A switch's corrective announce names its master, not itself.
		return (sw || peer) && model.IsControllerAddr(m.From)
	case *openflow.StateSyncRecord:
		// Records fenced behind this replica's generation are rejected
		// outright: a partitioned-then-healed stale primary cannot roll
		// the standby back.
		if peer && m.Generation < c.generation {
			c.stats.StaleSyncRejected++
			return false
		}
		return peer
	case *openflow.ConfigAck:
		return sw && m.From == from
	}
	return false
}
