package edge

import (
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
)

// admit is the switch's admission table: one row per message type it
// receives, saying who may send it and which identity fields must name
// the sender. HandleMessage runs it before dispatch, so no handler is
// reached by a message whose sender had no standing to send it, and
// the rows of generation-stamped messages run the fence (fenced). The
// handlers keep only per-item scope filters: legitimate traffic crosses
// regroups in flight, so membership is judged item by item there (see
// docs/robustness.md, "Admission").
func (s *Switch) admit(from model.SwitchID, msg netsim.Message) bool {
	ctrl := model.IsControllerAddr(from)
	switch m := msg.(type) {
	case *model.Packet:
		return true // data plane
	case *openflow.FlowMod, *openflow.PacketOut:
		return ctrl
	case *openflow.GroupConfig:
		// The designated switch re-sends a member its own view
		// (resyncMember), which names it designated.
		return (ctrl || from == m.Designated) && !s.fenced(m.Generation, from)
	case *openflow.GFIBUpdate:
		return !s.fenced(m.Generation, from)
	case *openflow.GFIBDelta:
		return !s.fenced(m.Generation, from)
	case *openflow.StateReport:
		// A member speaks only for itself: its own L-FIB legs and the
		// pairs it decapsulated.
		for i := range m.LFIBs {
			if m.LFIBs[i].Origin != from {
				return false
			}
		}
		for i := range m.Pairs {
			if m.Pairs[i].A != from {
				return false
			}
		}
		return true
	case *openflow.GFIBNack:
		return m.Origin == from && s.isMember(from)
	case *openflow.RoleAnnounce:
		return ctrl && m.From == from
	case *openflow.ARPRelay:
		return ctrl || from == s.group.Designated
	case *openflow.KeepAlive:
		return m.From == from && !s.fenced(m.Generation, from)
	case *openflow.Batch:
		// Its parts are admitted again as HandleMessage recurses.
		return (ctrl || from == s.group.Designated) && !s.fenced(m.Generation, from)
	}
	return false
}
