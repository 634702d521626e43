// Package edge is a wireproto apply-switch fixture. The test's handler
// table assigns TypePacketIn and TypeFlowMod to the edge; the handler
// switch below lacks FlowMod and the admission table lacks PacketIn,
// so each must be reported: one message would be silently dropped, the
// other refused before its handler.
package edge

import "wpfix/internal/openflow"

type Switch struct{ seen int }

func (s *Switch) admit(from int, m openflow.Message) bool {
	switch m.(type) { // want `admit type switch has no row for \*openflow\.PacketIn`
	case *openflow.FlowMod:
		return from == 0
	}
	return false
}

func (s *Switch) HandleMessage(from int, m openflow.Message) {
	if !s.admit(from, m) {
		return
	}
	switch m.(type) { // want `no case for \*openflow\.FlowMod`
	case *openflow.Mystery:
		s.seen++
	case *openflow.PacketIn:
		s.seen++
	}
}
