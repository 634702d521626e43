// Package edge is a wireproto apply-switch fixture. The test's handler
// table assigns TypePacketIn and TypeFlowMod to the edge; the switch
// below only handles Mystery and PacketIn, so FlowMod must be reported
// as silently dropped.
package edge

import "wpfix/internal/openflow"

type Switch struct{ seen int }

func (s *Switch) HandleMessage(m openflow.Message) {
	switch m.(type) { // want `no case for \*openflow\.FlowMod`
	case *openflow.Mystery:
		s.seen++
	case *openflow.PacketIn:
		s.seen++
	}
}
