// Package controller is a wireproto admission-guard fixture. The
// test's handler table assigns TypePacketIn to the controller, and both
// the handler switch and the admission table carry it, but
// HandleMessage acts before it admits, so its guard must be reported.
package controller

import "wpfix/internal/openflow"

type Controller struct{ seen int }

func (c *Controller) admit(from int, m openflow.Message) bool {
	switch m.(type) {
	case *openflow.PacketIn:
		return from > 0
	}
	return false
}

func (c *Controller) HandleMessage(from int, m openflow.Message) { // want `first statement is not the admission guard`
	c.seen++
	if !c.admit(from, m) {
		return
	}
	switch m.(type) {
	case *openflow.PacketIn:
		c.seen++
	}
}
