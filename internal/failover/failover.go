// Package failover holds the two pieces of LazyCtrl's failure handling
// (§III-E) that are the paper's own: the group-wide failure-detection
// wheel (a logical ring ordered by management MAC with the controller
// at the center), and Table I, which maps the keep-alive streams that
// went silent around a switch to a failure diagnosis. The controller
// keeps the evidence against each switch in its per-switch record.
package failover

import (
	"sort"

	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

// BuildWheel orders the switches of a group by the MAC address of their
// management interface (§III-D1), forming the failure-detection ring.
func BuildWheel(switches []model.SwitchID) []model.SwitchID {
	wheel := append([]model.SwitchID(nil), switches...)
	sort.Slice(wheel, func(i, j int) bool {
		return model.SwitchMAC(wheel[i]).Uint64() < model.SwitchMAC(wheel[j]).Uint64()
	})
	return wheel
}

// Neighbors returns the ring predecessor and successor of s on the
// wheel. A wheel of one yields s itself; an absent switch yields zero
// values.
func Neighbors(wheel []model.SwitchID, s model.SwitchID) (prev, next model.SwitchID) {
	for i, w := range wheel {
		if w == s {
			prev = wheel[(i-1+len(wheel))%len(wheel)]
			next = wheel[(i+1)%len(wheel)]
			return prev, next
		}
	}
	return model.NoSwitch, model.NoSwitch
}

// Diagnosis is the inferred failure per Table I.
type Diagnosis uint8

// Diagnoses.
const (
	DiagNone Diagnosis = iota
	// DiagControlLink: only the controller→switch keep-alive is lost.
	DiagControlLink
	// DiagPeerLinkUp: only the Sn→Sn−1 keep-alive is lost.
	DiagPeerLinkUp
	// DiagPeerLinkDown: only the Sn→Sn+1 keep-alive is lost.
	DiagPeerLinkDown
	// DiagSwitch: all three keep-alive streams are lost — the switch
	// itself is down.
	DiagSwitch
	// DiagInconclusive: a loss combination outside Table I (e.g. two of
	// three): keep observing.
	DiagInconclusive
)

// String names the diagnosis.
func (d Diagnosis) String() string {
	switch d {
	case DiagNone:
		return "none"
	case DiagControlLink:
		return "control-link"
	case DiagPeerLinkUp:
		return "peer-link-up"
	case DiagPeerLinkDown:
		return "peer-link-down"
	case DiagSwitch:
		return "switch"
	default:
		return "inconclusive"
	}
}

// Evidence aggregates which keep-alive streams from/for a suspect
// switch went silent.
type Evidence struct {
	// LossUp: Sn→Sn−1 missing (reported by the ring predecessor).
	LossUp bool
	// LossDown: Sn→Sn+1 missing (reported by the ring successor).
	LossDown bool
	// LossCtrl: controller→Sn missing (unacknowledged).
	LossCtrl bool
}

// Add marks the stream a loss direction names as silent.
func (e *Evidence) Add(d openflow.LossDirection) {
	switch d {
	case openflow.LossUp:
		e.LossUp = true
	case openflow.LossDown:
		e.LossDown = true
	case openflow.LossCtrl:
		e.LossCtrl = true
	}
}

// Infer applies Table I.
func Infer(e Evidence) Diagnosis {
	switch {
	case e.LossUp && e.LossDown && e.LossCtrl:
		return DiagSwitch
	case e.LossCtrl && !e.LossUp && !e.LossDown:
		return DiagControlLink
	case e.LossUp && !e.LossDown && !e.LossCtrl:
		return DiagPeerLinkUp
	case e.LossDown && !e.LossUp && !e.LossCtrl:
		return DiagPeerLinkDown
	case !e.LossUp && !e.LossDown && !e.LossCtrl:
		return DiagNone
	default:
		return DiagInconclusive
	}
}
