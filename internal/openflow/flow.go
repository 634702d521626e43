package openflow

import (
	"fmt"

	"lazyctrl/internal/model"
)

// Wildcard flags select which Match fields are ignored.
type Wildcard uint32

// Wildcard bits.
const (
	WildcardSrcMAC Wildcard = 1 << iota
	WildcardDstMAC
	WildcardVLAN
	WildcardEther
	WildcardSrcIP
	WildcardDstIP

	// WildcardAll ignores every field (matches everything).
	WildcardAll = WildcardSrcMAC | WildcardDstMAC | WildcardVLAN |
		WildcardEther | WildcardSrcIP | WildcardDstIP
)

// Match is an OpenFlow v1.0-style flow match over the fields the
// LazyCtrl datapath inspects.
type Match struct {
	Wildcards Wildcard
	SrcMAC    model.MAC
	DstMAC    model.MAC
	VLAN      model.VLAN
	Ether     model.EtherType
	SrcIP     model.IP
	DstIP     model.IP
}

// ExactDst returns a match on (dstMAC, vlan) with everything else
// wildcarded — the shape of LazyCtrl's inter-group forwarding rules.
func ExactDst(dst model.MAC, vlan model.VLAN) Match {
	return Match{
		Wildcards: WildcardAll &^ (WildcardDstMAC | WildcardVLAN),
		DstMAC:    dst,
		VLAN:      vlan,
	}
}

func (m Match) encode(dst []byte) []byte {
	dst = putU32(dst, uint32(m.Wildcards))
	dst = append(dst, m.SrcMAC[:]...)
	dst = append(dst, m.DstMAC[:]...)
	dst = putU16(dst, uint16(m.VLAN))
	dst = putU16(dst, uint16(m.Ether))
	dst = putU32(dst, uint32(m.SrcIP))
	dst = putU32(dst, uint32(m.DstIP))
	return dst
}

func decodeMatch(r *reader) Match {
	var m Match
	m.Wildcards = Wildcard(r.u32())
	m.SrcMAC = r.mac()
	m.DstMAC = r.mac()
	m.VLAN = model.VLAN(r.u16())
	m.Ether = model.EtherType(r.u16())
	m.SrcIP = model.IP(r.u32())
	m.DstIP = model.IP(r.u32())
	return m
}

// ActionType tags a flow action.
type ActionType uint8

// Action types. ActionTypeEncap is the LazyCtrl extension to OpenFlow
// v1.0 (§IV-B): encapsulate and forward over the underlay to a remote
// edge switch.
const (
	ActionTypeOutput ActionType = iota + 1
	ActionTypeFlood
	ActionTypeDrop
	ActionTypeController
	ActionTypeEncap
)

// Action is a flow-table action.
type Action struct {
	Type ActionType
	// Port is the output port for ActionTypeOutput.
	Port uint16
	// Remote is the target edge switch for ActionTypeEncap.
	Remote model.SwitchID
}

// Encap returns the LazyCtrl encapsulation action targeting a remote
// edge switch.
func Encap(remote model.SwitchID) Action { return Action{Type: ActionTypeEncap, Remote: remote} }

// Flood returns a flood action.
func Flood() Action { return Action{Type: ActionTypeFlood} }

// String renders the action.
func (a Action) String() string {
	switch a.Type {
	case ActionTypeOutput:
		return fmt.Sprintf("output:%d", a.Port)
	case ActionTypeFlood:
		return "flood"
	case ActionTypeDrop:
		return "drop"
	case ActionTypeController:
		return "controller"
	case ActionTypeEncap:
		return "encap:" + a.Remote.String()
	default:
		return fmt.Sprintf("action(%d)", a.Type)
	}
}

func (a Action) encode(dst []byte) []byte {
	dst = append(dst, uint8(a.Type))
	dst = putU16(dst, a.Port)
	dst = putU32(dst, uint32(a.Remote))
	return dst
}

func decodeAction(r *reader) Action {
	var a Action
	a.Type = ActionType(r.u8())
	a.Port = r.u16()
	a.Remote = model.SwitchID(r.u32())
	return a
}

func encodeActions(dst []byte, actions []Action) []byte {
	dst = putU16(dst, uint16(len(actions)))
	for _, a := range actions {
		dst = a.encode(dst)
	}
	return dst
}

func decodeActions(r *reader) []Action {
	n := int(r.u16())
	// Each action is exactly 7 bytes (type u8 + port u16 + remote u32),
	// so the count cannot exceed remain()/7; the divide form cannot
	// overflow. The earlier `n > r.remain()` sanity bound let a crafted
	// count over-allocate by up to 7x before the per-field reads failed.
	if n == 0 || n > r.remain()/7 {
		if n != 0 {
			r.fail()
		}
		return nil
	}
	actions := make([]Action, 0, n)
	for i := 0; i < n; i++ {
		actions = append(actions, decodeAction(r))
	}
	return actions
}

// FlowModCommand selects the FlowMod operation.
type FlowModCommand uint8

// FlowMod commands.
const (
	FlowAdd FlowModCommand = iota + 1
	FlowModify
	FlowDelete
)
