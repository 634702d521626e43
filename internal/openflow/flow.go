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

func match(w wire, m *Match) wire {
	w = u32(w, &m.Wildcards)
	w = mac(w, &m.SrcMAC)
	w = mac(w, &m.DstMAC)
	w = u16(w, &m.VLAN)
	w = u16(w, &m.Ether)
	w = u32(w, &m.SrcIP)
	return u32(w, &m.DstIP)
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

// actions moves an action list: a u16 count, then 7 bytes per action
// (type u8 + port u16 + remote u32).
func actions(w wire, s *[]Action) wire {
	return list(w, s, countU16, 7, func(w wire, a *Action) wire {
		w = u8(w, &a.Type)
		w = u16(w, &a.Port)
		return u32(w, &a.Remote)
	})
}

// FlowModCommand selects the FlowMod operation.
type FlowModCommand uint8

// FlowMod commands.
const (
	FlowAdd FlowModCommand = iota + 1
	FlowModify
	FlowDelete
)
