// Package model defines the shared vocabulary of the LazyCtrl system:
// addresses, identifiers, packets, and flow keys used by the data plane,
// the control plane, and the trace machinery.
package model

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"time"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String renders the address in the usual colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Uint64 packs the address into the low 48 bits of a uint64.
func (m MAC) Uint64() uint64 {
	var b [8]byte
	copy(b[2:], m[:])
	return binary.BigEndian.Uint64(b[:])
}

// BroadcastMAC is the Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// IP is a 32-bit IPv4 address. The simulated data center is IPv4-only,
// matching the paper's prototype.
type IP uint32

// String renders the address in dotted-quad form.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// VLAN is an 802.1Q VLAN identifier (12 bits). LazyCtrl uses VLAN IDs to
// identify tenants.
type VLAN uint16

// SwitchID identifies an edge switch.
type SwitchID uint32

// String renders the ID as "S<n>"; the reserved controller replica
// addresses and the nil address render by name.
func (s SwitchID) String() string {
	switch s {
	case NoSwitch:
		return "none"
	case ControllerNode:
		return "ctrl"
	case StandbyNode:
		return "standby"
	}
	return "S" + strconv.FormatUint(uint64(s), 10)
}

// NoSwitch is the zero SwitchID, meaning "no switch".
const NoSwitch SwitchID = 0

// HostID identifies a host (virtual machine).
type HostID uint32

// String renders the ID as "H<n>".
func (h HostID) String() string { return "H" + strconv.FormatUint(uint64(h), 10) }

// TenantID identifies a tenant.
type TenantID uint32

// String renders the ID as "T<n>".
func (t TenantID) String() string { return "T" + strconv.FormatUint(uint64(t), 10) }

// GroupID identifies a local control group (LCG).
type GroupID uint32

// String renders the ID as "G<n>".
func (g GroupID) String() string { return "G" + strconv.FormatUint(uint64(g), 10) }

// NoGroup is the zero GroupID, meaning "not assigned to any group".
const NoGroup GroupID = 0

// ControllerNode is the reserved node address of the central controller
// on the underlay.
const ControllerNode SwitchID = 0xffffffff

// StandbyNode is the reserved node address of the hot-standby
// controller replica. The underlay treats traffic to either replica
// address as control-link traffic; which replica currently holds the
// master role is decided by the cluster generation protocol
// (docs/robustness.md §Failover).
const StandbyNode SwitchID = 0xfffffffe

// IsControllerAddr reports whether id is one of the reserved controller
// replica addresses.
func IsControllerAddr(id SwitchID) bool {
	return id == ControllerNode || id == StandbyNode
}

// HostMAC derives the deterministic MAC address of a host. Hosts get
// locally administered addresses (0x02 prefix).
func HostMAC(h HostID) MAC {
	var m MAC
	m[0] = 0x02
	m[1] = 0x1c
	binary.BigEndian.PutUint32(m[2:], uint32(h))
	return m
}

// MACHost inverts HostMAC, which is a bijection between the low 32 bits
// of a host ID and the addresses under the host prefix. The second
// return is false for an address that is not a host address.
func MACHost(m MAC) (HostID, bool) {
	if m[0] != 0x02 || m[1] != 0x1c {
		return 0, false
	}
	return HostID(binary.BigEndian.Uint32(m[2:])), true
}

// HostIP derives the deterministic IPv4 address of a host inside the
// 10.0.0.0/8 virtual network.
func HostIP(h HostID) IP {
	return IP(10<<24 | (uint32(h) & 0x00ffffff))
}

// SwitchMAC derives the management-interface MAC of an edge switch. The
// controller orders switches on the failure-detection wheel by this
// address.
func SwitchMAC(s SwitchID) MAC {
	var m MAC
	m[0] = 0x02
	m[1] = 0x5c
	binary.BigEndian.PutUint32(m[2:], uint32(s))
	return m
}

// EtherType distinguishes payload kinds inside the simulated Ethernet
// frame.
type EtherType uint16

// EtherTypes used by the simulation.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeARP  EtherType = 0x0806
)

// ARPOp is an ARP operation code.
type ARPOp uint8

// ARP operations. Values follow RFC 826.
const (
	ARPRequest ARPOp = 1
	ARPReply   ARPOp = 2
)

// Packet is a simulated data-plane packet: the subset of Ethernet/IP
// header fields the LazyCtrl datapath inspects, plus bookkeeping used by
// the simulator (ingress time for latency accounting and an optional
// encapsulation header).
type Packet struct {
	SrcMAC MAC
	DstMAC MAC
	SrcIP  IP
	DstIP  IP
	VLAN   VLAN
	Ether  EtherType

	// ARP fields, meaningful when Ether == EtherTypeARP.
	ARPOp     ARPOp
	ARPTarget IP

	// Bytes is the frame size used for byte counters.
	Bytes int

	// Encap carries the GRE-like outer header when the packet traverses
	// the overlay between edge switches. Nil for plain packets.
	Encap *EncapHeader

	// FlowSeq marks which packet of its flow this is (0 = first packet,
	// the "cold cache" packet).
	FlowSeq int

	// Injected is the simulation time the packet entered the network at
	// its source host; forwarding latency is measured against it. It is
	// carried on the wire so the live runtime preserves it too.
	Injected time.Duration
}

// Encapsulated reports whether the packet carries an overlay outer
// header.
func (p *Packet) Encapsulated() bool { return p.Encap != nil }

// EncapHeader is the GRE-like outer header added by the Encap action: it
// targets a remote edge switch over the IP underlay.
type EncapHeader struct {
	SrcSwitch SwitchID
	DstSwitch SwitchID
}

// EncapOverheadBytes is the size of the outer header added by the Encap
// action (outer Ethernet + IP + GRE, as in the prototype's GRE-like
// encapsulation).
const EncapOverheadBytes = 42

// FlowKey identifies a flow by its endpoints. The paper defines traffic
// intensity in terms of new flows between (src, dst) host pairs.
type FlowKey struct {
	Src HostID
	Dst HostID
}

// String renders the flow key as "H<a>->H<b>".
func (k FlowKey) String() string { return k.Src.String() + "->" + k.Dst.String() }

// Canonical returns the key with endpoints ordered so that (a,b) and
// (b,a) map to the same value. Used for undirected pair statistics.
func (k FlowKey) Canonical() FlowKey {
	if k.Src > k.Dst {
		return FlowKey{Src: k.Dst, Dst: k.Src}
	}
	return k
}

// SwitchPair identifies an unordered pair of edge switches.
type SwitchPair struct {
	A, B SwitchID
}

// MakeSwitchPair returns the canonical (ordered) pair for two switches.
func MakeSwitchPair(a, b SwitchID) SwitchPair {
	if a > b {
		a, b = b, a
	}
	return SwitchPair{A: a, B: b}
}
