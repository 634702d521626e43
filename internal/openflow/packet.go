package openflow

import "lazyctrl/internal/model"

// packet moves a packet: a fixed-size header, then a flag byte and,
// when it is 1, the encap trailer.
//
//	srcMAC(6) dstMAC(6) srcIP(4) dstIP(4) vlan(2) ether(2)
//	arpOp(1) arpTarget(4) bytes(4) flowSeq(4) injected(8) encapFlag(1)
//	[srcSwitch(4) dstSwitch(4)]
func packet(w wire, p *model.Packet) wire {
	w = mac(w, &p.SrcMAC)
	w = mac(w, &p.DstMAC)
	w = u32(w, &p.SrcIP)
	w = u32(w, &p.DstIP)
	w = u16(w, &p.VLAN)
	w = u16(w, &p.Ether)
	w = u8(w, &p.ARPOp)
	w = u32(w, &p.ARPTarget)
	w = u32(w, &p.Bytes)
	w = u32(w, &p.FlowSeq)
	w = u64(w, &p.Injected)
	encap := p.Encap != nil
	if w = flag(w, &encap); !encap {
		return w
	}
	if w.dec() {
		p.Encap = new(model.EncapHeader)
	}
	w = u32(w, &p.Encap.SrcSwitch)
	return u32(w, &p.Encap.DstSwitch)
}
