package eval

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
)

// frozenWire checks that a sent message is never written again, for
// every node: it records each message object at its first send and
// compares it at every re-send of the same object, at every delivery of
// a control message, and once more after the test's last run, since
// receivers and senders keep what they sent or received. A control
// message is recorded by its openflow.Encode bytes, through the
// underlay's Observer; a data-plane packet, which the Observer skips,
// by its value and outer header, through the Meter. Objects are keyed
// by pointer and kept until the test ends, so an address is never
// reused under the check.
type frozenWire struct {
	ctrl   map[openflow.Message]sent[[]byte]
	pkts   map[*model.Packet]sent[packetImage]
	checks int
	faults []string
}

// sent is a message's first send: its sender, receiver and image.
type sent[I any] struct {
	from, to model.SwitchID
	img      I
}

// packetImage is a data-plane packet as sent: its value without the
// outer header's pointer, and the header.
type packetImage struct {
	pkt model.Packet
	hdr model.EncapHeader
}

func encodeImage(m openflow.Message) []byte {
	enc, err := openflow.Encode(m, 0)
	if err != nil {
		return []byte(err.Error())
	}
	return enc
}

func packetImageOf(p *model.Packet) packetImage {
	img := packetImage{pkt: *p}
	if p.Encap != nil {
		img.pkt.Encap, img.hdr = nil, *p.Encap
	}
	return img
}

// checkFrozen turns the check on for every emulation t runs, and fails t
// on any message read at a delivery, a re-send or the test's end
// differently from its first send.
func checkFrozen(t *testing.T) {
	t.Helper()
	f := &frozenWire{
		ctrl: make(map[openflow.Message]sent[[]byte]),
		pkts: make(map[*model.Packet]sent[packetImage]),
	}
	wireCheck = f.chain
	t.Cleanup(func() {
		wireCheck = nil
		for m, s := range f.ctrl {
			if now := encodeImage(m); !bytes.Equal(now, s.img) {
				f.fault(m, s.from, s.to, "at the end", s.img, now)
			}
		}
		for p, s := range f.pkts {
			if now := packetImageOf(p); now != s.img {
				f.fault(p, s.from, s.to, "at the end", s.img, now)
			}
		}
		if f.checks == 0 {
			t.Error("the frozen-message check compared nothing")
		}
		for i, fault := range f.faults {
			if i == 10 {
				t.Errorf("... and %d more rewritten messages", len(f.faults)-i)
				break
			}
			t.Error(fault)
		}
	})
}

// chain puts the check in front of net's Observer and Meter.
func (f *frozenWire) chain(net *netsim.Network) {
	observer, meter := net.Observer, net.Meter
	net.Observer = func(from, to model.SwitchID, msg netsim.Message, delivered bool) {
		if m, ok := msg.(openflow.Message); ok && reflect.TypeOf(m).Kind() == reflect.Pointer {
			now := encodeImage(m)
			if s, seen := f.ctrl[m]; !seen {
				f.ctrl[m] = sent[[]byte]{from, to, now}
			} else if f.checks++; !bytes.Equal(now, s.img) {
				at := "re-sent"
				if delivered {
					at = "delivered"
				}
				f.fault(m, from, to, at, s.img, now)
			}
		}
		if observer != nil {
			observer(from, to, msg, delivered)
		}
	}
	net.Meter = func(from, to model.SwitchID, msg netsim.Message) {
		if p, ok := msg.(*model.Packet); ok {
			now := packetImageOf(p)
			if s, seen := f.pkts[p]; !seen {
				f.pkts[p] = sent[packetImage]{from, to, now}
			} else if f.checks++; now != s.img {
				f.fault(p, from, to, "re-sent", s.img, now)
			}
		}
		if meter != nil {
			meter(from, to, msg)
		}
	}
}

func (f *frozenWire) fault(obj any, from, to model.SwitchID, at string, first, now any) {
	f.faults = append(f.faults, fmt.Sprintf("%T %v→%v rewritten after its first send, %s:\nfirst %+v\nnow   %+v",
		obj, from, to, at, first, now))
}
