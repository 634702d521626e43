package openflow

import "fmt"

// Batch coalesces several control messages to one destination into a
// single OpenFlow message, so a regroup round encodes and ships at most
// one message per switch instead of one per change (group config, G-FIB
// preloads). Only edges receive batches. Receivers apply the contained
// messages in order, which preserves the exact semantics of the
// unbatched stream — e.g. a GroupConfig that resets G-FIB state is
// applied before the G-FIB preloads that repopulate it.
//
// Wire format of the body:
//
//	uvarint generation, u32 count, then per message: u8 type,
//	u32 body length, body bytes
//
// Batches do not nest: a batch inside a batch fails to decode. That
// bounds decoder recursion and keeps "one message per destination per
// round" meaningful.
type Batch struct {
	// Generation fences the whole batch at once: a receiver whose
	// highest-seen cluster generation exceeds it rejects the batch
	// before applying any contained message (no partial apply). 0 =
	// unfenced.
	Generation uint64
	Msgs       []Message
}

// MsgType implements Message.
func (*Batch) MsgType() MsgType { return TypeBatch }

func (m *Batch) encodeBody(dst []byte) []byte {
	dst = putUvarint(dst, m.Generation)
	dst = putU32(dst, uint32(len(m.Msgs)))
	for _, sub := range m.Msgs {
		dst = append(dst, uint8(sub.MsgType()))
		// Reserve the length word, encode, then backfill.
		lenAt := len(dst)
		dst = putU32(dst, 0)
		dst = sub.encodeBody(dst)
		body := len(dst) - lenAt - 4
		dst[lenAt] = byte(body >> 24)
		dst[lenAt+1] = byte(body >> 16)
		dst[lenAt+2] = byte(body >> 8)
		dst[lenAt+3] = byte(body)
	}
	return dst
}

func (m *Batch) decodeBody(src []byte) error {
	r := &reader{src: src}
	m.Generation = r.uvarint()
	n := int(r.u32())
	if n*5 > r.remain() { // each sub-message costs at least type+length
		r.fail()
		return ErrTruncated
	}
	if n > 0 {
		m.Msgs = make([]Message, 0, n)
	}
	for i := 0; i < n; i++ {
		t := MsgType(r.u8())
		body := r.bytes(int(r.u32()))
		if r.err != nil {
			return r.err
		}
		if t == TypeBatch {
			return fmt.Errorf("openflow: nested batch")
		}
		sub, err := newMessage(t)
		if err != nil {
			return err
		}
		if err := sub.decodeBody(body); err != nil {
			return fmt.Errorf("openflow: batch item %d (%v): %w", i, t, err)
		}
		m.Msgs = append(m.Msgs, sub)
	}
	return r.done()
}
