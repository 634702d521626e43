package openflow

import (
	"errors"
	"fmt"
)

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

func (m *Batch) layout(w wire) wire {
	w = uvarint(w, &m.Generation)
	i := 0 // the item's index, which a decode error names
	// An item costs at least its type byte and length word.
	return list(w, &m.Msgs, countU32, 5, func(w wire, sub *Message) wire {
		var t MsgType
		if !w.dec() {
			t = (*sub).MsgType()
		}
		if w = u8(w, &t); w.failed() {
			return w
		}
		if w.dec() {
			var err error
			if t == TypeBatch {
				err = errors.New("openflow: nested batch")
			} else {
				*sub, err = newMessage(t)
			}
			if err != nil {
				return w.fail(err)
			}
		}
		if w = framed(w, countU32, (*sub).layout); w.failed() {
			err := fmt.Errorf("openflow: batch item %d (%v): %w", i, t, *w.err)
			w.err = &err
		}
		i++
		return w
	})
}
