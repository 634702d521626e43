package openflow

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"lazyctrl/internal/model"
)

// wire is the codec state a message's layout runs through. Each layout
// states its fields once, in wire order, as calls to the primitives
// below, and the same calls encode or decode depending on the wire's
// direction: an encode appends the fields to buf, a decode reads them
// off the front of buf. Only the primitives, and the few places where
// the encoder chooses or frames the layout, look at the direction.
//
// A wire is passed by value and handed back. At four words (a slice
// and a pointer) the compiler keeps it in registers, and it stays on
// the stack through the Message interface call, so Encode allocates
// only its frame. Keep it at four words: a larger struct is not kept
// in registers, every primitive's copy then goes through memory, and a
// PacketIn decode measured seven times slower with two more fields.
type wire struct {
	// buf is the frame so far on encode and the bytes not yet read on
	// decode.
	buf []byte
	// err is nil on encode. A decode points it at its first failure,
	// or at noFailure until there is one.
	err *error
}

var noFailure error

// reading returns a wire that decodes body.
func reading(body []byte) wire { return wire{buf: body, err: &noFailure} }

func (w wire) dec() bool { return w.err != nil }

func (w wire) failed() bool { return w.err != nil && *w.err != nil }

// fail ends a decode at its first failure: the unread bytes are
// dropped, so every later read fails too.
func (w wire) fail(err error) wire {
	if *w.err == nil {
		w.err = &err
	}
	w.buf = nil
	return w
}

// done is a finished decode's result: the first failure, or an error
// for bytes the layout left unread.
func (w wire) done() error {
	if *w.err == nil && len(w.buf) != 0 {
		return fmt.Errorf("openflow: %d trailing bytes", len(w.buf))
	}
	return *w.err
}

// --- primitives: integers are big-endian ---

func u8[T ~uint8](w wire, v *T) wire {
	if !w.dec() {
		w.buf = append(w.buf, uint8(*v))
		return w
	}
	if len(w.buf) < 1 {
		return w.fail(ErrTruncated)
	}
	*v = T(w.buf[0])
	w.buf = w.buf[1:]
	return w
}

func u16[T ~uint16 | ~uint32 | ~int](w wire, v *T) wire {
	if !w.dec() {
		w.buf = binary.BigEndian.AppendUint16(w.buf, uint16(*v))
		return w
	}
	if len(w.buf) < 2 {
		return w.fail(ErrTruncated)
	}
	*v = T(binary.BigEndian.Uint16(w.buf))
	w.buf = w.buf[2:]
	return w
}

func u32[T ~uint32 | ~int](w wire, v *T) wire {
	if !w.dec() {
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(*v))
		return w
	}
	if len(w.buf) < 4 {
		return w.fail(ErrTruncated)
	}
	*v = T(binary.BigEndian.Uint32(w.buf))
	w.buf = w.buf[4:]
	return w
}

func u64[T ~uint64 | ~int64](w wire, v *T) wire {
	if !w.dec() {
		w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(*v))
		return w
	}
	if len(w.buf) < 8 {
		return w.fail(ErrTruncated)
	}
	*v = T(binary.BigEndian.Uint64(w.buf))
	w.buf = w.buf[8:]
	return w
}

// uvarint moves v LEB128-encoded (7 bits per byte, high bit =
// continuation): the mostly-zero and mostly-small fields of the delta
// path cost one byte instead of four. A decode takes at most 10 bytes,
// and the 10th may carry only bit 0: anything more would shift bits
// past 63 and wrap a crafted overlong encoding into a small bogus
// value, so it fails instead (binary.Uvarint's rule).
func uvarint[T ~uint64 | ~int](w wire, v *T) wire {
	if !w.dec() {
		w.buf = binary.AppendUvarint(w.buf, uint64(*v))
		return w
	}
	x, n := binary.Uvarint(w.buf)
	if n <= 0 {
		return w.fail(ErrTruncated)
	}
	*v = T(x)
	w.buf = w.buf[n:]
	return w
}

// flag moves a bool as one byte: 1 is true, anything else false.
func flag(w wire, v *bool) wire {
	var b uint8
	if *v {
		b = 1
	}
	w = u8(w, &b)
	if w.dec() {
		*v = b == 1
	}
	return w
}

func mac(w wire, m *model.MAC) wire {
	if !w.dec() {
		w.buf = append(w.buf, m[:]...)
		return w
	}
	if len(w.buf) < len(m) {
		return w.fail(ErrTruncated)
	}
	w.buf = w.buf[copy(m[:], w.buf):]
	return w
}

// blob moves a byte string: its u32 length, then the bytes, which a
// decode copies out of the frame.
func blob(w wire, v *[]byte) wire {
	n := len(*v)
	w = u32(w, &n)
	if !w.dec() {
		w.buf = append(w.buf, *v...)
		return w
	}
	if n < 0 || n > len(w.buf) {
		return w.fail(ErrTruncated)
	}
	*v = bytes.Clone(w.buf[:n])
	w.buf = w.buf[n:]
	return w
}

// countForm is the wire form of a list's length or a body's size.
type countForm uint8

const (
	countU16 countForm = iota
	countU32
	countVarint
)

// count moves a length in the given form.
func count(w wire, form countForm, n *int) wire {
	switch form {
	case countU16:
		return u16(w, n)
	case countU32:
		return u32(w, n)
	}
	return uvarint(w, n)
}

// list moves a slice: its length in the given form, then each element
// through item. It is the only place a decoded count sizes an
// allocation, and only after the count is checked against the bytes
// left, at min bytes per element. The check divides: a varint count
// near 2⁶⁴ would wrap a product past it into a makeslice panic. An
// empty list decodes as nil.
func list[T any](w wire, s *[]T, form countForm, min int, item func(wire, *T) wire) wire {
	n := len(*s)
	w = count(w, form, &n)
	if w.dec() {
		if w.failed() || n < 0 || n > len(w.buf)/min {
			return w.fail(ErrTruncated)
		}
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := 0; i < len(*s) && !w.failed(); i++ {
		w = item(w, &(*s)[i])
	}
	return w
}

// framed moves a body that carries its own size: the size in the given
// form, then the bytes layout moves. The encoder knows the size only
// after the body, so it writes the size behind the body and rotates it
// to the front; the decoder runs layout over exactly that many bytes.
func framed(w wire, form countForm, layout func(wire) wire) wire {
	if !w.dec() {
		at := len(w.buf)
		w = layout(w)
		n := len(w.buf) - at
		w = count(w, form, &n)
		var size [binary.MaxVarintLen64]byte
		k := copy(size[:], w.buf[at+n:])
		copy(w.buf[at+k:], w.buf[at:at+n])
		copy(w.buf[at:], size[:k])
		return w
	}
	n := 0
	w = count(w, form, &n)
	if w.failed() || n < 0 || n > len(w.buf) {
		return w.fail(ErrTruncated)
	}
	if err := layout(reading(w.buf[:n])).done(); err != nil {
		return w.fail(err)
	}
	w.buf = w.buf[n:]
	return w
}
