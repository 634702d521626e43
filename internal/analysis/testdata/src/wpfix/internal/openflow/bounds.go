package openflow

// reader mimics the production codec's primitive reader; the bounds
// analyzer keys on the method names.
type reader struct {
	src []byte
	off int
}

func (r *reader) remain() int { return len(r.src) - r.off }

func (r *reader) uvarint() uint64 {
	if r.off >= len(r.src) {
		return 0
	}
	v := uint64(r.src[r.off])
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.remain() < 2 {
		return 0
	}
	v := uint16(r.src[r.off])<<8 | uint16(r.src[r.off+1])
	r.off += 2
	return v
}

func decodeUnbounded(r *reader) []uint32 {
	n := int(r.uvarint())
	return make([]uint32, 0, n) // want `no prior bounds check`
}

// decodeZeroGuardOnly: `n > 0` is not an upper bound — a crafted
// count still reaches the allocator.
func decodeZeroGuardOnly(r *reader) []uint32 {
	n := int(r.uvarint())
	if n > 0 {
		return make([]uint32, n) // want `no prior bounds check`
	}
	return nil
}

func decodeGuarded(r *reader) []uint32 {
	n := int(r.uvarint())
	if n < 0 || n > r.remain()/4 {
		return nil
	}
	return make([]uint32, 0, n)
}

func decodeGuardedMul(r *reader) []byte {
	n := int(r.u16())
	if n*3 > r.remain() {
		return nil
	}
	return make([]byte, n)
}

// wire mimics the production codec's by-value state, whose primitives
// fill a field through its address; the analyzer keys on the primitive
// names and on the variable whose address they fill.
type wire struct {
	buf []byte
}

func u32[T ~uint32 | ~int](w wire, v *T) wire {
	if len(w.buf) < 4 {
		return w
	}
	*v = T(uint32(w.buf[0])<<24 | uint32(w.buf[1])<<16 | uint32(w.buf[2])<<8 | uint32(w.buf[3]))
	w.buf = w.buf[4:]
	return w
}

func count(w wire, n *int) wire { return u32(w, n) }

// listUnguarded: a count filled through &n reaches make unbounded.
func listUnguarded[T any](w wire, s *[]T) wire {
	n := 0
	w = count(w, &n)
	*s = make([]T, n) // want `no prior bounds check`
	return w
}

func listGuarded[T any](w wire, s *[]T, min int) wire {
	n := 0
	w = u32(w, &n)
	if n < 0 || n > len(w.buf)/min {
		return w
	}
	*s = make([]T, n)
	return w
}

// exercise keeps the decoders referenced.
func exercise(r *reader) int {
	var a, b []uint32
	w := wire{buf: r.src}
	w = listGuarded(listUnguarded(w, &a), &b, 4)
	return len(decodeUnbounded(r)) + len(decodeZeroGuardOnly(r)) +
		len(decodeGuarded(r)) + len(decodeGuardedMul(r)) + len(a) + len(b) + len(w.buf)
}

// Exercise keeps exercise referenced.
func Exercise(r *reader) int { return exercise(r) }
