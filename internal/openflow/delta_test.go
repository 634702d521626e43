package openflow

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"lazyctrl/internal/bloom"
	"lazyctrl/internal/model"
)

func TestGFIBDeltaRoundTrip(t *testing.T) {
	m := &GFIBDelta{
		Group: 3,
		Deltas: []GFIBFilterDelta{
			{
				Switch:        7,
				BaseVersion:   41,
				TargetVersion: 44,
				Words: []bloom.WordDelta{
					{Index: 0, Word: 0xdeadbeefcafef00d},
					{Index: 255, Word: 1},
				},
			},
			// A version beacon: base == target, no words.
			{Switch: 9, BaseVersion: 12, TargetVersion: 12},
		},
		Removals: []model.SwitchID{4, 11},
		Version:  5,
	}
	got, ok := roundTrip(t, m, 31).(*GFIBDelta)
	if !ok || !reflect.DeepEqual(got, m) {
		t.Errorf("GFIBDelta round trip = %+v, want %+v", got, m)
	}
}

// TestGFIBDeltaRemovalOnly round-trips a pure tombstone (the message a
// designated switch or the controller broadcasts after a member is
// lost).
func TestGFIBDeltaRemovalOnly(t *testing.T) {
	m := &GFIBDelta{Group: 8, Removals: []model.SwitchID{42}, Version: 3}
	got, ok := roundTrip(t, m, 35).(*GFIBDelta)
	if !ok || !reflect.DeepEqual(got, m) {
		t.Errorf("removal-only GFIBDelta round trip = %+v, want %+v", got, m)
	}
}

func TestGFIBDeltaTruncated(t *testing.T) {
	m := &GFIBDelta{Deltas: []GFIBFilterDelta{{Switch: 1, Words: []bloom.WordDelta{{Index: 2, Word: 3}}}}}
	data, err := Encode(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < 12; cut++ {
		trunc := append([]byte(nil), data[:len(data)-cut]...)
		// Fix up the header length so the codec reaches the body parser.
		trunc[2] = byte(len(trunc) >> 24)
		trunc[3] = byte(len(trunc) >> 16)
		trunc[4] = byte(len(trunc) >> 8)
		trunc[5] = byte(len(trunc))
		if _, _, err := Decode(trunc); err == nil {
			t.Errorf("cut %d: truncated GFIBDelta decoded", cut)
		}
	}
}

func TestGFIBNackRoundTrip(t *testing.T) {
	m := &GFIBNack{Group: 2, Origin: 17, Peers: []model.SwitchID{3, 9, 12}}
	got, ok := roundTrip(t, m, 32).(*GFIBNack)
	if !ok || !reflect.DeepEqual(got, m) {
		t.Errorf("GFIBNack round trip = %+v, want %+v", got, m)
	}
}

func TestPacketInBurstRoundTrip(t *testing.T) {
	m := &PacketInBurst{
		Switch: 6,
		Items: []BurstPacket{
			{Reason: ReasonNoMatch, Packet: samplePacket()},
			{Reason: ReasonARP, Packet: samplePacket()},
		},
	}
	got, ok := roundTrip(t, m, 33).(*PacketInBurst)
	if !ok || !reflect.DeepEqual(got, m) {
		t.Errorf("PacketInBurst round trip = %+v, want %+v", got, m)
	}
	pins := got.PacketIns()
	if len(pins) != 2 {
		t.Fatalf("PacketIns() = %d items", len(pins))
	}
	for i, pi := range pins {
		if pi.Switch != 6 || pi.Reason != m.Items[i].Reason || pi.Packet != m.Items[i].Packet {
			t.Errorf("expanded PacketIn %d = %+v", i, pi)
		}
	}
}

func TestGFIBFilterVersionOnWire(t *testing.T) {
	m := &GFIBUpdate{Group: 1, Filters: []GFIBFilter{{Switch: 2, Filter: []byte{9}, Version: 77}}}
	got := roundTrip(t, m, 34).(*GFIBUpdate)
	if got.Filters[0].Version != 77 || !bytes.Equal(got.Filters[0].Filter, []byte{9}) {
		t.Errorf("GFIBFilter = %+v, want version 77", got.Filters[0])
	}
}

func TestDeltaWireCostBounds(t *testing.T) {
	words := []bloom.WordDelta{{Index: 1}, {Index: 2}}
	if got := DeltaWireCost(words); got != 21+20 {
		t.Errorf("DeltaWireCost = %d, want 41 (varint counts)", got)
	}
	// A word index beyond the u16 wire format makes the delta
	// unencodable; senders must fall back to a full push.
	tooBig := []bloom.WordDelta{{Index: math.MaxUint16 + 1}}
	if got := DeltaWireCost(tooBig); got != math.MaxInt {
		t.Errorf("DeltaWireCost(out-of-range index) = %d, want MaxInt", got)
	}
	// FullWireCost is the encoded full item: the marshaled filter, not
	// only its bit array, plus the item header.
	f := bloom.New(16384, 7)
	data, _ := f.MarshalBinary()
	m := &GFIBUpdate{Group: 1, Filters: []GFIBFilter{{Switch: 2, Filter: data, Version: 3}}}
	enc, err := Encode(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	// header(10) + group(4) + filter count(4) + version(8) + generation
	// varint(1)
	if got, want := len(enc)-(10+4+4+8+1), FullWireCost(f); got != want {
		t.Errorf("encoded full item = %dB, FullWireCost = %d", got, want)
	}
}

// TestStateReportDensePairs pins the size-adaptive pair encoding: a
// steady-state report (all pairs of a 46-switch group) round-trips
// through the dense switch-index form and is measurably smaller than
// the flat form it replaces, while a sparse report keeps the flat form
// and never grows.
func TestStateReportDensePairs(t *testing.T) {
	const groupSize = 46
	var pairs []PairStat
	for a := 1; a <= groupSize; a++ {
		for b := a + 1; b <= groupSize; b++ {
			pairs = append(pairs, PairStat{A: model.SwitchID(a), B: model.SwitchID(b), NewFlows: uint32(a*100 + b)})
		}
	}
	m := &StateReport{Group: 2, Pairs: pairs, Version: 9}
	data, err := Encode(m, 40)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := roundTrip(t, m, 41).(*StateReport)
	if !ok || !reflect.DeepEqual(got.Pairs, m.Pairs) {
		t.Fatalf("dense pair round trip corrupted the pairs")
	}
	flatSize := 12 * len(pairs)
	denseSize := 2 + 4*groupSize + 8*len(pairs)
	if len(data) >= flatSize {
		t.Errorf("encoded report = %dB, want < flat pair section alone (%dB)", len(data), flatSize)
	}
	overhead := len(data) - denseSize
	if overhead < 0 || overhead > 64 {
		t.Errorf("encoded report = %dB, want ≈ dense size %dB (+header)", len(data), denseSize)
	}
	t.Logf("%d pairs over %d switches: %dB on the wire vs %dB flat (%.0f%% smaller)",
		len(pairs), groupSize, len(data), flatSize, 100*(1-float64(len(data))/float64(flatSize)))

	// Sparse: 2 pairs over 4 distinct switches — the dense table would
	// not pay for itself, so the flat form is kept and the report does
	// not grow.
	sparse := &StateReport{Group: 2, Pairs: []PairStat{{A: 1, B: 2, NewFlows: 1}, {A: 3, B: 4, NewFlows: 2}}, Version: 1}
	sdata, err := Encode(sparse, 42)
	if err != nil {
		t.Fatal(err)
	}
	// header(10) + group(4) + lfib count varint(1) + pair count
	// varint(1) + flag(1) + 2 flat pairs(24) + version(8)
	if want := 10 + 4 + 1 + 1 + 1 + 24 + 8; len(sdata) != want {
		t.Errorf("sparse report = %dB, want %d (flat form + flag byte)", len(sdata), want)
	}
	gotSparse, ok := roundTrip(t, sparse, 43).(*StateReport)
	if !ok || !reflect.DeepEqual(gotSparse.Pairs, sparse.Pairs) {
		t.Errorf("sparse pair round trip corrupted the pairs")
	}
}

// TestVarintCountOverflowRejected pins the decode guards against
// crafted varint counts: a count near 2⁶⁴ must yield ErrTruncated,
// never wrap a size check into a makeslice panic.
func TestVarintCountOverflowRejected(t *testing.T) {
	// A huge LEB128 value (10 bytes of 0xff-style continuation).
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	// An overlong encoding of 2⁶⁴ exactly: the 10th byte's bit 1 would
	// shift past bit 63 and silently wrap to a small value if the
	// reader didn't reject it.
	overlong := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}
	craft := func(build func() []byte, m Message) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("%T decode panicked on crafted count: %v", m, p)
			}
		}()
		if err := m.layout(reading(build())).done(); err == nil {
			t.Errorf("%T accepted a crafted overflow count", m)
		}
	}
	u32 := binary.BigEndian.AppendUint32
	u64 := binary.BigEndian.AppendUint64
	uv := binary.AppendUvarint
	// GFIBDelta: item count, then (via a valid single item) word count,
	// then removals count.
	craft(func() []byte { return append(u32(nil, 1), huge...) }, &GFIBDelta{})
	craft(func() []byte {
		b := uv(u32(nil, 1), 1) // group, 1 delta
		b = u64(u64(u32(b, 2), 3), 4)
		return append(b, huge...) // word count
	}, &GFIBDelta{})
	craft(func() []byte {
		b := uv(u32(nil, 1), 0)   // group, 0 deltas
		return append(b, huge...) // removals count
	}, &GFIBDelta{})
	// StateReport: L-FIB count and pair count.
	craft(func() []byte { return append(u32(nil, 1), huge...) }, &StateReport{})
	craft(func() []byte {
		b := uv(u32(nil, 1), 0)   // group, 0 L-FIBs
		return append(b, huge...) // pair count
	}, &StateReport{})
	// Overlong encodings must fail outright, not wrap to plausible
	// small counts and misparse the rest of the body.
	craft(func() []byte { return append(u32(nil, 1), overlong...) }, &GFIBDelta{})
	craft(func() []byte { return append(u32(nil, 1), overlong...) }, &StateReport{})
}

// TestDeltaWireCostExact pins DeltaWireCost to the actual encoded item
// size, including the multi-byte varint word count past 127 words.
func TestDeltaWireCostExact(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300} {
		words := make([]bloom.WordDelta, n)
		for i := range words {
			words[i] = bloom.WordDelta{Index: uint32(i), Word: uint64(i)}
		}
		m := &GFIBDelta{Group: 1, Deltas: []GFIBFilterDelta{{Switch: 2, BaseVersion: 3, TargetVersion: 4, Words: words}}}
		data, err := Encode(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		// header(10) + group(4) + delta count(1) + item + removals(1) +
		// version(8) + generation varint(1)
		overhead := 10 + 4 + 1 + 1 + 8 + 1
		if got, want := len(data)-overhead, DeltaWireCost(words); got != want {
			t.Errorf("n=%d: encoded item = %dB, DeltaWireCost = %d", n, got, want)
		}
	}
}
