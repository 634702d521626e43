package bloom

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func key(i uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], i)
	return b[:]
}

func TestNoFalseNegatives(t *testing.T) {
	f := New(9586, 7) // the optimum for 1,000 keys at p = 0.01
	for i := uint64(0); i < 1000; i++ {
		f.Add(key(i))
	}
	for i := uint64(0); i < 1000; i++ {
		if !f.TestUint64(i) {
			t.Fatalf("false negative for key %d", i)
		}
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n, target = 10000, 0.01
	f := New(95851, 7) // the optimum for n keys at the target
	for i := uint64(0); i < n; i++ {
		f.Add(key(i))
	}
	fp := 0
	const probes = 100000
	for i := uint64(n); i < n+probes; i++ {
		if f.TestUint64(i) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 3*target {
		t.Errorf("observed FP rate %.4f, want ≤ %.4f", rate, 3*target)
	}
}

func TestEstimatedFPPMatchesObserved(t *testing.T) {
	f := New(1<<14, 4)
	for i := uint64(0); i < 2000; i++ {
		f.Add(key(i))
	}
	est := FPPFor(f.m, f.k, 2000)
	fp := 0
	const probes = 50000
	for i := uint64(1 << 20); i < 1<<20+probes; i++ {
		if f.TestUint64(i) {
			fp++
		}
	}
	obs := float64(fp) / probes
	if obs > 3*est+0.001 || (est > 0.005 && obs < est/3) {
		t.Errorf("observed FPP %.5f far from estimate %.5f", obs, est)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := New(4096, 5)
	for i := uint64(0); i < 300; i++ {
		f.Add(key(i * 7))
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	var g Filter
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if g.m != f.m || g.k != f.k {
		t.Fatalf("geometry mismatch after round trip: %+v vs %+v", g, f)
	}
	for i := uint64(0); i < 300; i++ {
		if !g.TestUint64(i * 7) {
			t.Fatalf("decoded filter lost key %d", i*7)
		}
	}
}

// TestAppendBinary pins the encoding MarshalBinary and AppendBinary
// share: magic, m, k, then the words, all big-endian, appended after
// whatever dst already holds.
func TestAppendBinary(t *testing.T) {
	f := New(128, 3)
	f.AddUint64(42)
	want := []byte{0xee,
		0, 0, 0, 0x4c, 0x43, 0x5f, 0x42, 0x46, // "LC_BF"
		0, 0, 0, 0, 0, 0, 0, 128, // m
		0, 0, 0, 3, // k
	}
	for _, w := range f.bits {
		want = binary.BigEndian.AppendUint64(want, w)
	}
	got, err := f.AppendBinary([]byte{0xee})
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("AppendBinary = %x, %v; want %x", got, err, want)
	}
	if data, _ := f.MarshalBinary(); !bytes.Equal(data, want[1:]) || len(data) != f.MarshaledLen() {
		t.Fatalf("MarshalBinary = %x, want %x", data, want[1:])
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	var f Filter
	cases := [][]byte{
		nil,
		make([]byte, 10),
		make([]byte, 28), // bad magic
	}
	for i, data := range cases {
		if err := f.UnmarshalBinary(data); err == nil {
			t.Errorf("case %d: UnmarshalBinary succeeded on corrupt input", i)
		}
	}
	// Valid header but truncated body.
	good := New(128, 2)
	data, err := good.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	if err := f.UnmarshalBinary(data[:len(data)-4]); err == nil {
		t.Error("UnmarshalBinary succeeded on truncated input")
	}
	// Well-formed but hostile geometry: m = 0 divides by zero on the
	// next lookup, and k is the per-lookup probe count.
	header := func(m uint64, k uint32, words int) []byte {
		b := make([]byte, 20+8*words)
		binary.BigEndian.PutUint64(b[0:8], marshalMagic)
		binary.BigEndian.PutUint64(b[8:16], m)
		binary.BigEndian.PutUint32(b[16:20], k)
		for i := 20; i < len(b); i++ {
			b[i] = 0xff
		}
		return b
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"m=0", header(0, 1, 0)},
		{"k=2^32-1", header(64, 0xffffffff, 1)},
		{"k=MaxHashes+1", header(64, MaxHashes+1, 1)},
	} {
		if err := f.UnmarshalBinary(c.data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: UnmarshalBinary = %v, want ErrCorrupt", c.name, err)
		}
	}
	if err := f.UnmarshalBinary(header(64, MaxHashes, 1)); err != nil {
		t.Errorf("k=MaxHashes: UnmarshalBinary = %v, want accepted", err)
	}
	// New clamps to the same bound, so whatever marshals also decodes.
	big := New(64, 1<<20)
	if big.k != MaxHashes {
		t.Fatalf("New(64, 1<<20).k = %d, want %d", big.k, MaxHashes)
	}
	data, _ = big.MarshalBinary()
	if err := f.UnmarshalBinary(data); err != nil {
		t.Errorf("clamped filter does not round-trip: %v", err)
	}
}

// TestKeyMatchesTest pins TestKey and TestUint64 to a % probe bit for
// bit on power-of-two (mask) and other (modulo) geometries: same
// positions, same false-positive set.
func TestKeyMatchesTest(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, m := range []uint64{64, 128, 192, 1024, 1984, 16384, 16448} {
		f := New(m, 1+uint32(rng.IntN(9)))
		var probes []uint64 // every member, then 4000 strangers
		for i := 0; i < int(m)/16; i++ {
			probes = append(probes, rng.Uint64())
			f.AddUint64(probes[i])
		}
		for i := 0; i < 4000; i++ {
			probes = append(probes, rng.Uint64())
		}
		for _, v := range probes {
			want := true
			h1, h2 := splitHash(key(v))
			for j := uint32(0); j < f.k; j++ {
				idx := (h1 + uint64(j)*h2) % f.m
				if f.bits[idx/64]&(1<<(idx%64)) == 0 {
					want = false
					break
				}
			}
			if got := f.TestKey(HashUint64(v)); got != want {
				t.Fatalf("m=%d k=%d key %#x: TestKey = %v, reference %% probe = %v", m, f.k, v, got, want)
			}
			if got := f.TestUint64(v); got != want {
				t.Fatalf("m=%d k=%d key %#x: TestUint64 = %v, want %v", m, f.k, v, got, want)
			}
		}
	}
}

func TestClone(t *testing.T) {
	f := New(1024, 3)
	f.Add(key(1))
	g := f.Clone()
	g.Add(key(2))
	if f.TestUint64(2) {
		t.Error("mutation of clone visible in original")
	}
	if !g.TestUint64(1) {
		t.Error("clone lost original element")
	}
}

func TestAddUint64Matches(t *testing.T) {
	f := New(2048, 3)
	f.AddUint64(0xdeadbeef)
	if !f.TestUint64(0xdeadbeef) {
		t.Error("TestUint64 missed added key")
	}
	g := New(2048, 3)
	g.Add(key(0xdeadbeef))
	if !slices.Equal(f.bits, g.bits) {
		t.Error("AddUint64 and Add([8]byte) disagree")
	}
}

func TestDegenerateParams(t *testing.T) {
	f := New(0, 0)
	f.Add(key(1))
	if !f.TestUint64(1) {
		t.Error("degenerate filter lost element")
	}
}

func TestPropertyNoFalseNegatives(t *testing.T) {
	f := func(keys []uint64) bool {
		bf := New(10*uint64(len(keys)+1), 7)
		for _, k := range keys {
			bf.AddUint64(k)
		}
		for _, k := range keys {
			if !bf.TestUint64(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMarshalRoundTrip(t *testing.T) {
	f := func(keys []uint64, seed uint64) bool {
		bf := New(1<<uint(8+seed%5), uint32(1+seed%6))
		for _, k := range keys {
			bf.AddUint64(k)
		}
		data, err := bf.MarshalBinary()
		if err != nil {
			return false
		}
		var dec Filter
		if err := dec.UnmarshalBinary(data); err != nil {
			return false
		}
		for _, k := range keys {
			if !dec.TestUint64(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPaperStorageFigure(t *testing.T) {
	// §V-D: a group of 46 switches gives 45 filters of 16 128-byte
	// entries each = 92,160 bytes, with FP rate below 0.1%.
	const peers = 45
	const filterBytes = 16 * 128
	total := 0
	for i := 0; i < peers; i++ {
		f := New(filterBytes*8, 7)
		total += f.SizeBytes()
	}
	if total != 92160 {
		t.Errorf("G-FIB bytes = %d, want 92160", total)
	}
	// ~24 hosts per switch (6509 hosts / 272 switches): FPP must be
	// below 0.1% at that occupancy.
	if fpp := FPPFor(filterBytes*8, 7, 24); fpp >= 0.001 {
		t.Errorf("FPP = %v, want < 0.001", fpp)
	}
}

func BenchmarkAdd(b *testing.B) {
	f := New(1437759, 10) // the optimum for 100,000 keys at p = 0.001
	rng := rand.New(rand.NewPCG(1, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.AddUint64(rng.Uint64())
	}
}

func BenchmarkTest(b *testing.B) {
	f := New(1437759, 10) // the optimum for 100,000 keys at p = 0.001
	for i := uint64(0); i < 100000; i++ {
		f.AddUint64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.TestUint64(uint64(i))
	}
}

func TestDiffApplyWords(t *testing.T) {
	old := New(2048, 7)
	for i := uint64(0); i < 40; i++ {
		old.Add(key(i))
	}
	old.SetVersion(3)
	cur := old.Clone()
	cur.Add(key(1000))
	cur.Add(key(1001))
	cur.SetVersion(4)

	words, err := cur.DiffWords(old)
	if err != nil {
		t.Fatalf("DiffWords: %v", err)
	}
	if len(words) == 0 || len(words) > 2*7 {
		t.Fatalf("diff has %d words, want 1..14 (k probes per key)", len(words))
	}
	patched := old.Clone()
	if err := patched.ApplyWords(words); err != nil {
		t.Fatalf("ApplyWords: %v", err)
	}
	a, _ := patched.MarshalBinary()
	b, _ := cur.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Error("delta-applied filter not byte-identical to the diff target")
	}
	// Removal direction: diffing back to old clears the bits again.
	back, err := old.DiffWords(cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := patched.ApplyWords(back); err != nil {
		t.Fatal(err)
	}
	a, _ = patched.MarshalBinary()
	b, _ = old.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Error("reverse delta did not restore the original bits")
	}
}

func TestDiffWordsGeometryMismatch(t *testing.T) {
	a := New(2048, 7)
	if _, err := a.DiffWords(nil); err == nil {
		t.Error("DiffWords(nil) succeeded")
	}
	if _, err := a.DiffWords(New(1024, 7)); err == nil {
		t.Error("DiffWords across m mismatch succeeded")
	}
	if _, err := a.DiffWords(New(2048, 5)); err == nil {
		t.Error("DiffWords across k mismatch succeeded")
	}
}

func TestApplyWordsRangeCheck(t *testing.T) {
	f := New(128, 2) // 2 words
	f.Add(key(1))
	before, _ := f.MarshalBinary()
	err := f.ApplyWords([]WordDelta{{Index: 0, Word: 1}, {Index: 99, Word: 2}})
	if err == nil {
		t.Fatal("out-of-range delta applied")
	}
	after, _ := f.MarshalBinary()
	if !bytes.Equal(before, after) {
		t.Error("failed delta mutated the filter")
	}
}

func TestVersionAccessors(t *testing.T) {
	f := New(64, 1)
	if f.Version() != 0 {
		t.Errorf("fresh Version() = %d", f.Version())
	}
	f.SetVersion(9)
	if f.Version() != 9 || f.Clone().Version() != 9 {
		t.Error("version not kept by SetVersion/Clone")
	}
}
