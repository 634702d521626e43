package model

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestMACString(t *testing.T) {
	m := MAC{0x02, 0x1c, 0x00, 0x00, 0x01, 0xff}
	if got, want := m.String(), "02:1c:00:00:01:ff"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// MACFromUint64 unpacks the low 48 bits of v into a MAC: Uint64's
// inverse.
func MACFromUint64(v uint64) MAC {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	var m MAC
	copy(m[:], b[2:])
	return m
}

func TestMACUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		v &= 0xffffffffffff // 48 bits
		return MACFromUint64(v).Uint64() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHostMACUnique(t *testing.T) {
	seen := make(map[MAC]HostID, 1000)
	for i := HostID(1); i <= 1000; i++ {
		m := HostMAC(i)
		if prev, dup := seen[m]; dup {
			t.Fatalf("HostMAC collision: %v and %v -> %v", prev, i, m)
		}
		seen[m] = i
	}
}

func TestHostAndSwitchMACsDisjoint(t *testing.T) {
	for i := uint32(1); i <= 500; i++ {
		if HostMAC(HostID(i)) == SwitchMAC(SwitchID(i)) {
			t.Fatalf("host and switch MAC namespaces collide at %d", i)
		}
	}
}

func TestIPString(t *testing.T) {
	ip := HostIP(258) // 10.0.1.2
	if got, want := ip.String(), "10.0.1.2"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestFlowKeyCanonical(t *testing.T) {
	a := FlowKey{Src: 5, Dst: 3}
	b := FlowKey{Src: 3, Dst: 5}
	if a.Canonical() != b.Canonical() {
		t.Error("canonical keys differ for mirrored pairs")
	}
	if got := a.Canonical(); got.Src != 3 || got.Dst != 5 {
		t.Errorf("Canonical() = %v, want 3->5", got)
	}
}

func TestMakeSwitchPair(t *testing.T) {
	p := MakeSwitchPair(9, 2)
	if p.A != 2 || p.B != 9 {
		t.Errorf("MakeSwitchPair(9,2) = %+v, want {2 9}", p)
	}
	if p != MakeSwitchPair(2, 9) {
		t.Error("pair not canonical")
	}
}

func TestIDStrings(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{SwitchID(7).String(), "S7"},
		{HostID(12).String(), "H12"},
		{TenantID(3).String(), "T3"},
		{GroupID(1).String(), "G1"},
		{FlowKey{Src: 1, Dst: 2}.String(), "H1->H2"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("String() = %q, want %q", tt.got, tt.want)
		}
	}
}

func TestEncapsulated(t *testing.T) {
	p := Packet{}
	if p.Encapsulated() {
		t.Error("plain packet reports encapsulated")
	}
	p.Encap = &EncapHeader{SrcSwitch: 1, DstSwitch: 2}
	if !p.Encapsulated() {
		t.Error("encapsulated packet reports plain")
	}
}
