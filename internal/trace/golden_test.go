package trace

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"lazyctrl/internal/model"
)

// newStreamDigest folds everything NewStream draws into one FNV-64: the
// hot, cold and scatter bands in order, the drift phases, the window
// counts, and every host's tenant and switch.
func newStreamDigest(t *testing.T, cfg GeneratorConfig) uint64 {
	t.Helper()
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := s.(*genStream)
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, band := range [][]model.FlowKey{g.hot, g.cold, g.scatter} {
		put(uint64(len(band)))
		for _, k := range band {
			put(uint64(k.Src)<<32 | uint64(k.Dst))
		}
	}
	put(uint64(len(g.hotPhase)))
	for _, p := range g.hotPhase {
		put(math.Float64bits(p))
	}
	put(uint64(len(g.counts)))
	for _, n := range g.counts {
		put(uint64(n))
	}
	dir := g.info.Directory
	put(uint64(dir.NumHosts()))
	for id := 1; id <= dir.NumHosts(); id++ {
		host := dir.Host(model.HostID(id))
		put(uint64(host.Tenant)<<32 | uint64(host.Switch))
	}
	return h.Sum64()
}

// TestNewStreamGolden pins the generator's set-up draw for draw: tenant
// placement, the pair pool and the window plan. A change to what
// NewStream draws, or in which order, moves a digest; a change that only
// makes the set-up cheaper must not. The Syn presets are the only
// tier-1 check of their placement: the emulation digests run RealLike.
func TestNewStreamGolden(t *testing.T) {
	for _, tc := range []struct {
		cfg  GeneratorConfig
		want uint64
	}{
		{SynAConfig(60_000, 1), 0x65c2a0e874fa5687},
		{SynBConfig(60_000, 1), 0x99292da6cef19e46},
		{SynCConfig(60_000, 1), 0x8b544fd8c18c4560},
		{RealLikeConfig(100, 1), 0x9a94840ff589208e},
	} {
		if got := newStreamDigest(t, tc.cfg); got != tc.want {
			t.Errorf("%s: digest %#016x, want %#016x", tc.cfg.Name, got, tc.want)
		}
	}
}
