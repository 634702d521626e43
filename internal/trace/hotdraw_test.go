package trace

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestHotIndexMatchesSearch pins the guide table: hotIndex returns what
// a full binary search of hotCum returns, at zero, at every entry, at
// each entry's two float neighbours and at random points, on the
// real-like and the three synthetic hot tables and on a one-entry one.
func TestHotIndexMatchesSearch(t *testing.T) {
	one := &genStream{hotCum: []float64{1}}
	one.initHotGuide()
	gens := map[string]*genStream{"one entry": one}
	for _, cfg := range []GeneratorConfig{
		RealLikeConfig(1000, 1),
		SynAConfig(60_000, 1),
		SynBConfig(60_000, 1),
		SynCConfig(60_000, 1),
	} {
		s, err := NewStream(cfg)
		if err != nil {
			t.Fatalf("NewStream(%s): %v", cfg.Name, err)
		}
		gens[cfg.Name] = s.(*genStream)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for name, g := range gens {
		check := func(u float64) {
			if got, want := g.hotIndex(u), searchFloat64s(g.hotCum, u); got != want {
				t.Fatalf("%s: hotIndex(%v) = %d, search finds %d", name, u, got, want)
			}
		}
		check(0)
		for _, c := range g.hotCum {
			check(c)
			check(math.Nextafter(c, 0))
			check(math.Nextafter(c, math.Inf(1)))
		}
		total := g.hotCum[len(g.hotCum)-1]
		for range 100_000 {
			check(rng.Float64() * total)
		}
	}
}

// refDrawHot is the hot draw before the guide table and the squeeze: a
// full search and a cosine for every candidate.
func refDrawHot(g *genStream, rng *rand.Rand, frac float64) int {
	for {
		u := rng.Float64() * g.hotCum[len(g.hotCum)-1]
		i := searchFloat64s(g.hotCum, u)
		if g.hotPhase == nil {
			return i
		}
		mod := (1 + g.cfg.DriftAmplitude*math.Cos(2*math.Pi*(frac-g.hotPhase[i]))) / (1 + g.cfg.DriftAmplitude)
		if rng.Float64() < mod {
			return i
		}
	}
}

// TestDrawHotMatchesRejectionLoop pins drawHot to refDrawHot: the same
// index and the same random stream after every draw, without drift and
// with it, at the start, the middle and the very end of the day.
func TestDrawHotMatchesRejectionLoop(t *testing.T) {
	for _, amp := range []float64{0, 0.25, 0.9} {
		cfg := RealLikeConfig(1000, 1)
		cfg.DriftAmplitude = amp
		s, err := NewStream(cfg)
		if err != nil {
			t.Fatalf("NewStream: %v", err)
		}
		g := s.(*genStream)
		for _, frac := range []float64{0, 0.5, math.Nextafter(1, 0)} {
			r1 := rand.New(rand.NewPCG(3, 4))
			r2 := rand.New(rand.NewPCG(3, 4))
			for j := range 20_000 {
				if got, want := g.drawHot(r1, frac), refDrawHot(g, r2, frac); got != want {
					t.Fatalf("A=%v frac=%v draw %d: index %d, reference %d", amp, frac, j, got, want)
				}
				if got, want := r1.Uint64(), r2.Uint64(); got != want {
					t.Fatalf("A=%v frac=%v draw %d: random streams part", amp, frac, j)
				}
			}
		}
	}
}
