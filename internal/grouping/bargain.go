package grouping

import (
	"errors"
	"math"
	"sort"
)

// Appendix C of the paper describes a game-based (modified Rubinstein
// bargaining model) negotiation of the group size limit: before the
// controller computes a grouping, switches bargain the limit with the
// controller according to their real-time monitored capacity. The
// controller prefers large groups (less inter-group traffic → lazier);
// switches prefer small groups (smaller G-FIBs and less state
// dissemination overhead).

// controllerDiscount and switchDiscount are the per-round discount
// factors δc, δs ∈ (0,1) of the alternating-offers game. A more patient
// party (higher δ) extracts a larger share.
const (
	controllerDiscount = 0.9
	switchDiscount     = 0.8
)

// maxBargainRounds bounds the explicit alternating-offers simulation
// used while the parties' proposals have not yet converged.
const maxBargainRounds = 16

// SwitchOffer is one switch's self-evaluated preferred group size limit,
// derived from its monitored memory and CPU headroom.
type SwitchOffer struct {
	// PreferredLimit is the largest group size the switch is comfortable
	// with.
	PreferredLimit int
	// Capacity weights the offer when aggregating (e.g. TCAM size); zero
	// counts as 1.
	Capacity float64
}

// AggregateOffers reduces per-switch offers to the switches' collective
// preferred limit: the capacity-weighted 10th percentile, so a small
// number of weak switches caps the group size (a group is only as strong
// as the switches that must hold its G-FIB).
func AggregateOffers(offers []SwitchOffer) int {
	if len(offers) == 0 {
		return 0
	}
	type wl struct {
		limit int
		w     float64
	}
	items := make([]wl, 0, len(offers))
	var totalW float64
	for _, o := range offers {
		w := o.Capacity
		if w <= 0 {
			w = 1
		}
		items = append(items, wl{limit: o.PreferredLimit, w: w})
		totalW += w
	}
	sort.Slice(items, func(i, j int) bool { return items[i].limit < items[j].limit })
	target := totalW * 0.10
	var acc float64
	for _, it := range items {
		acc += it.w
		if acc >= target {
			return it.limit
		}
	}
	return items[len(items)-1].limit
}

// Negotiate runs the modified Rubinstein bargaining between the
// controller's preferred (upper) group size limit and the switches'
// aggregate preferred limit, returning the agreed group size limit.
//
// The surplus being divided is the interval [switchLimit,
// controllerLimit]. With discount factors δc (controller) and δs
// (switches), the subgame-perfect equilibrium gives the first mover (the
// controller, who computes groupings) the share (1-δs)/(1-δcδs); the
// agreement is immediate in equilibrium, but for transparency the
// explicit alternating-offers rounds are also simulated, and their
// settlement is kept when it lands near the equilibrium.
func Negotiate(switchLimit, controllerLimit int) (int, error) {
	if controllerLimit < 1 {
		return 0, errors.New("grouping: controllerLimit must be ≥ 1")
	}
	if switchLimit < 1 {
		switchLimit = 1
	}
	if switchLimit >= controllerLimit {
		// The switches concede at least as much as the controller wants.
		return controllerLimit, nil
	}
	pie := float64(controllerLimit - switchLimit)
	controllerShare := (1 - switchDiscount) / (1 - controllerDiscount*switchDiscount)

	// Explicit alternating offers (documentation of the equilibrium).
	offerC := float64(controllerLimit)
	offerS := float64(switchLimit)
	for round := 0; round < maxBargainRounds && offerC-offerS > 0.5; round++ {
		if round%2 == 0 {
			// Controller concedes toward the equilibrium.
			offerC -= (1 - controllerDiscount) * (offerC - offerS)
		} else {
			offerS += (1 - switchDiscount) * (offerC - offerS)
		}
	}
	equilibrium := float64(switchLimit) + pie*controllerShare
	// The simulation converges near the equilibrium; take the midpoint of
	// the final offers, bounded by the closed-form value's neighborhood.
	settled := (offerC + offerS) / 2
	if math.Abs(settled-equilibrium) > pie*0.25 {
		settled = equilibrium
	}
	limit := int(math.Round(settled))
	if limit < switchLimit {
		limit = switchLimit
	}
	if limit > controllerLimit {
		limit = controllerLimit
	}
	return limit, nil
}
