package grouping

import "testing"

func TestAggregateOffers(t *testing.T) {
	offers := []SwitchOffer{
		{PreferredLimit: 100, Capacity: 1},
		{PreferredLimit: 80, Capacity: 1},
		{PreferredLimit: 20, Capacity: 1}, // weakest switch dominates
		{PreferredLimit: 90, Capacity: 1},
		{PreferredLimit: 85, Capacity: 1},
		{PreferredLimit: 95, Capacity: 1},
		{PreferredLimit: 88, Capacity: 1},
		{PreferredLimit: 92, Capacity: 1},
		{PreferredLimit: 97, Capacity: 1},
		{PreferredLimit: 99, Capacity: 1},
	}
	if got := AggregateOffers(offers); got != 20 {
		t.Errorf("AggregateOffers = %d, want 20 (10th percentile)", got)
	}
}

func TestAggregateOffersEmpty(t *testing.T) {
	if got := AggregateOffers(nil); got != 0 {
		t.Errorf("AggregateOffers(nil) = %d, want 0", got)
	}
}

func TestAggregateOffersWeighted(t *testing.T) {
	offers := []SwitchOffer{
		{PreferredLimit: 10, Capacity: 0.01}, // negligible capacity
		{PreferredLimit: 50, Capacity: 10},
	}
	if got := AggregateOffers(offers); got != 50 {
		t.Errorf("AggregateOffers = %d, want 50 (weight dominates)", got)
	}
}

func TestNegotiateBetweenBounds(t *testing.T) {
	got, err := Negotiate(20, 100)
	if err != nil {
		t.Fatalf("Negotiate: %v", err)
	}
	if got < 20 || got > 100 {
		t.Errorf("Negotiate = %d, want within [20,100]", got)
	}
	// Controller moves first and δc > δs by default, so the agreement
	// should favor the controller (above the midpoint).
	if got <= 60 {
		t.Errorf("Negotiate = %d, want > 60 (first-mover advantage)", got)
	}
}

func TestNegotiateSwitchConcedes(t *testing.T) {
	got, err := Negotiate(200, 100)
	if err != nil {
		t.Fatalf("Negotiate: %v", err)
	}
	if got != 100 {
		t.Errorf("Negotiate = %d, want 100 when switches accept more than asked", got)
	}
}

func TestNegotiateValidation(t *testing.T) {
	if _, err := Negotiate(10, 0); err == nil {
		t.Error("controller limit 0 accepted")
	}
}

func TestNegotiateZeroSwitchLimit(t *testing.T) {
	got, err := Negotiate(0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if got < 1 || got > 40 {
		t.Errorf("Negotiate = %d, want within [1,40]", got)
	}
}
