package failover

import (
	"testing"

	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
)

func TestBuildWheelOrderedByMAC(t *testing.T) {
	wheel := BuildWheel([]model.SwitchID{5, 1, 3})
	// SwitchMAC embeds the ID in the low bytes, so MAC order equals ID
	// order here.
	if len(wheel) != 3 || wheel[0] != 1 || wheel[1] != 3 || wheel[2] != 5 {
		t.Errorf("wheel = %v, want [1 3 5]", wheel)
	}
}

func TestNeighbors(t *testing.T) {
	wheel := BuildWheel([]model.SwitchID{1, 2, 3, 4})
	prev, next := Neighbors(wheel, 1)
	if prev != 4 || next != 2 {
		t.Errorf("Neighbors(1) = %v,%v, want 4,2", prev, next)
	}
	prev, next = Neighbors(wheel, 4)
	if prev != 3 || next != 1 {
		t.Errorf("Neighbors(4) = %v,%v, want 3,1", prev, next)
	}
	prev, next = Neighbors(wheel, 99)
	if prev != model.NoSwitch || next != model.NoSwitch {
		t.Errorf("Neighbors(absent) = %v,%v, want 0,0", prev, next)
	}
	single := BuildWheel([]model.SwitchID{7})
	prev, next = Neighbors(single, 7)
	if prev != 7 || next != 7 {
		t.Errorf("Neighbors(single) = %v,%v, want 7,7", prev, next)
	}
}

func TestInferTableI(t *testing.T) {
	tests := []struct {
		e    Evidence
		want Diagnosis
	}{
		{Evidence{}, DiagNone},
		{Evidence{LossCtrl: true}, DiagControlLink},
		{Evidence{LossUp: true}, DiagPeerLinkUp},
		{Evidence{LossDown: true}, DiagPeerLinkDown},
		{Evidence{LossUp: true, LossDown: true, LossCtrl: true}, DiagSwitch},
		{Evidence{LossUp: true, LossDown: true}, DiagInconclusive},
		{Evidence{LossUp: true, LossCtrl: true}, DiagInconclusive},
		{Evidence{LossDown: true, LossCtrl: true}, DiagInconclusive},
	}
	for _, tt := range tests {
		if got := Infer(tt.e); got != tt.want {
			t.Errorf("Infer(%+v) = %v, want %v", tt.e, got, tt.want)
		}
	}
}

func TestEvidenceAdd(t *testing.T) {
	var e Evidence
	e.Add(openflow.LossUp)
	if want := (Evidence{LossUp: true}); e != want {
		t.Errorf("after LossUp: %+v, want %+v", e, want)
	}
	e.Add(openflow.LossCtrl)
	e.Add(openflow.LossDirection(99)) // outside the protocol: no stream
	if want := (Evidence{LossUp: true, LossCtrl: true}); e != want {
		t.Errorf("after LossCtrl: %+v, want %+v", e, want)
	}
	e.Add(openflow.LossDown)
	if Infer(e) != DiagSwitch {
		t.Errorf("all three streams: %v, want switch", Infer(e))
	}
}

func TestDiagnosisStrings(t *testing.T) {
	for _, d := range []Diagnosis{DiagNone, DiagControlLink, DiagPeerLinkUp, DiagPeerLinkDown, DiagSwitch, DiagInconclusive} {
		if d.String() == "" {
			t.Errorf("diagnosis %d has empty name", d)
		}
	}
}
