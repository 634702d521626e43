package chaos

import (
	"strings"
	"testing"
	"time"

	"lazyctrl/internal/edge"
	"lazyctrl/internal/failover"
	"lazyctrl/internal/fib"
	"lazyctrl/internal/model"
	"lazyctrl/internal/netsim"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/sim"
	"lazyctrl/internal/telemetry"
)

// fakeHarness drives plans against a bare simulator, recording the
// crash/restart sequence.
type fakeHarness struct {
	s          *sim.Simulator
	net        *netsim.Network
	crashed    []model.SwitchID
	restarted  []model.SwitchID
	ctrlDown   int
	ctrlUp     int
	designated model.SwitchID
}

func newFakeHarness() *fakeHarness {
	s := sim.New(1)
	return &fakeHarness{s: s, net: netsim.New(s, netsim.DefaultLatencies()), designated: 2}
}

func (h *fakeHarness) Now() time.Duration               { return h.s.Now().Duration() }
func (h *fakeHarness) After(d time.Duration, fn func()) { h.s.After(d, fn) }
func (h *fakeHarness) Net() *netsim.Network             { return h.net }
func (h *fakeHarness) Switches() []model.SwitchID       { return []model.SwitchID{1, 2, 3} }
func (h *fakeHarness) GroupPeers(model.SwitchID) []model.SwitchID {
	return []model.SwitchID{1, 2, 3}
}
func (h *fakeHarness) Designated(model.SwitchID) model.SwitchID { return h.designated }
func (h *fakeHarness) Crash(sw model.SwitchID)                  { h.crashed = append(h.crashed, sw) }
func (h *fakeHarness) Restart(sw model.SwitchID)                { h.restarted = append(h.restarted, sw) }
func (h *fakeHarness) CrashController()                         { h.ctrlDown++ }
func (h *fakeHarness) RestartController()                       { h.ctrlUp++ }
func (h *fakeHarness) Replicas() []model.SwitchID {
	return []model.SwitchID{model.ControllerNode}
}

func TestPlanScheduleAppliesAndUndoes(t *testing.T) {
	h := newFakeHarness()
	p := &Plan{Name: "t"}
	p.Add(10*time.Second, 5*time.Second, Crash{Switch: 1})
	p.Add(12*time.Second, 3*time.Second, ControllerBlackout{})
	if got := p.End(); got != 15*time.Second {
		t.Fatalf("End() = %v, want 15s", got)
	}
	p.Schedule(h)

	h.s.RunFor(11 * time.Second)
	if len(h.crashed) != 1 || h.crashed[0] != 1 || len(h.restarted) != 0 {
		t.Fatalf("at 11s: crashed=%v restarted=%v", h.crashed, h.restarted)
	}
	h.s.RunFor(9 * time.Second)
	if len(h.restarted) != 1 || h.restarted[0] != 1 {
		t.Fatalf("crash not undone: restarted=%v", h.restarted)
	}
	if h.ctrlDown != 1 || h.ctrlUp != 1 {
		t.Fatalf("controller blackout down=%d up=%d, want 1/1", h.ctrlDown, h.ctrlUp)
	}
}

func TestCrashDesignatedResolvesAtFireTime(t *testing.T) {
	h := newFakeHarness()
	p := (&Plan{}).Add(10*time.Second, 5*time.Second, CrashDesignated{Of: 1})
	p.Schedule(h)
	// The designated role rotates before the event fires; the action
	// must kill (and later restart) the role holder at fire time.
	h.s.After(5*time.Second, func() { h.designated = 3 })
	h.s.RunFor(20 * time.Second)
	if len(h.crashed) != 1 || h.crashed[0] != 3 {
		t.Fatalf("crashed %v, want [3]", h.crashed)
	}
	if len(h.restarted) != 1 || h.restarted[0] != 3 {
		t.Fatalf("restarted %v, want [3]", h.restarted)
	}
}

func TestRandomizedDeterministic(t *testing.T) {
	sw := []model.SwitchID{1, 2, 3, 4, 5}
	a := Randomized(42, sw, 0, time.Hour, 40).Describe()
	b := Randomized(42, sw, 0, time.Hour, 40).Describe()
	if a != b {
		t.Fatal("same seed produced different plans")
	}
	c := Randomized(43, sw, 0, time.Hour, 40).Describe()
	if a == c {
		t.Fatal("different seeds produced identical plans")
	}
	if !strings.Contains(a, "crash") && !strings.Contains(a, "fault") {
		t.Fatalf("randomized plan looks empty:\n%s", a)
	}
}

func TestMergeAndDescribe(t *testing.T) {
	p := (&Plan{Name: "merged"}).Merge(
		ControllerOutage(time.Minute, 30*time.Second),
		FlappingControlLink(7, 0, 10*time.Second, 3),
	)
	if len(p.Events) != 4 {
		t.Fatalf("merged %d events, want 4", len(p.Events))
	}
	d := p.Describe()
	if !strings.Contains(d, "controller blackout") || !strings.Contains(d, "S7") {
		t.Fatalf("Describe missing actions:\n%s", d)
	}
}

// miniWorld wires a 3-switch group (no live controller) for the
// checker tests, mirroring the edge test rig.
type ctrlSink struct{}

func (ctrlSink) NodeID() model.SwitchID                       { return model.ControllerNode }
func (ctrlSink) HandleMessage(model.SwitchID, netsim.Message) {}

func miniWorld(t *testing.T) (*sim.Simulator, *netsim.Network, *World) {
	t.Helper()
	s := sim.New(1)
	n := netsim.New(s, netsim.DefaultLatencies())
	n.Attach(ctrlSink{})
	members := []model.SwitchID{1, 2, 3}
	switches := make(map[model.SwitchID]*edge.Switch)
	hosts := make(map[model.SwitchID][]openflow.LFIBEntry)
	for _, id := range members {
		sw := edge.New(edge.Config{ID: id}, n.Env(id))
		h := model.HostID(10 * uint64(id))
		sw.AttachHost(model.HostMAC(h), model.HostIP(h), 1)
		hosts[id] = []openflow.LFIBEntry{{MAC: model.HostMAC(h), IP: model.HostIP(h), VLAN: 1}}
		n.Attach(sw)
		sw.Start()
		switches[id] = sw
	}
	wheel := failover.BuildWheel(members)
	for _, id := range members {
		prev, next := failover.Neighbors(wheel, id)
		switches[id].HandleMessage(model.ControllerNode, &openflow.GroupConfig{
			Group: 1, Members: members, Designated: 2,
			RingPrev: prev, RingNext: next,
			SyncInterval: 5 * time.Second, KeepAliveInterval: time.Second,
			Version: 1,
		})
	}
	w := &World{
		Switches: switches,
		Hosts:    func(sw model.SwitchID) []openflow.LFIBEntry { return hosts[sw] },
		Down:     n.NodeDown,
	}
	return s, n, w
}

func TestWorldConvergesAndDetectsTampering(t *testing.T) {
	s, _, w := miniWorld(t)
	s.RunFor(30 * time.Second)
	if div := w.Diverged(); len(div) != 0 {
		t.Fatalf("fault-free world diverged:\n%s", strings.Join(div, "\n"))
	}
	snap := w.Snapshot()
	if !strings.Contains(snap, "S1 group=1") || !strings.Contains(snap, "gfib S2") {
		t.Fatalf("snapshot missing structure:\n%s", snap)
	}

	// Ghost filter: a tombstoned peer resurrected out of thin air.
	ghost, err := fib.FilterBytesFromWireEntries(w.Hosts(2), fib.DefaultFilterBits, fib.DefaultFilterHashes)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Switches[1].GFIB().SetFilterBytes(99, ghost, 1); err != nil {
		t.Fatal(err)
	}
	div := w.Diverged()
	if len(div) == 0 || !strings.Contains(strings.Join(div, "\n"), "ghost") {
		t.Fatalf("ghost filter not detected: %v", div)
	}
	w.Switches[1].GFIB().RemoveFilter(99)

	// Missing filter.
	w.Switches[1].GFIB().RemoveFilter(3)
	div = w.Diverged()
	if len(div) == 0 || !strings.Contains(strings.Join(div, "\n"), "missing filter") {
		t.Fatalf("missing filter not detected: %v", div)
	}
}

func TestWorldProbeFlagsVersionRegression(t *testing.T) {
	s, _, w := miniWorld(t)
	s.RunFor(30 * time.Second)
	if v := w.Probe(); len(v) != 0 {
		t.Fatalf("first probe flagged: %v", v)
	}
	// Rewind S1's view of S3 to a pre-epoch version: a stale-snapshot
	// adoption the invariant forbids.
	g := w.Switches[1].GFIB()
	cur, _ := g.PeerVersion(3)
	var data []byte
	for i := 0; i < g.Len(); i++ {
		if peer, _ := g.At(i); peer == 3 {
			data = g.AppendFilter(nil, i)
		}
	}
	if err := g.SetFilterBytes(3, data, cur-1); err != nil {
		t.Fatal(err)
	}
	v := w.Probe()
	if len(v) == 0 || !strings.Contains(v[0], "stale") {
		t.Fatalf("version regression not flagged: %v", v)
	}
}

// TestDivergedEmbedsFlightTail forces an invariant violation in a world
// with flight recorders wired and checks that the report embeds the
// violating node's protocol tail — and that the whole dump, tail
// included, is deterministic across identical runs.
func TestDivergedEmbedsFlightTail(t *testing.T) {
	run := func() []string {
		s, n, w := miniWorld(t)
		flights := make(map[model.SwitchID]*telemetry.Flight)
		ring := func(id model.SwitchID) *telemetry.Flight {
			f := flights[id]
			if f == nil {
				f = telemetry.NewFlight(0)
				flights[id] = f
			}
			return f
		}
		n.Observer = func(from, to model.SwitchID, msg netsim.Message, delivered bool) {
			om, ok := msg.(openflow.Message)
			if !ok {
				return
			}
			ev := telemetry.FlightEvent{At: s.Now().Duration(), Type: uint8(om.MsgType())}
			if delivered {
				ev.Peer = int64(from)
				ring(to).Record(ev)
			} else {
				ev.Sent, ev.Peer = true, int64(to)
				ring(from).Record(ev)
			}
		}
		w.Flight = func(sw model.SwitchID) []string { return flights[sw].Tail() }
		s.RunFor(30 * time.Second)
		w.Switches[1].GFIB().RemoveFilter(3)
		return w.Diverged()
	}

	div := run()
	joined := strings.Join(div, "\n")
	if !strings.Contains(joined, "missing filter") {
		t.Fatalf("violation not detected:\n%s", joined)
	}
	var tail int
	for _, line := range div {
		if strings.HasPrefix(line, "flight S1: ") {
			tail++
		}
	}
	if tail == 0 {
		t.Fatalf("no flight tail for the violating switch:\n%s", joined)
	}
	if again := strings.Join(run(), "\n"); again != joined {
		t.Fatalf("flight dump not deterministic:\n--- first\n%s\n--- second\n%s", joined, again)
	}
}
