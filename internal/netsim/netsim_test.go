package netsim

import (
	"testing"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/sim"
)

// recorder is a test node capturing deliveries.
type recorder struct {
	id   model.SwitchID
	got  []Message
	from []model.SwitchID
}

func (r *recorder) NodeID() model.SwitchID { return r.id }

func (r *recorder) HandleMessage(from model.SwitchID, msg Message) {
	r.got = append(r.got, msg)
	r.from = append(r.from, from)
}

func (r *recorder) count() int { return len(r.got) }

func TestSimDelivery(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultLatencies())
	a := &recorder{id: 1}
	b := &recorder{id: 2}
	n.Attach(a)
	n.Attach(b)

	n.Env(1).Send(2, "hello")
	s.Run()
	if b.count() != 1 {
		t.Fatalf("b received %d messages, want 1", b.count())
	}
	if b.from[0] != 1 {
		t.Errorf("from = %v, want 1", b.from[0])
	}
	if n.Delivered != 1 || n.Drops.Total() != 0 {
		t.Errorf("Delivered=%d Drops=%d", n.Delivered, n.Drops.Total())
	}
	// Latency applied: clock advanced by ≥ Data latency.
	if s.Now().Duration() < 350*time.Microsecond {
		t.Errorf("clock = %v, want ≥ 350µs", s.Now())
	}
}

func TestSimLinkFailure(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultLatencies())
	a := &recorder{id: 1}
	b := &recorder{id: 2}
	n.Attach(a)
	n.Attach(b)
	n.FailLink(1, 2)
	n.Env(1).Send(2, "lost")
	s.Run()
	if b.count() != 0 {
		t.Fatal("message delivered over failed link")
	}
	if n.Drops.DownAtSend != 1 {
		t.Errorf("Drops.DownAtSend = %d, want 1", n.Drops.DownAtSend)
	}
	n.HealLink(1, 2)
	n.Env(1).Send(2, "ok")
	s.Run()
	if b.count() != 1 {
		t.Fatal("message not delivered after heal")
	}
}

func TestSimNodeFailure(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultLatencies())
	a := &recorder{id: 1}
	b := &recorder{id: 2}
	n.Attach(a)
	n.Attach(b)
	n.FailNode(2)
	if !n.NodeDown(2) {
		t.Error("NodeDown(2) = false")
	}
	n.Env(1).Send(2, "lost")
	s.Run()
	if b.count() != 0 {
		t.Fatal("failed node received message")
	}
	n.HealNode(2)
	n.Env(1).Send(2, "ok")
	s.Run()
	if b.count() != 1 {
		t.Fatal("healed node did not receive")
	}
}

func TestSimFailureAtDeliveryTime(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultLatencies())
	a := &recorder{id: 1}
	b := &recorder{id: 2}
	n.Attach(a)
	n.Attach(b)
	// Send, then fail the node before the in-flight deliveries.
	n.Env(1).Send(2, "in-flight-1")
	n.Env(1).Send(2, "in-flight-2")
	n.FailNode(2)
	s.Run()
	if b.count() != 0 {
		t.Error("in-flight message delivered to node that failed before arrival")
	}
	if n.Drops.DownAtDelivery != 2 {
		t.Errorf("Drops.DownAtDelivery = %d, want 2", n.Drops.DownAtDelivery)
	}

	// The dropped deliveries went back to the pool; the next sends
	// reuse them and must carry only their own messages.
	n.HealNode(2)
	n.Env(1).Send(2, "ok-1")
	n.Env(2).Send(1, "ok-2")
	n.Env(1).Send(2, "ok-3")
	s.Run()
	if b.count() != 2 || a.count() != 1 {
		t.Fatalf("after heal: node 2 got %d, node 1 got %d; want 2 and 1", b.count(), a.count())
	}
	got := map[Message]model.SwitchID{b.got[0]: b.from[0], b.got[1]: b.from[1], a.got[0]: a.from[0]}
	for m, from := range map[Message]model.SwitchID{"ok-1": 1, "ok-3": 1, "ok-2": 2} {
		if got[m] != from {
			t.Errorf("%v delivered from %v, want %v", m, got[m], from)
		}
	}
	if n.Delivered != 3 || n.Drops.DownAtDelivery != 2 {
		t.Errorf("Delivered = %d, DownAtDelivery = %d; want 3 and 2", n.Delivered, n.Drops.DownAtDelivery)
	}
}

func TestFaultRuleLoss(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultLatencies())
	a := &recorder{id: 1}
	b := &recorder{id: 2}
	n.Attach(a)
	n.Attach(b)

	remove := n.AddFault(FaultRule{A: 1, B: 2, Loss: 1.0})
	for i := 0; i < 5; i++ {
		n.Env(1).Send(2, i)
		n.Env(2).Send(1, i) // rules match both directions
	}
	s.Run()
	if b.count() != 0 || a.count() != 0 {
		t.Fatalf("deliveries = %d/%d under Loss=1.0, want 0/0", a.count(), b.count())
	}
	if n.Drops.InjectedLoss != 10 {
		t.Errorf("Drops.InjectedLoss = %d, want 10", n.Drops.InjectedLoss)
	}
	remove()
	n.Env(1).Send(2, "ok")
	s.Run()
	if b.count() != 1 {
		t.Fatal("message not delivered after rule removal")
	}
}

func TestFaultRuleWildcard(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultLatencies())
	for _, id := range []model.SwitchID{1, 2, 3} {
		n.Attach(&recorder{id: id})
	}
	// Wildcard endpoint: every link touching switch 2 is lossy.
	n.AddFault(FaultRule{A: 2, B: model.NoSwitch, Loss: 1.0})
	n.Env(1).Send(2, "lost")
	n.Env(2).Send(3, "lost")
	n.Env(1).Send(3, "ok")
	s.Run()
	if n.Drops.InjectedLoss != 2 {
		t.Errorf("Drops.InjectedLoss = %d, want 2", n.Drops.InjectedLoss)
	}
	if n.Delivered != 1 {
		t.Errorf("Delivered = %d, want 1 (1→3 unaffected)", n.Delivered)
	}
}

func TestFaultRuleExtraDelay(t *testing.T) {
	lat := Latencies{Data: time.Millisecond}
	s := sim.New(1)
	n := New(s, lat)
	n.Attach(&recorder{id: 1})
	n.Attach(&recorder{id: 2})
	n.AddFault(FaultRule{A: 1, B: 2, ExtraDelay: 10 * time.Millisecond})
	n.Env(1).Send(2, "slow")
	s.Run()
	if got := s.Now().Duration(); got != 11*time.Millisecond {
		t.Errorf("delivery at %v, want 11ms (1ms base + 10ms injected)", got)
	}
}

func TestFaultRuleReorder(t *testing.T) {
	lat := Latencies{Data: time.Millisecond}
	s := sim.New(1)
	n := New(s, lat)
	a := &recorder{id: 1}
	b := &recorder{id: 2}
	n.Attach(a)
	n.Attach(b)
	// Force a reordering delay on the first message only, so the second
	// overtakes it deterministically.
	remove := n.AddFault(FaultRule{A: 1, B: 2, ReorderProb: 1.0, ReorderDelay: 50 * time.Millisecond})
	n.Env(1).Send(2, "first")
	remove()
	n.Env(1).Send(2, "second")
	s.Run()
	if b.count() != 2 {
		t.Fatalf("delivered %d, want 2", b.count())
	}
	if b.got[0] != "second" || b.got[1] != "first" {
		t.Errorf("delivery order = %v, want [second first]", b.got)
	}
}

func TestPartition(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultLatencies())
	for _, id := range []model.SwitchID{1, 2, 3, 4} {
		n.Attach(&recorder{id: id})
	}
	heal := n.Partition([]model.SwitchID{1, 2}, []model.SwitchID{3, 4})
	n.Env(1).Send(3, "cut")
	n.Env(4).Send(2, "cut")
	n.Env(1).Send(2, "same side")
	n.Env(3).Send(4, "same side")
	s.Run()
	if n.Drops.Partition != 2 {
		t.Errorf("Drops.Partition = %d, want 2", n.Drops.Partition)
	}
	if n.Delivered != 2 {
		t.Errorf("Delivered = %d, want 2 (intra-side traffic unaffected)", n.Delivered)
	}
	heal()
	n.Env(1).Send(3, "ok")
	s.Run()
	if n.Delivered != 3 {
		t.Error("message not delivered after heal")
	}
}

// TestRemovalReleasesTailSlot pins that removing a fault rule or healing
// a partition leaves no stale pointer behind the slice's new length.
func TestRemovalReleasesTailSlot(t *testing.T) {
	n := New(sim.New(1), DefaultLatencies())
	remove := n.AddFault(FaultRule{Loss: 1})
	n.AddFault(FaultRule{Loss: 0.5})
	heal := n.Partition([]model.SwitchID{1}, []model.SwitchID{2})
	n.Partition([]model.SwitchID{3}, []model.SwitchID{4})
	remove()
	heal()
	remove() // a second call finds nothing and changes nothing
	if len(n.faults) != 1 || n.faults[0].Loss != 0.5 || n.faults[:2][1] != nil {
		t.Errorf("faults after removal: %v, vacated slot %v; want the second rule and nil", n.faults, n.faults[:2][1])
	}
	if len(n.partitions) != 1 || !n.partitions[0].a[3] || n.partitions[:2][1] != nil {
		t.Errorf("partitions after heal: %d left, vacated slot %v; want the second cut and nil", len(n.partitions), n.partitions[:2][1])
	}
}

func TestSimUnknownDestination(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultLatencies())
	a := &recorder{id: 1}
	n.Attach(a)
	n.Env(1).Send(99, "void")
	s.Run()
	if n.Drops.NoRoute != 1 {
		t.Errorf("Drops.NoRoute = %d, want 1", n.Drops.NoRoute)
	}
}

func TestLinkClassLatencies(t *testing.T) {
	lat := Latencies{Data: time.Millisecond, Control: 2 * time.Millisecond, Peer: 500 * time.Microsecond}
	s := sim.New(1)
	n := New(s, lat)
	n.SetSameGroup(func(a, b model.SwitchID) bool { return a <= 2 && b <= 2 })
	a := &recorder{id: 1}
	b := &recorder{id: 2}
	c := &recorder{id: 3}
	ctrl := &recorder{id: model.ControllerNode}
	n.Attach(a)
	n.Attach(b)
	n.Attach(c)
	n.Attach(ctrl)

	// Peer link 1→2 (same group): 500µs.
	n.Env(1).Send(2, "peer")
	s.Run()
	if got := s.Now().Duration(); got != 500*time.Microsecond {
		t.Errorf("peer delivery at %v, want 500µs", got)
	}
	// Data link 1→3: +1ms.
	n.Env(1).Send(3, "data")
	s.Run()
	if got := s.Now().Duration(); got != 1500*time.Microsecond {
		t.Errorf("data delivery at %v, want 1.5ms total", got)
	}
	// Control link 1→controller: +2ms.
	n.Env(1).Send(model.ControllerNode, "ctrl")
	s.Run()
	if got := s.Now().Duration(); got != 3500*time.Microsecond {
		t.Errorf("control delivery at %v, want 3.5ms total", got)
	}
}

func TestEnvTimers(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultLatencies())
	a := &recorder{id: 1}
	n.Attach(a)
	env := n.Env(1)

	fired := 0
	env.After(time.Second, func() { fired++ })
	cancel := env.After(2*time.Second, func() { fired += 100 })
	cancel()
	ticks := 0
	stopTick := env.Every(time.Second, func() {
		ticks++
		if ticks == 3 {
			// Cancel from within the callback.
			// (stopTick captured below.)
		}
	})
	s.RunFor(3500 * time.Millisecond)
	stopTick()
	s.RunFor(10 * time.Second)
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (canceled timer must not run)", fired)
	}
	if ticks != 3 {
		t.Errorf("ticks = %d, want 3", ticks)
	}
}

func TestAttachDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Attach did not panic")
		}
	}()
	s := sim.New(1)
	n := New(s, DefaultLatencies())
	n.Attach(&recorder{id: 1})
	n.Attach(&recorder{id: 1})
}
