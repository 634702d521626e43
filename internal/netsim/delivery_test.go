package netsim

import (
	"testing"
	"time"

	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/sim"
)

// counter is a test node that counts deliveries without keeping them,
// so it allocates nothing itself.
type counter struct {
	id model.SwitchID
	n  int
}

func (c *counter) NodeID() model.SwitchID                { return c.id }
func (c *counter) HandleMessage(model.SwitchID, Message) { c.n++ }

// TestSteadyStateDeliveryDoesNotAllocate pins that a message in flight
// costs no allocation once the delivery pool and the event pool are
// warm: a data packet, a control message (seen by the Observer at send
// and at delivery), and a periodic round that sends, each run to
// delivery.
func TestSteadyStateDeliveryDoesNotAllocate(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultLatencies())
	a, b := &counter{id: 1}, &counter{id: 2}
	n.Attach(a)
	n.Attach(b)
	observed := 0
	n.Observer = func(model.SwitchID, model.SwitchID, Message, bool) { observed++ }
	env := n.Env(1)
	pkt := &model.Packet{VLAN: 1, Bytes: 64}
	ka := &openflow.KeepAlive{From: 1, Seq: 1}

	round := false
	env.Every(time.Second, func() {
		if round {
			env.Send(2, ka)
		}
	})
	settle := func() { s.RunFor(time.Second) }

	cases := []struct {
		name string
		run  func()
	}{
		{"data packet", func() { env.Send(2, pkt); settle() }},
		{"control message", func() { env.Send(2, ka); settle() }},
		// The round sends on the tick that ends settle; the extra
		// millisecond runs its delivery.
		{"Every round", func() { round = true; settle(); round = false; s.RunFor(time.Millisecond) }},
	}
	for _, tc := range cases {
		before := b.n
		if allocs := testing.AllocsPerRun(100, tc.run); allocs != 0 {
			t.Errorf("%s: %.1f allocs per send, want 0", tc.name, allocs)
		}
		if got := b.n - before; got != 101 { // AllocsPerRun's warm-up run plus 100
			t.Errorf("%s: %d deliveries, want 101", tc.name, got)
		}
	}
	if observed != 2*2*101 {
		t.Errorf("Observer saw %d control events, want %d (send and delivery of 202 messages)", observed, 2*2*101)
	}
}

// relay forwards everything it receives to next, recording what it
// was handed. Its send happens inside HandleMessage, after the
// delivery that brought the message went back to the pool, so it
// reuses that delivery at once.
type relay struct {
	recorder
	net  *Network
	next model.SwitchID
}

func (r *relay) HandleMessage(from model.SwitchID, msg Message) {
	r.recorder.HandleMessage(from, msg)
	r.net.Env(r.id).Send(r.next, msg)
}

func TestRelayReusesDeliverySafely(t *testing.T) {
	s := sim.New(1)
	n := New(s, Latencies{Data: time.Millisecond, Control: time.Millisecond, Peer: time.Millisecond})
	src := &recorder{id: 1}
	mid := &relay{recorder: recorder{id: 2}, net: n, next: 3}
	dst := &recorder{id: 3}
	n.Attach(src)
	n.Attach(mid)
	n.Attach(dst)
	type hop struct {
		from, to model.SwitchID
		msg      Message
	}
	var delivered []hop
	n.Observer = func(from, to model.SwitchID, msg Message, done bool) {
		if done {
			delivered = append(delivered, hop{from, to, msg})
		}
	}

	// Five messages in flight at once, sent a microsecond apart so the
	// order is fixed, each forwarded on arrival.
	const k = 5
	msgs := make([]*openflow.KeepAlive, k)
	for i := range msgs {
		msgs[i] = &openflow.KeepAlive{From: 1, Seq: uint64(i + 1)}
		m := msgs[i]
		s.At(sim.Time(i)*sim.Time(time.Microsecond), func() { n.Env(1).Send(2, m) })
	}
	s.Run()

	for name, r := range map[string]*recorder{"relay": &mid.recorder, "sink": dst} {
		if r.count() != k {
			t.Fatalf("%s received %d messages, want %d", name, r.count(), k)
		}
		want := model.SwitchID(1)
		if r == dst {
			want = 2
		}
		for i := range r.got {
			if r.got[i] != Message(msgs[i]) || r.from[i] != want {
				t.Errorf("%s message %d = %v from %v, want %v from %v", name, i, r.got[i], r.from[i], msgs[i], want)
			}
		}
	}
	if len(delivered) != 2*k {
		t.Fatalf("Observer saw %d deliveries, want %d", len(delivered), 2*k)
	}
	// All five reach the relay before the first forward lands.
	for i, h := range delivered {
		want := hop{1, 2, Message(msgs[i%k])}
		if i >= k {
			want = hop{2, 3, Message(msgs[i%k])}
		}
		if h != want {
			t.Errorf("delivery %d observed as %v, want %v", i, h, want)
		}
	}
	if n.Delivered != 2*k {
		t.Errorf("Delivered = %d, want %d", n.Delivered, 2*k)
	}
}
