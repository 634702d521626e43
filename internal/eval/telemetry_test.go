package eval

import (
	"strings"
	"testing"
	"time"

	"lazyctrl/internal/controller"
	"lazyctrl/internal/model"
	"lazyctrl/internal/openflow"
	"lazyctrl/internal/replay"
	"lazyctrl/internal/telemetry"
)

// telemetryDump renders everything the exposition layer can emit from
// one run — span JSONL, metrics JSONL, and the Prometheus-style text
// snapshot — as one string, so the determinism tests compare the full
// surface byte for byte.
func telemetryDump(t *testing.T, res *EmulationResult) string {
	t.Helper()
	var b strings.Builder
	if err := res.Spans.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if err := res.Metrics.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if err := res.Metrics.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestTelemetryDumpDeterministic runs the same seed and config twice
// per engine and pins the full telemetry dump byte-identical — the
// observability acceptance criterion of ROADMAP.md.
func TestTelemetryDumpDeterministic(t *testing.T) {
	for _, engine := range []replay.Engine{replay.EngineDES, replay.EngineSampled} {
		run := func() string {
			tr := smallTrace(t, 7)
			res, err := RunEmulation(EmulationConfig{
				Source:         tr.Stream(0),
				Mode:           controller.ModeLazy,
				GroupSizeLimit: 6,
				Horizon:        2 * time.Hour,
				BucketWidth:    time.Hour,
				Seed:           7,
				Engine:         engine,
				SampleProb:     0.5,
				TraceSample:    1,
				FlightDepth:    16,
			})
			if err != nil {
				t.Fatalf("engine %v: %v", engine, err)
			}
			if res.Spans.Len() == 0 {
				t.Fatalf("engine %v: no spans completed", engine)
			}
			return telemetryDump(t, res)
		}
		a, b := run(), run()
		if a != b {
			t.Errorf("engine %v: telemetry dump differs between identical runs", engine)
		}
		if !strings.Contains(a, `"name":"pktin"`) {
			t.Errorf("engine %v: no pktin trace in dump", engine)
		}
		if !strings.Contains(a, "lazyctrl_ctrl_packetins_total") {
			t.Errorf("engine %v: registry missing re-homed controller counter", engine)
		}
	}
}

// TestHostSamplingEngineMode exercises satellite host-level sampling
// end to end: the mode runs under EngineSampled, keeps SampleProb's
// meaning as the pair inclusion probability, and is rejected outside
// the sampled engine.
func TestHostSamplingEngineMode(t *testing.T) {
	tr := smallTrace(t, 3)
	res, err := RunEmulation(EmulationConfig{
		Source:         tr.Stream(0),
		Mode:           controller.ModeLearning,
		GroupSizeLimit: 6,
		Horizon:        2 * time.Hour,
		BucketWidth:    time.Hour,
		Seed:           3,
		Engine:         replay.EngineSampled,
		SampleProb:     0.5,
		HostSampling:   true,
	})
	if err != nil {
		t.Fatalf("host-sampled run: %v", err)
	}
	if res.FlowsInjected == 0 {
		t.Fatal("host sampling injected nothing")
	}
	if ratio := float64(res.FlowsDelivered) / float64(res.FlowsInjected); ratio < 0.95 {
		t.Errorf("delivery ratio = %.3f", ratio)
	}
	if res.WorkloadStdErrKrps == nil {
		t.Error("host-sampled engine reported no confidence bands")
	}

	tr2 := smallTrace(t, 3)
	if _, err := RunEmulation(EmulationConfig{
		Source:       tr2.Stream(0),
		Mode:         controller.ModeLearning,
		Horizon:      time.Hour,
		Seed:         3,
		HostSampling: true,
	}); err == nil {
		t.Error("HostSampling accepted outside the sampled engine")
	}
}

// TestFlightEventNamesMatchWire pins flightEvent's case-local type
// names to the wire codec's own MsgType name table: the hot path
// inlines the strings to skip two dynamic dispatches per event, and
// this is the tripwire if either side is renamed.
func TestFlightEventNamesMatchWire(t *testing.T) {
	msgs := []openflow.Message{
		&openflow.KeepAlive{}, &openflow.StateReport{},
		&openflow.GFIBDelta{}, &openflow.ConfigAck{},
		&openflow.GFIBUpdate{}, &openflow.Batch{},
		&openflow.GroupConfig{}, &openflow.PacketIn{},
		&openflow.PacketOut{}, &openflow.FlowMod{},
		&openflow.LFIBUpdate{}, &openflow.RoleAnnounce{},
		&openflow.StateSyncRecord{},
	}
	for _, m := range msgs {
		ev, ok := flightEvent(0, m)
		if !ok {
			t.Fatalf("%T: flightEvent rejected a control message", m)
		}
		if got, want := telemetry.FlightTypeName(ev.Type), m.MsgType().String(); got != want {
			t.Errorf("%T: flight type renders %q, wire name %q", m, got, want)
		}
	}
	if _, ok := flightEvent(0, &model.Packet{}); ok {
		t.Error("flightEvent accepted a data-plane packet")
	}
}
