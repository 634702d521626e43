package metrics

import (
	"testing"
	"time"
)

func TestBucketLayout(t *testing.T) {
	r := NewRecorder(24*time.Hour, 2*time.Hour)
	if r.Buckets() != 12 {
		t.Errorf("Buckets() = %d, want 12", r.Buckets())
	}
	if r.bucket != 2*time.Hour {
		t.Errorf("bucket width = %v", r.bucket)
	}
	// Degenerate inputs survive.
	d := NewRecorder(0, 0)
	if d.Buckets() < 1 {
		t.Error("degenerate recorder has no buckets")
	}
}

func TestCountRequest(t *testing.T) {
	r := NewRecorder(24*time.Hour, 2*time.Hour)
	r.CountRequest(ReqPacketIn, 1*time.Hour, 5)
	r.CountRequest(ReqFloodOut, 1*time.Hour, 2)
	r.CountRequest(ReqPacketIn, 3*time.Hour, 1)
	r.CountRequest(ReqPacketIn, 1000*time.Hour, 1) // clamps to last bucket

	per := r.WorkloadPerBucket()
	if per[0] != 7 {
		t.Errorf("bucket 0 = %d, want 7", per[0])
	}
	if per[1] != 1 {
		t.Errorf("bucket 1 = %d, want 1", per[1])
	}
	if per[11] != 1 {
		t.Errorf("bucket 11 = %d, want 1 (clamped)", per[11])
	}
	if r.TotalWorkload() != 9 {
		t.Errorf("TotalWorkload = %d, want 9", r.TotalWorkload())
	}
}

func TestWorkloadRPS(t *testing.T) {
	r := NewRecorder(24*time.Hour, 2*time.Hour)
	r.CountRequest(ReqPacketIn, time.Hour, 7200) // 1/s over a 2h bucket
	rps := r.WorkloadRPSFor(1, ReqPacketIn)
	if rps[0] != 1 {
		t.Errorf("rps[0] = %v, want 1", rps[0])
	}
	scaled := r.WorkloadRPSFor(1000, ReqPacketIn)
	if scaled[0] != 1000 {
		t.Errorf("scaled rps[0] = %v, want 1000", scaled[0])
	}
}

func TestLatencyAveraging(t *testing.T) {
	r := NewRecorder(4*time.Hour, 2*time.Hour)
	r.RecordLatency(time.Hour, 400*time.Microsecond, 9)
	r.RecordColdLatency(time.Hour, 4*time.Millisecond)
	avg := r.AvgLatencyPerBucket()
	// (9×0.4ms + 1×4ms)/10 = 0.76ms
	want := 760 * time.Microsecond
	if diff := avg[0] - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("bucket avg = %v, want %v", avg[0], want)
	}
	if avg[1] != 0 {
		t.Errorf("empty bucket avg = %v, want 0", avg[1])
	}
	if got := r.AvgColdLatency(); got != 4*time.Millisecond {
		t.Errorf("AvgColdLatency = %v, want 4ms", got)
	}
	// Zero/negative weights ignored.
	r.RecordLatency(time.Hour, time.Second, 0)
	r.RecordLatency(time.Hour, time.Second, -5)
	if got := r.AvgLatencyPerBucket()[0]; got-want < -time.Microsecond || got-want > time.Microsecond {
		t.Errorf("bucket avg after no-op records = %v, want %v", got, want)
	}
}

func TestUpdates(t *testing.T) {
	r := NewRecorder(24*time.Hour, 2*time.Hour)
	r.RecordUpdate(30 * time.Minute)
	r.RecordUpdate(90 * time.Minute)
	r.RecordUpdate(5 * time.Hour)
	per := r.UpdatesPerHour()
	if len(per) != 24 {
		t.Fatalf("UpdatesPerHour length = %d, want 24", len(per))
	}
	if per[0] != 1 || per[1] != 1 || per[5] != 1 {
		t.Errorf("updates = %v", per[:6])
	}
	if r.TotalUpdates() != 3 {
		t.Errorf("TotalUpdates = %d, want 3", r.TotalUpdates())
	}
}

func TestEmptyRecorder(t *testing.T) {
	r := NewRecorder(24*time.Hour, 2*time.Hour)
	if r.AvgColdLatency() != 0 {
		t.Error("empty recorder reports nonzero latency")
	}
	if r.TotalWorkload() != 0 || r.TotalUpdates() != 0 {
		t.Error("empty recorder reports nonzero counts")
	}
}

func TestRequestClassString(t *testing.T) {
	for _, c := range []RequestClass{
		ReqPacketIn, ReqARPRelay, ReqStateReport, ReqFloodOut, ReqKeepAlive, ReqRegroup,
	} {
		if c.String() == "unknown" {
			t.Errorf("class %d has no name", c)
		}
	}
	if RequestClass(99).String() != "unknown" {
		t.Error("unknown class misnamed")
	}
}

func TestColdLatencyQuantiles(t *testing.T) {
	r := NewRecorder(time.Hour, time.Hour)
	if r.ColdLatencyQuantile(0.5) != 0 {
		t.Error("empty histogram reports a quantile")
	}
	// 90 samples at ~400µs, 10 at ~5ms: q50 must sit in the 400µs bin,
	// q95 in the 5ms bin, within the histogram's one-bin (≈19%)
	// resolution.
	for i := 0; i < 90; i++ {
		r.RecordColdLatency(0, 400*time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		r.RecordColdLatency(0, 5*time.Millisecond)
	}
	if q := r.ColdLatencyQuantile(0.5); q < 330*time.Microsecond || q > 480*time.Microsecond {
		t.Errorf("q50 = %v, want ≈400µs", q)
	}
	if q := r.ColdLatencyQuantile(0.95); q < 4100*time.Microsecond || q > 6100*time.Microsecond {
		t.Errorf("q95 = %v, want ≈5ms", q)
	}
	if lo, hi := r.ColdLatencyQuantile(0), r.ColdLatencyQuantile(1); lo > hi {
		t.Errorf("quantiles not monotone: q0=%v q1=%v", lo, hi)
	}
	// Out-of-range latencies clamp into the edge bins.
	r.RecordColdLatency(0, time.Nanosecond)
	r.RecordColdLatency(0, time.Hour)
	if q := r.ColdLatencyQuantile(1); q <= 0 {
		t.Errorf("clamped sample broke the top quantile: %v", q)
	}
}

func TestWorkloadRPSForScaled(t *testing.T) {
	r := NewRecorder(2*time.Hour, time.Hour)
	r.CountRequest(ReqPacketIn, 0, 360)              // bucket 0
	r.CountRequest(ReqPacketIn, 90*time.Minute, 720) // bucket 1
	r.CountRequest(ReqARPRelay, 0, 360)
	// The scale undoes a trace's flow-count divisor: 360+360 requests
	// in a 3600 s bucket at scale 5 → 1 rps.
	got := r.WorkloadRPSFor(5, ReqPacketIn, ReqARPRelay)
	if len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Errorf("scaled rps = %v, want [1 1]", got)
	}
	// Only the named classes count.
	if got := r.WorkloadRPSFor(5, ReqPacketIn); got[0] != 0.5 || got[1] != 1 {
		t.Errorf("packet-in rps = %v, want [0.5 1]", got)
	}
}

// TestEmptyHistogramZeroValues pins the empty-value contract of the
// quantile/average helpers: a fresh recorder returns 0 (never NaN or a
// panic) from every one of them, for any quantile — the telemetry
// registry snapshots these verbatim into dumps that must stay clean.
func TestEmptyHistogramZeroValues(t *testing.T) {
	r := NewRecorder(4*time.Hour, time.Hour)
	cases := []struct {
		name string
		got  time.Duration
	}{
		{"AvgColdLatency", r.AvgColdLatency()},
		{"ColdLatencyQuantile(0)", r.ColdLatencyQuantile(0)},
		{"ColdLatencyQuantile(0.5)", r.ColdLatencyQuantile(0.5)},
		{"ColdLatencyQuantile(1)", r.ColdLatencyQuantile(1)},
		{"ColdLatencyQuantile(-1)", r.ColdLatencyQuantile(-1)},
		{"ColdLatencyQuantile(2)", r.ColdLatencyQuantile(2)},
	}
	for _, c := range cases {
		if c.got != 0 {
			t.Errorf("%s = %v on empty recorder, want 0", c.name, c.got)
		}
	}
	for i, v := range r.AvgLatencyPerBucket() {
		if v != 0 {
			t.Errorf("AvgLatencyPerBucket()[%d] = %v on empty recorder, want 0", i, v)
		}
	}

	// One sample makes every helper non-zero and q-clamping total.
	r.RecordColdLatency(time.Minute, 3*time.Millisecond)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if r.ColdLatencyQuantile(q) == 0 {
			t.Errorf("ColdLatencyQuantile(%v) = 0 with one sample", q)
		}
	}
	if r.AvgColdLatency() == 0 || r.AvgLatencyPerBucket()[0] == 0 {
		t.Error("averages still 0 after one cold sample")
	}
}
