// Package metrics collects the quantities the LazyCtrl evaluation
// reports: controller workload in requests per second bucketed by wall
// period (Fig. 7), forwarding latency averages (Fig. 9, §V-E), and
// grouping-update frequency (Fig. 8).
package metrics

import (
	"math"
	"time"
)

// Recorder accumulates time-bucketed counters and latency samples over a
// fixed horizon. It is single-threaded, like everything driven by the
// discrete-event simulator.
type Recorder struct {
	bucket time.Duration

	// Controller request counts per bucket, by class.
	workload map[RequestClass][]uint64

	// Latency aggregation per bucket.
	latSum   []float64
	latCount []uint64

	// Cold-cache (first-packet) latency aggregation per bucket.
	coldSum   []float64
	coldCount []uint64

	// coldHist is a log-bucketed histogram of cold-cache latencies
	// (coldBinsPerOctave bins per factor of two from 1 µs), kept so the
	// scaled replay engines can pin latency CDF quantiles against the
	// full DES, not just means.
	coldHist [coldBins]uint64

	// Grouping updates per hour.
	updates []uint64
}

// RequestClass labels controller work for workload accounting.
type RequestClass uint8

// Request classes. All count toward the controller workload of Fig. 7.
const (
	ReqPacketIn RequestClass = iota + 1
	ReqARPRelay
	ReqStateReport
	ReqFloodOut
	ReqFlowMod
	ReqKeepAlive
	ReqRegroup
)

// RequestClasses enumerates all classes (for reports).
var RequestClasses = []RequestClass{
	ReqPacketIn, ReqARPRelay, ReqStateReport, ReqFloodOut, ReqFlowMod, ReqKeepAlive, ReqRegroup,
}

// String names the class.
func (c RequestClass) String() string {
	switch c {
	case ReqPacketIn:
		return "packet-in"
	case ReqARPRelay:
		return "arp-relay"
	case ReqStateReport:
		return "state-report"
	case ReqFloodOut:
		return "flood-out"
	case ReqFlowMod:
		return "flow-mod"
	case ReqKeepAlive:
		return "keep-alive"
	case ReqRegroup:
		return "regroup"
	default:
		return "unknown"
	}
}

// NewRecorder covers [0, horizon) with the given bucket width.
func NewRecorder(horizon, bucket time.Duration) *Recorder {
	if bucket <= 0 {
		bucket = time.Hour
	}
	n := int((horizon + bucket - 1) / bucket)
	if n < 1 {
		n = 1
	}
	hours := int((horizon + time.Hour - 1) / time.Hour)
	if hours < 1 {
		hours = 1
	}
	return &Recorder{
		bucket:    bucket,
		workload:  make(map[RequestClass][]uint64),
		latSum:    make([]float64, n),
		latCount:  make([]uint64, n),
		coldSum:   make([]float64, n),
		coldCount: make([]uint64, n),
		updates:   make([]uint64, hours),
	}
}

// Buckets returns the number of buckets.
func (r *Recorder) Buckets() int { return len(r.latSum) }

func (r *Recorder) idx(at time.Duration) int {
	i := int(at / r.bucket)
	if i < 0 {
		i = 0
	}
	if i >= len(r.latSum) {
		i = len(r.latSum) - 1
	}
	return i
}

// CountRequest records n controller requests of class c at time at.
func (r *Recorder) CountRequest(c RequestClass, at time.Duration, n uint64) {
	row := r.workload[c]
	if row == nil {
		row = make([]uint64, r.Buckets())
		r.workload[c] = row
	}
	row[r.idx(at)] += n
}

// RecordLatency adds a forwarding-latency sample observed at time at.
// weight allows batch-recording the fast-path packets of a flow without
// one event per packet.
func (r *Recorder) RecordLatency(at, latency time.Duration, weight int) {
	if weight <= 0 {
		return
	}
	i := r.idx(at)
	r.latSum[i] += latency.Seconds() * float64(weight)
	r.latCount[i] += uint64(weight)
}

// coldBins spans 1 µs to ~16 s at coldBinsPerOctave bins per octave
// (≈19% geometric resolution per bin — finer than any tolerance band
// the scaled engines pin quantiles at).
const (
	coldBinsPerOctave = 4
	coldBins          = 24 * coldBinsPerOctave
)

func coldBin(latency time.Duration) int {
	us := float64(latency) / float64(time.Microsecond)
	if us <= 1 {
		return 0
	}
	b := int(math.Log2(us) * coldBinsPerOctave)
	if b >= coldBins {
		b = coldBins - 1
	}
	return b
}

// RecordColdLatency adds a first-packet latency sample.
func (r *Recorder) RecordColdLatency(at, latency time.Duration) {
	i := r.idx(at)
	r.coldSum[i] += latency.Seconds()
	r.coldCount[i] += 1
	r.coldHist[coldBin(latency)]++
	// Cold packets are packets too.
	r.RecordLatency(at, latency, 1)
}

// ColdLatencyQuantile returns the q-quantile (q in [0,1]) of the
// recorded cold-cache latencies, as the geometric midpoint of the
// histogram bin holding it. The log-bucketed estimate is exact to one
// bin (≈19%). On an empty histogram it returns 0 for every q — the
// same empty-value contract as AvgColdLatency — and out-of-range q is
// clamped into [0,1], so q=0 is the lowest occupied bin and q=1 the
// highest.
func (r *Recorder) ColdLatencyQuantile(q float64) time.Duration {
	var total uint64
	for _, c := range r.coldHist {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen uint64
	for b, c := range r.coldHist {
		seen += c
		if seen > target {
			us := math.Exp2((float64(b) + 0.5) / coldBinsPerOctave)
			return time.Duration(us * float64(time.Microsecond))
		}
	}
	return 0
}

// RecordUpdate counts one grouping update at time at.
func (r *Recorder) RecordUpdate(at time.Duration) {
	h := int(at / time.Hour)
	if h < 0 {
		h = 0
	}
	if h >= len(r.updates) {
		h = len(r.updates) - 1
	}
	r.updates[h]++
}

// WorkloadPerBucket returns total controller requests per bucket.
func (r *Recorder) WorkloadPerBucket() []uint64 {
	out := make([]uint64, r.Buckets())
	for _, row := range r.workload {
		for i, v := range row {
			out[i] += v
		}
	}
	return out
}

// TotalWorkload returns the total request count.
func (r *Recorder) TotalWorkload() uint64 {
	var sum uint64
	for _, v := range r.WorkloadPerBucket() {
		sum += v
	}
	return sum
}

// WorkloadRPSFor converts the per-bucket counts of the given request
// classes to requests/second, multiplied by scale to undo a trace's
// flow-count scaling (Fig. 7 counts received control requests, not
// flood fan-out sends).
func (r *Recorder) WorkloadRPSFor(scale int, classes ...RequestClass) []float64 {
	return r.WorkloadRPSForScaled(float64(scale), classes...)
}

// WorkloadRPSForScaled is WorkloadRPSFor with a real-valued scale: the
// sampled replay engines undo a fractional pair-sampling probability
// (scale/p) on top of the trace's integer flow-count divisor.
func (r *Recorder) WorkloadRPSForScaled(scale float64, classes ...RequestClass) []float64 {
	counts := make([]uint64, r.Buckets())
	for _, c := range classes {
		for i, v := range r.workload[c] {
			counts[i] += v
		}
	}
	return r.rpsOf(counts, scale)
}

func (r *Recorder) rpsOf(counts []uint64, scale float64) []float64 {
	if scale < 1 {
		scale = 1
	}
	out := make([]float64, len(counts))
	sec := r.bucket.Seconds()
	for i, c := range counts {
		out[i] = float64(c) * scale / sec
	}
	return out
}

// AvgLatencyPerBucket returns the mean forwarding latency per bucket (0
// for empty buckets).
func (r *Recorder) AvgLatencyPerBucket() []time.Duration {
	out := make([]time.Duration, r.Buckets())
	for i := range out {
		if r.latCount[i] > 0 {
			out[i] = time.Duration(r.latSum[i] / float64(r.latCount[i]) * float64(time.Second))
		}
	}
	return out
}

// AvgColdLatency returns the mean first-packet latency over the
// horizon. With no samples it returns 0, never NaN: the empty-histogram
// zero value is part of the contract (the telemetry registry snapshots
// these helpers verbatim, and a NaN would poison the dump).
func (r *Recorder) AvgColdLatency() time.Duration {
	var sum float64
	var count uint64
	for i := range r.coldSum {
		sum += r.coldSum[i]
		count += r.coldCount[i]
	}
	if count == 0 {
		return 0
	}
	return time.Duration(sum / float64(count) * float64(time.Second))
}

// UpdatesPerHour returns grouping updates per hour.
func (r *Recorder) UpdatesPerHour() []uint64 {
	out := make([]uint64, len(r.updates))
	copy(out, r.updates)
	return out
}

// TotalUpdates returns the total number of grouping updates.
func (r *Recorder) TotalUpdates() uint64 {
	var sum uint64
	for _, v := range r.updates {
		sum += v
	}
	return sum
}
