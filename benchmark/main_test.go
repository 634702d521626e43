package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func allWorkloads() []*workload {
	var ws []*workload
	for i := range workloads {
		ws = append(ws, &workloads[i])
	}
	return ws
}

// lastLine returns the machine-readable line that ends a run's output.
func lastLine(t *testing.T, out *bytes.Buffer) []byte {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	return lines[len(lines)-1]
}

// TestShortSuite is a short-sized untraced pass through all seven
// workloads. It and TestTracedPath run side by side to fit tier-1's budget;
// neither looks at a timing.
func TestShortSuite(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	opts := &options{workloads: allWorkloads(), seed: 1, rounds: 1, repeat: 1, sz: shortSizes}
	if err := run(opts, &out); err != nil {
		t.Fatalf("untraced run: %v\n%s", err, out.String())
	}
	var doc struct {
		NProc     int `json:"nproc"`
		Workloads map[string]struct {
			jsonResult
			RoundWallS []float64 `json:"round_wall_s"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(lastLine(t, &out), &doc); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if doc.NProc < 1 || len(doc.Workloads) != len(workloads) {
		t.Fatalf("suite JSON names %d workloads on %d processors", len(doc.Workloads), doc.NProc)
	}
	for name, w := range doc.Workloads {
		if !w.Correct || w.Attempted < 1 || w.Failed != 0 || len(w.RoundWallS) != opts.rounds {
			t.Errorf("%s: correct=%v attempted=%d failed=%d rounds=%d", name, w.Correct, w.Attempted, w.Failed, len(w.RoundWallS))
		}
		for _, m := range endToEnd {
			if v := w.Metrics[m.Name]; !(v.Value > 0) || v.Unit != m.Unit {
				t.Errorf("%s: %s = %v %q, want a positive value in %s", name, m.Name, v.Value, v.Unit, m.Unit)
			}
		}
		if len(w.Metrics) != len(endToEnd) {
			t.Errorf("%s prints %d end-to-end metrics, %d are declared", name, len(w.Metrics), len(endToEnd))
		}
	}
}

// TestTracedPath is the traced run of one workload, the way the driver
// runs it.
func TestTracedPath(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	opts := &options{workloads: []*workload{workloadByName("replay-lazy")}, seed: 1, rounds: 2, repeat: 1,
		trace: true, traceOut: filepath.Join(t.TempDir(), "spans.jsonl"), sz: shortSizes}
	if err := run(opts, &out); err != nil {
		t.Fatalf("traced run: %v\n%s", err, out.String())
	}
	var got jsonResult
	if err := json.Unmarshal(lastLine(t, &out), &got); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if !got.Correct || len(got.Metrics) != len(perLayer) {
		t.Fatalf("traced run: correct=%v with %d metrics, %d are declared", got.Correct, len(got.Metrics), len(perLayer))
	}
	for _, what := range []string{"cpu", "alloc"} {
		sum := 0.0
		for _, l := range shareLayers {
			sum += got.Metrics[shareName(l, what)].Value
		}
		if math.Abs(sum-100) > 1 {
			t.Errorf("%s shares sum to %.2f, want 100 ± 1", what, sum)
		}
	}
	for _, m := range perLayer {
		v, ok := got.Metrics[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s is missing or not a number: %v", m.Name, v.Value)
		}
		if m.Unit == "ns" || m.Unit == "us" || m.Unit == "ms" {
			if !(v.Value > 0) {
				t.Errorf("unit cost %s = %v, want positive", m.Name, v.Value)
			}
		}
	}
	if got.Metrics["openflow.wire_bytes_per_op"].Value <= 0 || got.Metrics["telemetry.spans_per_op"].Value <= 0 {
		t.Errorf("the counting pass metered no wire bytes or kept no spans: %v", got.Metrics)
	}
	spans, err := os.ReadFile(opts.traceOut)
	if err != nil || !bytes.Contains(spans, []byte(`"name":"sim.event_ns"`)) {
		t.Errorf("span dump lacks the driver spans (err %v)", err)
	}
}

// flaky is a workload whose second iteration disagrees with its first.
type flaky struct{ runs *int }

func (f flaky) run(pass) (*outcome, error) {
	*f.runs++
	return &outcome{ops: 10, det: map[string]float64{"sim.events_per_op": float64(*f.runs)}}, nil
}

// TestSelfCheckFails makes the determinism self-check fail and expects a
// non-zero exit (run's error) and correct=false on the last line.
func TestSelfCheckFails(t *testing.T) {
	runs := 0
	w := &workload{name: "flaky", op: "op", setup: func(uint64, sizes) (instance, error) { return flaky{&runs}, nil }}
	var out bytes.Buffer
	err := run(&options{workloads: []*workload{w}, seed: 1, rounds: 2, repeat: 1, sz: shortSizes}, &out)
	if err == nil {
		t.Fatalf("run accepted a workload that does not repeat:\n%s", out.String())
	}
	var got jsonResult
	if err := json.Unmarshal(lastLine(t, &out), &got); err != nil || got.Correct {
		t.Errorf("last line %s: correct=%v err=%v, want correct=false", lastLine(t, &out), got.Correct, err)
	}
	if !strings.Contains(out.String(), "sim.events_per_op 3, was 2") {
		t.Errorf("the offending values are not printed:\n%s", out.String())
	}
}

// TestAgreement runs the suite twice in one process and expects every
// deterministic value to agree.
func TestAgreement(t *testing.T) {
	var out bytes.Buffer
	opts := &options{workloads: []*workload{workloadByName("replay-openflow"), workloadByName("packetin-storm")},
		seed: 2, rounds: 2, repeat: 2, sz: shortSizes}
	if err := run(opts, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "identical between the runs") {
		t.Errorf("no agreement verdict:\n%s", out.String())
	}
}

func TestFoldShares(t *testing.T) {
	samples := []stackSample{
		// Runtime work goes to the innermost layer frame that caused it.
		{stack: []string{"runtime.mallocgc", "lazyctrl/internal/bloom.(*Filter).TestUint64", "lazyctrl/internal/fib.(*GFIB).queryKey",
			"lazyctrl/internal/edge.(*Switch).InjectLocal", "lazyctrl/internal/eval.RunEmulation.func9", "lazyctrl/internal/sim.(*Simulator).RunUntil"}, count: 5},
		// Packages that are not layers are looked through.
		{stack: []string{"lazyctrl/internal/model.HostMAC", "lazyctrl/internal/tenant.(*Directory).Host", "lazyctrl/internal/trace.(*genStream).GenWindow"}, count: 2},
		// A closure of a layer function belongs to the layer.
		{stack: []string{"lazyctrl/internal/sim.(*Simulator).At.func1", "main.main"}, count: 1},
		// No layer frame at all, or only a repo package that is no layer:
		// the runtime's background share.
		{stack: []string{"runtime.gcBgMarkWorker", "runtime.goexit"}, count: 1},
		{stack: []string{"main.measure.func1", "lazyctrl/internal/analysis/load.Run"}, count: 1},
	}
	shares, total := foldShares(samples)
	want := map[string]float64{"bloom": 50, "trace": 20, "sim": 10, runtimeLayer: 20}
	if total != 10 || len(shares) != len(want) {
		t.Fatalf("total %d shares %v, want 10 and %v", total, shares, want)
	}
	sum := 0.0
	for l, pct := range want {
		if math.Abs(shares[l]-pct) > 1e-9 {
			t.Errorf("%s = %v%%, want %v%%", l, shares[l], pct)
		}
		sum += shares[l]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

// TestAllocsBetween: the runtime keeps one memory-profile record per stack
// and object size, so records that share a stack must add up.
func TestAllocsBetween(t *testing.T) {
	grow, other := [32]uintptr{1, 2}, [32]uintptr{3}
	rec := func(stack [32]uintptr, size, objs int64) runtime.MemProfileRecord {
		return runtime.MemProfileRecord{AllocBytes: size * objs, AllocObjects: objs, Stack0: stack}
	}
	before := []runtime.MemProfileRecord{rec(grow, 16, 100), rec(other, 64, 7)}
	after := []runtime.MemProfileRecord{rec(grow, 16, 300), rec(grow, 4096, 10), rec(grow, 1<<20, 1), rec(other, 64, 7)}
	const rate = 4096
	unsample := func(objs, size float64) float64 { return objs / (1 - math.Exp(-size/rate)) }
	got := allocsBetween(before, after, rate)
	want := unsample(200, 16) + unsample(10, 4096) + unsample(1, 1<<20)
	if len(got) != 1 || math.Abs(got[grow]-want) > 1e-6 {
		t.Errorf("allocsBetween = %v, want only %v: %v (three size classes of one call site, none since before at the other)", got, grow, want)
	}
}

// TestDiffOutcomeMissingKey: a deterministic value that a later round no
// longer reports is a difference.
func TestDiffOutcomeMissingKey(t *testing.T) {
	first := &outcome{ops: 1, det: map[string]float64{"sim.events_per_op": 2, "check.final_groups": 6}}
	later := &outcome{ops: 1, det: map[string]float64{"sim.events_per_op": 2}}
	if d := diffOutcome(later, first); len(d) != 1 || !strings.Contains(d[0], "check.final_groups is missing") {
		t.Errorf("diffOutcome = %v, want the missing key", d)
	}
	// The counting pass only adds keys.
	if d := diffOutcome(first, later); len(d) != 0 {
		t.Errorf("diffOutcome = %v for an added key, want none", d)
	}
}

// TestCheckBaseline holds a run to the record of its seed: worse quality or
// allocations fail, better ones and moved work counts are only reported.
func TestCheckBaseline(t *testing.T) {
	b, err := recorded()
	if err != nil {
		t.Fatal(err)
	}
	want := b["1"]["chaos-failover"]
	run := func(change func(det map[string]float64, c *cost)) *result {
		det := make(map[string]float64)
		for k, v := range want {
			if strings.Contains(k, ".") && k != "check.ops" {
				det[k] = v
			}
		}
		ops := want["check.ops"]
		c := cost{wall: 1, mallocs: uint64(want["allocs_per_op"] * ops), bytes: uint64(want["alloc_bytes_per_op"] * ops)}
		change(det, &c)
		return &result{w: workloadByName("chaos-failover"), costs: []cost{c}, first: &outcome{ops: int(ops), det: det}}
	}
	for _, tc := range []struct {
		name   string
		change func(det map[string]float64, c *cost)
		fails  string // part of the violation, or empty
		diffs  int
	}{
		{"as recorded", func(map[string]float64, *cost) {}, "", 0},
		{"more controller requests", func(det map[string]float64, _ *cost) { det["metrics.ctrl_req_per_kop"] *= 1.006 }, "metrics.ctrl_req_per_kop", 1},
		{"fewer controller requests", func(det map[string]float64, _ *cost) { det["metrics.ctrl_req_per_kop"] *= 0.9 }, "", 1},
		{"one more recovery round", func(det map[string]float64, _ *cost) { det["chaos.recovery_rounds"]++ }, "chaos.recovery_rounds", 1},
		{"one more probe lost", func(det map[string]float64, _ *cost) { det["replay.undelivered_pct"] += 0.05 }, "", 1},
		{"a moved work count", func(det map[string]float64, _ *cost) { det["sim.events_per_op"] *= 2 }, "", 1},
		{"more allocations", func(_ map[string]float64, c *cost) { c.mallocs += c.mallocs / 50 }, "allocs_per_op", 0},
		{"more bytes", func(_ map[string]float64, c *cost) { c.bytes += c.bytes / 50 }, "alloc_bytes_per_op", 0},
		{"fewer allocations", func(_ map[string]float64, c *cost) { c.mallocs /= 2 }, "", 0},
	} {
		r := run(tc.change)
		lines := checkBaseline(1, r)
		if len(lines) != tc.diffs+1 {
			t.Errorf("%s: %d lines, want %d diffs and the summary: %v", tc.name, len(lines), tc.diffs, lines)
		}
		switch {
		case tc.fails == "" && len(r.violations) > 0:
			t.Errorf("%s: failed with %v", tc.name, r.violations)
		case tc.fails != "" && (len(r.violations) != 1 || !strings.Contains(r.violations[0], tc.fails)):
			t.Errorf("%s: violations %v, want one naming %s", tc.name, r.violations, tc.fails)
		}
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 || median([]float64{3, 1, 2, 4}) != 2.5 {
		t.Errorf("quartiles %v %v, median %v", q1, q3, median([]float64{3, 1, 2, 4}))
	}
}

// TestDeclaredNames checks every name against the contract's alphabet and
// the declared sets against BENCHMARK.json.
func TestDeclaredNames(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []declared                   `json:"end_to_end"`
		PerLayer  []declared                   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if !name.MatchString(w.name) || file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: program %q, BENCHMARK.json %q (or the why differs or is too long)", i, w.name, file.Workloads[i].Name)
		}
	}
	same := func(kind string, ours []metricDef, theirs []declared, bounded bool) {
		if len(ours) != len(theirs) {
			t.Fatalf("%s: program declares %d, BENCHMARK.json %d", kind, len(ours), len(theirs))
		}
		seen := map[string]bool{}
		for i, m := range ours {
			d := theirs[i]
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s %q (%q): bad or repeated name or unit", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
				t.Errorf("%s %d: program %+v, BENCHMARK.json %+v", kind, i, m, d)
			}
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v in the program, %v in BENCHMARK.json", kind, m.Name, m.Bound, d.Bound)
			}
		}
	}
	same("end_to_end", endToEnd, file.EndToEnd, true)
	same("per_layer", perLayer, file.PerLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 fit", len(perLayer))
	}
}
