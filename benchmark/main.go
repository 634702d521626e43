// Command benchmark is the measurement for this repository: seven named
// workloads over the unmodified lazyctrl packages, end-to-end metrics with
// tracing off, and a separate traced run that produces the per-layer
// numbers from outside the program. See README.md.
//
//	bash benchmark/run.sh                      all workloads, 8 rounds
//	bash benchmark/run.sh --trace 1            the traced run
//	bash benchmark/run.sh --repeat 2           two suites, agreement table
//	bash benchmark/run.sh --workload regroup --seed 3 --seconds 10 --trace 0
//
// The last form is what BENCHMARK.json's command expands to; its last
// line of output is one JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// defaultRounds is how many measured rounds a run makes when no
	// --seconds is given: a constant of the benchmark, like the sizes.
	// Round 0 is warm-up and is discarded.
	defaultRounds = 8
	// tracedRounds is how many untraced rounds the traced run measures
	// first: the baseline its overheads are reported against.
	tracedRounds = 2
	// maxViolations caps how many failed checks a workload prints.
	maxViolations = 8
)

type options struct {
	workloads []*workload
	seed      uint64
	seconds   int
	rounds    int // defaultRounds; only the tests make fewer
	trace     bool
	traceOut  string
	repeat    int
	baseline  string
	sz        sizes
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all seven, round-robin)")
	seed := fs.Uint64("seed", 1, "drives trace generation, the simulator and grouping")
	seconds := fs.Int("seconds", 0, "measure rounds until this many seconds have passed (default: 8 rounds)")
	traced := fs.Int("trace", 0, "1 runs the traced passes and prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the benchmark's own spans to this file as JSONL")
	repeat := fs.Int("repeat", 1, "run the whole suite this many times and print how well the runs agree")
	baseline := fs.String("baseline-out", "", "with -trace 1, record this seed's deterministic metrics in this baseline file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	opts := &options{seed: *seed, seconds: *seconds, rounds: defaultRounds, trace: *traced == 1,
		traceOut: *traceOut, repeat: *repeat, baseline: *baseline, sz: fullSizes}
	if *traced != 0 && *traced != 1 {
		return nil, fmt.Errorf("-trace takes 0 or 1")
	}
	if opts.repeat < 1 || opts.seconds < 0 {
		return nil, fmt.Errorf("-repeat must be at least 1, -seconds at least 0")
	}
	if (opts.traceOut != "" || opts.baseline != "") && !opts.trace {
		return nil, fmt.Errorf("-trace-out and -baseline-out need -trace 1")
	}
	if *name == "" {
		for i := range workloads {
			opts.workloads = append(opts.workloads, &workloads[i])
		}
		return opts, nil
	}
	w := workloadByName(*name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", *name)
	}
	opts.workloads = []*workload{w}
	return opts, nil
}

// result is one workload's numbers from one run of the suite.
type result struct {
	w         *workload
	setup     []float64 // seconds, one per measured round
	costs     []cost    // one per measured round
	roundWall []float64 // seconds of set-up plus iteration, per measured round
	attempted int
	failed    int
	// first is round 1's outcome: what every later round must reproduce.
	first      *outcome
	violations []string
	// counted is the counting pass's outcome and layer the per-layer
	// metrics, both of the traced run only.
	counted *outcome
	layer   map[string]float64
	// baseline is what checkBaseline found to print.
	baseline []string
}

func (r *result) walls() []float64 {
	out := make([]float64, len(r.costs))
	for i, c := range r.costs {
		out[i] = c.wall.Seconds()
	}
	return out
}

// endToEnd returns the workload's end-to-end metrics by name.
func (r *result) endToEnd() map[string]float64 {
	ops := float64(r.first.ops)
	pick := func(f func(cost) float64) float64 {
		xs := make([]float64, len(r.costs))
		for i, c := range r.costs {
			xs[i] = f(c)
		}
		return median(xs)
	}
	return map[string]float64{
		"setup_s":            median(r.setup),
		"ops_per_s":          ops / median(r.walls()),
		"allocs_per_op":      pick(func(c cost) float64 { return float64(c.mallocs) }) / ops,
		"alloc_bytes_per_op": pick(func(c cost) float64 { return float64(c.bytes) }) / ops,
		"live_heap_mb":       pick(func(c cost) float64 { return float64(c.liveHeap) }) / (1 << 20),
	}
}

// run executes the suite opts.repeat times and prints everything.
func run(opts *options, out io.Writer) error {
	fmt.Fprintf(out, "env: nproc=%d GOMAXPROCS=%d %s %s/%s seed=%d trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, opts.seed, opts.trace)
	stolen := stolenSeconds()
	var runs []map[string]*result
	for i := 0; i < opts.repeat; i++ {
		if opts.repeat > 1 {
			fmt.Fprintf(out, "\n== suite run %d of %d ==\n", i+1, opts.repeat)
		}
		results, err := suite(opts, out)
		if err != nil {
			return err
		}
		runs = append(runs, results)
	}
	last := runs[len(runs)-1]
	incorrect := false
	for _, results := range runs {
		for _, w := range opts.workloads {
			incorrect = incorrect || len(results[w.name].violations) > 0
		}
	}
	if opts.repeat > 1 && !printAgreement(out, opts, runs) {
		incorrect = true
	}
	if opts.baseline != "" && !incorrect {
		if err := writeBaseline(opts.baseline, opts.seed, opts.workloads, last); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "\nbox: the host took %.2f s of CPU from this machine during the run\n", stolenSeconds()-stolen)
	if err := printJSON(out, opts, last); err != nil {
		return err
	}
	if incorrect {
		return fmt.Errorf("a correctness or determinism check failed (see above)")
	}
	return nil
}

// suite runs every selected workload round-robin: each round rebuilds a
// workload's set-up and runs one fixed-size iteration of it, then moves to
// the next workload, so a slow phase of a shared box lands on all alike.
// It is a closed loop with one caller: the next iteration starts when the
// previous one returns.
func suite(opts *options, out io.Writer) (map[string]*result, error) {
	var spans *spanLog
	if opts.trace {
		spans = newSpanLog()
	}
	results := make(map[string]*result, len(opts.workloads))
	for _, w := range opts.workloads {
		results[w.name] = &result{w: w}
	}
	// enough reports whether the measured rounds made so far suffice.
	var measured time.Duration
	enough := func(rounds int) bool {
		switch {
		case opts.trace:
			return rounds >= tracedRounds
		case opts.seconds > 0:
			return measured >= time.Duration(opts.seconds)*time.Second
		}
		return rounds >= opts.rounds
	}
	for round := 0; round == 0 || !enough(round-1); round++ {
		for _, w := range opts.workloads {
			start := time.Now()
			if err := runRound(results[w.name], opts, round, spans); err != nil {
				return nil, fmt.Errorf("%s round %d: %w", w.name, round, err)
			}
			if round > 0 {
				measured += time.Since(start)
			}
		}
	}
	checkAcross(results)
	// The recorded values are those of the full sizes. A traced run is held
	// to them once its counting pass has added the metered values.
	recordedSizes := opts.sz == fullSizes
	for _, w := range opts.workloads {
		r := results[w.name]
		if recordedSizes && !opts.trace {
			r.baseline = checkBaseline(opts.seed, r)
		}
		printEndToEnd(out, r)
	}
	if opts.trace {
		for _, w := range opts.workloads {
			if err := tracedPasses(results[w.name], opts, spans); err != nil {
				return nil, fmt.Errorf("%s traced passes: %w", w.name, err)
			}
		}
		id := spans.start("drivers", 0)
		units, err := runDrivers(opts.seed, opts.sz, spans, id)
		spans.end(id)
		if err != nil {
			return nil, fmt.Errorf("layer drivers: %w", err)
		}
		for _, w := range opts.workloads {
			r := results[w.name]
			for k, v := range units {
				r.layer[k] = v
			}
			if recordedSizes {
				r.baseline = checkBaseline(opts.seed, r)
			}
		}
		printPerLayer(out, opts, results)
		if opts.traceOut != "" {
			if err := spans.writeFile(opts.traceOut); err != nil {
				return nil, err
			}
		}
	}
	return results, nil
}

// runRound builds the workload's inputs, runs one iteration, and holds it
// to round 1's deterministic results.
func runRound(res *result, opts *options, round int, spans *spanLog) error {
	id := spans.start(fmt.Sprintf("%s.round%d", res.w.name, round), 0)
	defer spans.end(id)
	start := time.Now()
	inst, err := res.w.setup(opts.seed, opts.sz)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(start)
	var got *outcome
	c, err := measure(func() (err error) { got, err = inst.run(passPlain); return err })
	if err != nil {
		return err
	}
	if round == 0 {
		return nil // warm-up: caches, the heap and the scheduler settle
	}
	res.setup = append(res.setup, setup.Seconds())
	res.costs = append(res.costs, c)
	res.roundWall = append(res.roundWall, time.Since(start).Seconds())
	res.attempted += got.ops
	res.failed += got.failed
	for _, v := range got.violations {
		res.violations = append(res.violations, fmt.Sprintf("round %d: %s", round, v))
	}
	if res.first == nil {
		res.first = got
		return nil
	}
	for _, v := range diffOutcome(got, res.first) {
		res.violations = append(res.violations, fmt.Sprintf("round %d differs from round 1: %s", round, v))
	}
	return nil
}

// diffOutcome lists where two iterations of one seed disagree on anything
// that must repeat byte for byte.
func diffOutcome(got, want *outcome) []string {
	var out []string
	if got.ops != want.ops {
		out = append(out, fmt.Sprintf("ops %d, was %d", got.ops, want.ops))
	}
	for _, k := range sortedKeys(want.det) {
		if g, ok := got.det[k]; !ok {
			out = append(out, fmt.Sprintf("%s is missing, was %v", k, want.det[k]))
		} else if g != want.det[k] {
			out = append(out, fmt.Sprintf("%s %v, was %v", k, g, want.det[k]))
		}
	}
	if got.fixpoint != want.fixpoint {
		out = append(out, fmt.Sprintf("fixpoint (%d bytes) differs from the first (%d bytes)", len(got.fixpoint), len(want.fixpoint)))
	}
	return out
}

// checkAcross holds the one invariant that spans workloads: LazyCtrl must
// send the controller fewer requests per flow than the OpenFlow baseline
// does on the same trace (the reduction of Fig. 7).
func checkAcross(results map[string]*result) {
	lazy, of := results["replay-lazy"], results["replay-openflow"]
	if lazy == nil || of == nil {
		return
	}
	const k = "metrics.ctrl_req_per_kop"
	if l, o := lazy.first.det[k], of.first.det[k]; l >= o {
		lazy.violations = append(lazy.violations,
			fmt.Sprintf("%s is %v on replay-lazy, not below replay-openflow's %v", k, l, o))
	}
}

// tracedPasses produces a workload's per-layer numbers from outside the
// program: a CPU profile and a heap profile of the unmodified run folded
// by package, and a counting pass with wire metering and every span kept.
func tracedPasses(res *result, opts *options, spans *spanLog) error {
	untraced := median(res.walls())
	inst, err := res.w.setup(opts.seed, opts.sz)
	if err != nil {
		return err
	}
	res.layer = make(map[string]float64)
	for k, v := range res.first.det {
		res.layer[k] = v
	}
	timed := func(name string, p pass) (float64, *outcome, error) {
		id := spans.start(res.w.name+"."+name, 0)
		defer spans.end(id)
		runtime.GC()
		start := time.Now()
		got, err := inst.run(p)
		return time.Since(start).Seconds(), got, err
	}

	var profiled []float64
	cpu, err := withCPUProfile(func() error {
		for start := time.Now(); time.Since(start) < opts.sz.profileFor; {
			wall, _, err := timed("cpu-profile", passPlain)
			if err != nil {
				return err
			}
			profiled = append(profiled, wall)
		}
		return nil
	})
	if err != nil {
		return err
	}
	shares, samples := foldShares(cpu)
	for layer, pct := range shares {
		res.layer[shareName(layer, "cpu")] = pct
	}
	res.layer["bench.cpu_samples"] = float64(samples)
	res.layer["bench.profile_overhead_pct"] = 100 * (median(profiled)/untraced - 1)

	heap, err := withMemProfile(func() error {
		_, _, err := timed("heap-profile", passPlain)
		return err
	})
	if err != nil {
		return err
	}
	shares, _ = foldShares(heap)
	for layer, pct := range shares {
		res.layer[shareName(layer, "alloc")] = pct
	}

	wall, counted, err := timed("counts", passCounts)
	if err != nil {
		return err
	}
	res.layer["telemetry.overhead_pct"] = 100 * (wall/untraced - 1)
	// Looking must not change what is looked at.
	for _, v := range diffOutcome(counted, res.first) {
		res.violations = append(res.violations, "the counting pass differs from the untraced run: "+v)
	}
	res.counted = counted
	for k, v := range counted.det {
		res.layer[k] = v
	}
	return nil
}

// stolenSeconds reads how much CPU time the hypervisor has given to other
// guests so far (the steal column of /proc/stat); 0 where there is none.
// It is printed so that a slow run on a shared box can be told from a slow
// program.
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

func sortedKeys(m map[string]float64) []string { return slices.Sorted(maps.Keys(m)) }

// jsonMetric is one metric of the machine-readable result.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the object the benchmark contract asks for, one per
// workload.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) json(traced bool) jsonResult {
	jr := jsonResult{Correct: len(r.violations) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric)}
	if traced {
		for _, m := range perLayer {
			jr.Metrics[m.Name] = jsonMetric{Value: r.layer[m.Name], Unit: m.Unit}
		}
		return jr
	}
	values := r.endToEnd()
	for _, m := range endToEnd {
		jr.Metrics[m.Name] = jsonMetric{Value: values[m.Name], Unit: m.Unit}
	}
	return jr
}

// printJSON writes the last line of output. One workload: exactly the
// contract's object. The whole suite: that object per workload, plus the
// machine the numbers came from and each round's wall time.
func printJSON(out io.Writer, opts *options, results map[string]*result) error {
	enc := json.NewEncoder(out)
	if len(opts.workloads) == 1 {
		return enc.Encode(results[opts.workloads[0].name].json(opts.trace))
	}
	type suiteWorkload struct {
		jsonResult
		RoundWallS []float64          `json:"round_wall_s"`
		Det        map[string]float64 `json:"deterministic"`
	}
	doc := struct {
		NProc      int                      `json:"nproc"`
		GOMAXPROCS int                      `json:"gomaxprocs"`
		GoVersion  string                   `json:"go_version"`
		Seed       uint64                   `json:"seed"`
		Traced     bool                     `json:"traced"`
		Workloads  map[string]suiteWorkload `json:"workloads"`
	}{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), opts.seed, opts.trace, map[string]suiteWorkload{}}
	for _, w := range opts.workloads {
		r := results[w.name]
		doc.Workloads[w.name] = suiteWorkload{r.json(opts.trace), r.roundWall, r.deterministic()}
	}
	return enc.Encode(doc)
}

// deterministic returns everything about the run that must repeat for a
// seed: round 1's values, plus the counting pass's in a traced run.
func (r *result) deterministic() map[string]float64 {
	out := map[string]float64{"check.ops": float64(r.first.ops)}
	for k, v := range r.first.det {
		out[k] = v
	}
	if r.counted != nil {
		for k, v := range r.counted.det {
			out[k] = v
		}
	}
	return out
}

func printEndToEnd(out io.Writer, r *result) {
	walls := r.walls()
	q1, q3 := quartiles(walls)
	values := r.endToEnd()
	fmt.Fprintf(out, "\n%s  (op = %s, %d ops per iteration, n = %d iterations)\n", r.w.name, r.w.op, r.first.ops, len(walls))
	fmt.Fprintf(out, "  iteration wall s: min %.4f  q1 %.4f  median %.4f  q3 %.4f\n", slices.Min(walls), q1, median(walls), q3)
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-28s %16.6g %-6s host  n=%d\n", m.Name, values[m.Name], m.Unit, len(walls))
	}
	fmt.Fprintf(out, "  %-28s %16.6g %-6s host  %d of %d ops\n", "failed_pct", 100*float64(r.failed)/float64(r.attempted), "%", r.failed, r.attempted)
	for _, m := range perLayer {
		if v, ok := r.first.det[m.Name]; ok && m.Quality {
			fmt.Fprintf(out, "  %-28s %16.6g %-6s sim   deterministic\n", m.Name, v, m.Unit)
		}
	}
	printViolations(out, r)
}

// printViolations prints a workload's failed checks with the offending
// values, the first maxViolations of them, and what the baseline check
// found.
func printViolations(out io.Writer, r *result) {
	for i, v := range r.violations {
		if i == maxViolations {
			fmt.Fprintf(out, "  FAILED CHECK %s: ... and %d more\n", r.w.name, len(r.violations)-i)
			break
		}
		fmt.Fprintf(out, "  FAILED CHECK %s: %s\n", r.w.name, v)
	}
	for _, line := range r.baseline {
		fmt.Fprintf(out, "  %s\n", line)
	}
}

// printPerLayer prints the traced run's table: one column per workload for
// the shares and counts, and the unit costs once.
func printPerLayer(out io.Writer, opts *options, results map[string]*result) {
	fmt.Fprintf(out, "\nper-layer metrics (traced run)\n%-34s %-6s", "", "unit")
	for _, w := range opts.workloads {
		fmt.Fprintf(out, " %15s", w.name)
	}
	fmt.Fprintln(out)
	for _, m := range perLayer {
		if m.Driver {
			continue
		}
		fmt.Fprintf(out, "%-34s %-6s", m.Name, m.Unit)
		for _, w := range opts.workloads {
			fmt.Fprintf(out, " %15.6g", results[w.name].layer[m.Name])
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "\nunit costs from the layer drivers (the same for every workload)\n")
	first := results[opts.workloads[0].name]
	for _, m := range perLayer {
		if m.Driver {
			fmt.Fprintf(out, "%-34s %-6s %15.6g\n", m.Name, m.Unit, first.layer[m.Name])
		}
	}
	for _, w := range opts.workloads {
		printViolations(out, results[w.name])
	}
}

// printAgreement prints, per workload and end-to-end metric, how far the
// suite runs are apart beside the metric's bound, and checks that every
// deterministic value is identical between them.
func printAgreement(out io.Writer, opts *options, runs []map[string]*result) bool {
	identical := true
	fmt.Fprintf(out, "\nagreement of %d suite runs (spread = (max - min) / median)\n", len(runs))
	fmt.Fprintf(out, "%-18s %-22s %14s %14s %9s %7s\n", "workload", "metric", "min", "max", "spread", "bound")
	for _, w := range opts.workloads {
		for _, m := range endToEnd {
			xs := make([]float64, len(runs))
			for i, results := range runs {
				xs[i] = results[w.name].endToEnd()[m.Name]
			}
			sort.Float64s(xs)
			spread := (xs[len(xs)-1] - xs[0]) / median(xs)
			verdict := "OK"
			if spread > m.Bound {
				verdict = "UNRESOLVED"
			}
			fmt.Fprintf(out, "%-18s %-22s %14.6g %14.6g %8.2f%% %6.0f%%  %s\n",
				w.name, m.Name, xs[0], xs[len(xs)-1], 100*spread, 100*m.Bound, verdict)
		}
		want := runs[0][w.name].deterministic()
		for i, results := range runs[1:] {
			got := results[w.name].deterministic()
			for _, k := range sortedKeys(want) {
				if got[k] != want[k] {
					identical = false
					fmt.Fprintf(out, "%-18s %-22s run %d has %v, run 1 has %v  NOT DETERMINISTIC\n", w.name, k, i+2, got[k], want[k])
				}
			}
		}
	}
	if identical {
		fmt.Fprintln(out, "every deterministic metric and work count is identical between the runs")
	}
	return identical
}
