package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"sync"
)

// baseline.json records, for the seeds it was taken on, every value that
// must repeat exactly: the paper-axis metrics and the work counts of each
// workload at the commit that defined the benchmark, and beside them the
// allocations per op. A change meant only to make the simulator faster must
// leave the former identical, so every run on a recorded seed prints the
// differences and fails on the ones checkBaseline names. (BENCHMARK.json's
// schema is fixed, so the values live here.)
//
//go:embed baseline.json
var baselineJSON []byte

// baselineFile maps seed → workload → metric → value.
type baselineFile map[string]map[string]map[string]float64

func readBaseline(data []byte) (baselineFile, error) {
	b := baselineFile{}
	if len(data) == 0 {
		return b, nil
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	return b, nil
}

// recorded is the embedded baseline, parsed once.
var recorded = sync.OnceValues(func() (baselineFile, error) { return readBaseline(baselineJSON) })

// How far a run on a recorded seed may be worse than the record before it
// fails. The cross-seed bounds in BENCHMARK.json have to be wide (inputs
// differ by seed); for one seed the values repeat, so these are ISSUE.md's.
const (
	// qualityBound holds the paper-axis metrics. On an integer count such
	// as chaos.recovery_rounds it allows no step at all.
	qualityBound = 0.005
	// undeliveredSlack is in percentage points: one first packet more or
	// less among a few hundred probes is not a regression.
	undeliveredSlack = 0.1
	// allocBound holds allocs_per_op and alloc_bytes_per_op, which repeat to
	// four digits for a seed whatever the box is doing.
	allocBound = 0.01
)

// allocMetrics are the end-to-end metrics recorded in the baseline.
var allocMetrics = []string{"allocs_per_op", "alloc_bytes_per_op"}

// checkBaseline compares a workload's run with the values recorded for its
// seed, returning the lines to print. A paper-axis metric or an allocation
// count that is worse than recorded by more than its bound fails the run
// (all of them are better when lower). Any other difference is reported,
// not failed: a protocol change moves work counts on purpose and says so,
// while a simulator speed-up must print none.
func checkBaseline(seed uint64, r *result) []string {
	b, err := recorded()
	if err != nil {
		return []string{fmt.Sprintf("baseline: %v", err)}
	}
	want, ok := b[strconv.FormatUint(seed, 10)][r.w.name]
	if !ok {
		return []string{fmt.Sprintf("baseline: none recorded for %s at seed %d", r.w.name, seed)}
	}
	worse := func(k string, got, bound, slack float64) {
		if w, ok := want[k]; ok && got > w*(1+bound)+slack {
			r.violations = append(r.violations,
				fmt.Sprintf("%s is %v, worse than the %v recorded for seed %d by more than %.3g%%", k, got, w, seed, 100*bound))
		}
	}
	var lines []string
	got, same := r.deterministic(), 0
	for _, k := range sortedKeys(want) {
		g, ok := got[k]
		switch {
		case !ok:
			// Allocations are held below; wire bytes and span counts exist
			// only in the traced run.
		case g == want[k]:
			same++
		default:
			lines = append(lines, fmt.Sprintf("baseline DIFF %s %s: %v, recorded %v", r.w.name, k, g, want[k]))
		}
	}
	for _, m := range perLayer {
		if g, ok := got[m.Name]; ok && m.Quality {
			slack := 0.0
			if m.Name == "replay.undelivered_pct" {
				slack = undeliveredSlack
			}
			worse(m.Name, g, qualityBound, slack)
		}
	}
	values := r.endToEnd()
	for _, k := range allocMetrics {
		worse(k, values[k], allocBound, 0)
	}
	return append(lines, fmt.Sprintf("baseline: %d deterministic values of %s identical to the recorded seed-%d run", same, r.w.name, seed))
}

// writeBaseline replaces one seed's entry in the baseline file.
func writeBaseline(path string, seed uint64, ws []*workload, results map[string]*result) error {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	b, err := readBaseline(data)
	if err != nil {
		return err
	}
	entry := make(map[string]map[string]float64, len(ws))
	for _, w := range ws {
		r := results[w.name]
		entry[w.name] = r.deterministic()
		for _, k := range allocMetrics {
			entry[w.name][k] = r.endToEnd()[k]
		}
	}
	b[strconv.FormatUint(seed, 10)] = entry
	data, err = json.MarshalIndent(b, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
