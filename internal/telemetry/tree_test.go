package telemetry

import (
	"fmt"
	"sort"
)

// TreeString renders every completed trace as an indented tree of
// "name [start end] attrs" lines, children ordered by start time then
// completion order, traces ordered by root start time. IDs are
// deliberately omitted: the rendering is the causal shape alone (IDs
// depend on the global mint sequence; the causal structure must not).
func (t *Tracer) TreeString() string {
	if t == nil {
		return ""
	}
	children := make(map[uint64][]int, len(t.spans))
	var roots []int
	for i := range t.spans {
		r := &t.spans[i]
		if r.parent == 0 {
			roots = append(roots, i)
		} else {
			children[r.parent] = append(children[r.parent], i)
		}
	}
	byStart := func(idx []int) {
		sort.SliceStable(idx, func(a, b int) bool {
			return t.spans[idx[a]].start < t.spans[idx[b]].start
		})
	}
	byStart(roots)
	var out []byte
	var render func(i, depth int)
	render = func(i, depth int) {
		r := &t.spans[i]
		for d := 0; d < depth; d++ {
			out = append(out, "  "...)
		}
		out = append(out, fmt.Sprintf("%s [%d %d]", r.name, int64(r.start), int64(r.end))...)
		for _, a := range r.attrs {
			out = append(out, fmt.Sprintf(" %s=%d", a.Key, a.Val)...)
		}
		out = append(out, '\n')
		kids := children[r.span]
		byStart(kids)
		for _, k := range kids {
			render(k, depth+1)
		}
	}
	for _, i := range roots {
		render(i, 0)
	}
	return string(out)
}
