package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one interval the benchmark itself recorded around its calls
// into the program: name, start, end, and the span that caused it. Spans
// inside the program are a later change.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory until the run ends. A nil
// log records nothing, which is how the untraced run stays untraced.
type spanLog struct {
	epoch time.Time
	spans []span
}

// newSpanLog opens a log whose span 0 is the run itself.
func newSpanLog() *spanLog {
	l := &spanLog{epoch: time.Now()}
	l.spans = append(l.spans, span{ID: 0, Parent: -1, Name: "run"})
	return l
}

func (l *spanLog) start(name string, parent int) int {
	if l == nil {
		return 0
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, StartNS: time.Since(l.epoch).Nanoseconds()})
	return id
}

func (l *spanLog) end(id int) {
	if l != nil {
		l.spans[id].EndNS = time.Since(l.epoch).Nanoseconds()
	}
}

// writeFile closes the run span and dumps every span as one JSON object
// per line.
func (l *spanLog) writeFile(path string) error {
	l.end(0)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // a second Close after the checked one is harmless
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
