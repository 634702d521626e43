// Package deadfix is the shipped side of the dead-state fixture: every
// function here is a root.
package deadfix

import (
	"fmt"

	"deadfix/internal/lib"
)

func Run() int {
	c := lib.NewCounter()
	c.Add(2)
	seen := map[lib.Key]int{{A: 1, B: 2}: 1}
	var o lib.Outer
	fmt.Println(lib.Formatted{Hidden: 1})
	var n lib.Namer = lib.Widget{}
	return c.Total() + seen[lib.Key{A: 1, B: 2}] + o.Depth + len(n.Name())
}
