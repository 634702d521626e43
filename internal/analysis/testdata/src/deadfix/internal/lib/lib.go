// Package lib is the internal side of the dead-state fixture. What only
// tests would reach or read is reported; the rest is reached or read
// by the rule its comment names.
package lib

import "strconv"

// Namer is declared in the module, so Widget.Name is a root: shipped
// code builds a Widget.
type Namer interface{ Name() string }

type Widget struct{}

func (Widget) Name() string { return "widget" }

// Gadget satisfies Namer too, but nothing shipped builds one: reported.
type Gadget struct{}

func (Gadget) Name() string { return "gadget" }

type Counter struct {
	total  int
	writes int // only written: reported
}

func NewCounter() *Counter { return &Counter{} }

func (c *Counter) Add(n int) {
	c.total += n
	c.writes++
}

func (c *Counter) Total() int { return c.total }

// String satisfies fmt.Stringer: a root, though nothing calls it.
func (c *Counter) String() string { return strconv.Itoa(c.total) }

// Reset is called by nothing shipped: reported.
func (c *Counter) Reset() { c.total = 0 }

// TestOnly and helper are reached only from tests: both reported.
func TestOnly() int { return helper() }

func helper() int { return 1 }

// Exempt is unreached but exempt, which keeps exemptHelper too.
func Exempt() int { return exemptHelper() }

func exemptHelper() int { return 2 }

// Key's fields are read wholesale: shipped code uses it as a map key.
type Key struct{ A, B int }

// Outer's embedded Inner is read through the promoted Outer.Depth.
type Outer struct{ Inner }

type Inner struct{ Depth int }

// Formatted's fields are read wholesale by fmt.
type Formatted struct{ Hidden int }
