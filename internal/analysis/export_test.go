package analysis

// Test hooks. The rule tables are package variables so fixture tests
// can point them at testdata packages; every swap returns a restore
// func for deferring.

const (
	HandledByEdge       = handledByEdge
	HandledByController = handledByController
)

// SwapWireprotoHandlers replaces the message→receiver table.
func SwapWireprotoHandlers(m map[string]int) func() {
	old := wireprotoHandlers
	wireprotoHandlers = m
	return func() { wireprotoHandlers = old }
}
