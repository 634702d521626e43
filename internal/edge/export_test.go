package edge

// len returns the number of installed rules (including not-yet-evicted
// expired ones).
func (t *flowTable) len() int { return len(t.rules) }

// FlowCount returns the number of installed flow rules.
func (s *Switch) FlowCount() int { return s.flows.len() }
