package sim

import (
	"testing"
	"time"
)

// BenchmarkTimerStopChurn measures the schedule-then-cancel pattern
// (rule idle timeouts, ARP expiry): canceled events must also recycle.
func BenchmarkTimerStopChurn(b *testing.B) {
	b.ReportAllocs()
	s := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := s.After(time.Second, func() {})
		t.Stop()
		s.RunFor(2 * time.Second)
	}
}
