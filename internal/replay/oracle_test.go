package replay

// Test-only readers: the estimator trials check RelStdErr's coverage
// against the HT total, and the fluid tests read PacketIn counts per
// bucket; shipped code reads only their sum (Workload, RelStdErr).

// EstimatedTotal returns the HT estimate of the full flow population:
// sampled flows scale by 1/p.
func (e *Estimator) EstimatedTotal() float64 {
	if e.p <= 0 {
		return 0
	}
	var sampled uint64
	for _, m := range e.buckets {
		for _, c := range m {
			sampled += c
		}
	}
	return float64(sampled) / e.p
}

// PacketIns returns the per-bucket PacketIn counts.
func (f *Fluid) PacketIns() []float64 { return append([]float64(nil), f.packetIns...) }
