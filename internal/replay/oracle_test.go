package replay

// Test-only reader: the fluid tests read PacketIn counts per bucket;
// shipped code reads only their sum with the ARP relays
// (TrafficRequests).

// PacketIns returns the per-bucket PacketIn counts.
func (f *Fluid) PacketIns() []float64 { return append([]float64(nil), f.packetIns...) }
