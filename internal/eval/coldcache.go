package eval

import (
	"fmt"
	"time"

	"lazyctrl/internal/controller"
	"lazyctrl/internal/edge"
	"lazyctrl/internal/grouping"
	"lazyctrl/internal/metrics"
	"lazyctrl/internal/model"
	"lazyctrl/internal/rig"
	"lazyctrl/internal/tenant"
)

// The §V-E cold-cache probe: fresh flows among newly deployed hosts, so
// no flow rule, C-LIB entry, or learned location exists yet.
const (
	coldSwitches      = 272  // the paper testbed's edge switches
	coldGroupLimit    = 46   // §V-D's group size
	coldFreshHosts    = 5    // the paper's 5 new hosts, 45 flows among them
	coldBackgroundRPS = 7000 // unscaled controller load during the probe, near Fig. 7's observed peak
)

// runColdCase measures the mean first-packet latency of fresh flows
// among newly deployed hosts. For intra-group placement all hosts land
// inside one LCG; otherwise they spread across groups.
func runColdCase(mode controller.Mode, intraGroup bool, seed uint64) (time.Duration, error) {
	switchIDs := make([]model.SwitchID, coldSwitches)
	for i := range switchIDs {
		switchIDs[i] = model.SwitchID(i + 1)
	}
	dir := tenant.NewDirectory(switchIDs)
	if _, err := dir.AddTenant(1, 1); err != nil {
		return 0, err
	}
	var latencies []time.Duration
	r, err := rig.New(dir, controller.Config{
		Mode:              mode,
		GroupSizeLimit:    coldGroupLimit,
		Seed:              seed,
		LoadScale:         1,
		Recorder:          metrics.NewRecorder(time.Hour, time.Hour),
		KeepAliveInterval: keepAliveInterval,
	}, edge.Config{
		AdvertiseInterval: 500 * time.Millisecond,
		GFIBInterval:      time.Second,
		// State reports reach the controller on a production cadence
		// (minutes): freshly deployed hosts are not yet in the C-LIB
		// when the probe flows launch, exactly the paper's scenario.
		ReportInterval: 10 * time.Minute,
		OnDeliver: func(p *model.Packet, at time.Duration) {
			if p.FlowSeq == 0 && p.Injected > 0 {
				latencies = append(latencies, at-p.Injected)
			}
		},
	}, false)
	if err != nil {
		return 0, err
	}
	ctrl, s := r.Primary(), r.Sim()

	if mode == controller.ModeLazy {
		// Block affinity: consecutive switches form natural groups.
		m := grouping.NewIntensity()
		for i := 0; i < len(switchIDs); i++ {
			m.AddSwitch(switchIDs[i])
			if (i+1)%coldGroupLimit != 0 && i+1 < len(switchIDs) {
				m.Add(switchIDs[i], switchIDs[i+1], 100)
			}
		}
		if err := ctrl.InitialGrouping(m); err != nil {
			return 0, err
		}
	}

	// Background load on the controller's queueing model.
	ctrl.SetBackgroundLoad(coldBackgroundRPS)

	// Let the setup-phase state reports drain BEFORE the fresh hosts
	// appear: the C-LIB then genuinely does not know them, as in the
	// paper's newly-deployed-host scenario.
	s.RunFor(2 * time.Second)

	// Deploy fresh hosts: intra-group on the first few switches of
	// group 1; inter-group spread one per group.
	hosts := make([]*tenant.Host, coldFreshHosts)
	for i := range hosts {
		var swid model.SwitchID
		if intraGroup {
			swid = switchIDs[i%coldGroupLimit]
		} else {
			swid = switchIDs[(i*coldGroupLimit+i)%len(switchIDs)]
		}
		h := model.HostID(100000 + i)
		if err := r.AddHost(h, 1, swid); err != nil {
			return 0, err
		}
		hosts[i] = dir.Host(h)
	}

	// Let intra-group dissemination complete (G-FIBs know the fresh
	// hosts; the controller's C-LIB does not).
	s.RunFor(5 * time.Second)

	// Launch fresh flows between all distinct-switch pairs (the paper's
	// 45 flows among 5 hosts).
	injected := 0
	for i, src := range hosts {
		for j, dst := range hosts {
			if i == j || src.Switch == dst.Switch {
				continue
			}
			if mode == controller.ModeLazy && intraGroup != ctrl.SameGroup(src.Switch, dst.Switch) {
				continue
			}
			r.Inject(src, dst, 1400)
			injected++
			s.RunFor(100 * time.Millisecond)
		}
	}
	s.RunFor(2 * time.Second)

	if len(latencies) == 0 {
		return 0, fmt.Errorf("eval: cold-cache %v intra=%v: no deliveries (%d injected)", mode, intraGroup, injected)
	}
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	return sum / time.Duration(len(latencies)), nil
}

// ColdCache runs the three §V-E cases.
func ColdCache(seed uint64) (*ColdCacheResult, error) {
	intra, err := runColdCase(controller.ModeLazy, true, seed)
	if err != nil {
		return nil, fmt.Errorf("eval: intra: %w", err)
	}
	inter, err := runColdCase(controller.ModeLazy, false, seed)
	if err != nil {
		return nil, fmt.Errorf("eval: inter: %w", err)
	}
	of, err := runColdCase(controller.ModeLearning, false, seed)
	if err != nil {
		return nil, fmt.Errorf("eval: openflow: %w", err)
	}
	return &ColdCacheResult{LazyIntra: intra, LazyInter: inter, OpenFlow: of}, nil
}
