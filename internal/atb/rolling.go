package atb

// Rolling-restart benchmark: the operational cost of taking a node out
// of a HatKV cluster on purpose (DESIGN.md §17). Each point runs one
// seeded rolling soak — every node restarted in turn under a
// retry-until-acked workload — and reports availability, the
// error-visible window (summed put-latency excess during restart
// cycles), and post-stop recovery times. The sweep crosses drain
// deadline × restart stagger for graceful drains, with one hard-kill
// row per stagger as the PR 8 failover baseline the drain must beat.

import (
	"hatrpc/internal/chaos"
	"hatrpc/internal/node"
	"hatrpc/internal/stats"
)

// RollingBenchConfig parameterizes one drain-deadline × stagger sweep.
type RollingBenchConfig struct {
	Seed    int64
	Servers int
	Shards  int
	RF      int
	Rounds  int

	DrainDeadlines []int64 // graceful drain escalation deadlines to sweep
	Staggers       []int64 // settle time between consecutive node restarts
}

// DefaultRollingBenchConfig sweeps two drain deadlines against two
// staggers on the default 5-node topology, one rolling round each.
func DefaultRollingBenchConfig() RollingBenchConfig {
	return RollingBenchConfig{
		Seed:           311,
		Servers:        5,
		Shards:         8,
		RF:             3,
		Rounds:         1,
		DrainDeadlines: []int64{150_000, 600_000},
		Staggers:       []int64{800_000, 1_600_000},
	}
}

// RollingPoint is one (mode, drain deadline, stagger) measurement.
// Its recovery times run from each node stop — a crash of the machine —
// to the first subsequent ack.
type RollingPoint struct {
	Graceful        bool
	DrainDeadlineNs int64 // 0 on hard-kill rows
	StaggerNs       int64
	SoakStats
	Escalations int64
	DrainedReqs int64
	Promotions  int64
	ErrWindowNs int64   // summed error-visible window across cycles
	ReadyAvgNs  float64 // mean stop → back-to-ready per cycle
}

// RunRollingBench runs the sweep: per stagger, one hard-kill baseline
// plus one graceful run per drain deadline, all from the same seed so
// the workload schedule is held constant while the stop discipline
// varies.
func RunRollingBench(cfg RollingBenchConfig) []RollingPoint {
	out := make([]RollingPoint, 0, len(cfg.Staggers)*(1+len(cfg.DrainDeadlines)))
	for _, stagger := range cfg.Staggers {
		out = append(out, runRollingPoint(cfg, false, 0, stagger))
		for _, dl := range cfg.DrainDeadlines {
			out = append(out, runRollingPoint(cfg, true, dl, stagger))
		}
	}
	return out
}

func runRollingPoint(cfg RollingBenchConfig, graceful bool, drainDL, stagger int64) RollingPoint {
	nc := node.DefaultConfig()
	nc.Protocol.Seed = cfg.Seed
	nc.Protocol.Servers = cfg.Servers
	nc.Protocol.Shards = cfg.Shards
	nc.Protocol.RF = cfg.RF
	res, err := chaos.RollingSoak(chaos.RollingConfig{
		Node:            nc,
		Rounds:          cfg.Rounds,
		Graceful:        graceful,
		DrainDeadlineNs: drainDL,
		StaggerNs:       stagger,
	})
	if err != nil {
		panic("atb: rolling soak: " + err.Error()) // static config cannot fail
	}
	pt := RollingPoint{
		Graceful:    graceful,
		StaggerNs:   stagger,
		SoakStats:   soakStats(&res.Result),
		Escalations: res.Escalations,
		DrainedReqs: res.DrainedRequests,
		Promotions:  res.Promotions,
		ErrWindowNs: res.ErrWindowNs,
	}
	if graceful {
		pt.DrainDeadlineNs = drainDL
	}
	ready := &stats.Sample{}
	for _, c := range res.Cycles {
		if c.ReadyAt > c.StopAt {
			ready.Add(float64(c.ReadyAt - c.StopAt))
		}
	}
	if ready.N() > 0 {
		pt.ReadyAvgNs = ready.Mean()
	}
	return pt
}
