package atb

// Cluster benchmark: an availability-and-recovery sweep over the
// sharded, replicated HatKV tier (DESIGN.md §15). Each point runs one
// seeded cluster soak — N server nodes, consistent-hash sharding,
// primary→backup replication, epoch-fenced failover — at one
// (replication factor, mean uptime) pair and reports acked-write
// goodput, put-attempt availability, zero-loss audit results, and the
// crash→first-ack recovery-time distribution. RF 1 is the baseline
// where every crash loses the shard until the node reboots; RF 2–3
// show quorum failover masking the same crash schedule.

import (
	"hatrpc/internal/chaos"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/simnet"
)

// ClusterBenchConfig parameterizes one RF × crash-rate sweep.
type ClusterBenchConfig struct {
	Seed      int64
	Sync      lmdb.SyncMode
	Servers   int
	NShards   int
	Workers   int
	HorizonNs int64 // crash/partition schedule horizon per point

	RFs         []int   // replication factors to sweep
	MeanUptimes []int64 // mean server uptimes, high (rare crashes) to low
	Partitions  bool    // overlay the periodic split-brain partition plan
}

// DefaultClusterBenchConfig sweeps RF 1–3 against two crash rates on a
// 5-node cluster with the periodic partition plan on.
func DefaultClusterBenchConfig() ClusterBenchConfig {
	return ClusterBenchConfig{
		Seed:        211,
		Sync:        lmdb.SyncFull,
		Servers:     5,
		NShards:     8,
		Workers:     3,
		HorizonNs:   16_000_000,
		RFs:         []int{1, 2, 3},
		MeanUptimes: []int64{4_000_000, 1_500_000},
		Partitions:  true,
	}
}

// ClusterPoint is one (RF, crash-rate) measurement.
type ClusterPoint struct {
	RF           int
	MeanUptimeNs int64
	SoakStats
	Promotions   int64 // epoch-fenced failovers executed
	StaleRetries int64 // client writes redirected by ErrStaleShardEpoch
}

// RunClusterBench sweeps the configured replication factors and mean
// uptimes, one independent seeded cluster soak per point. Every point
// reuses the same seed, so the crash and partition schedules are
// identical across RFs — the sweep isolates what replication buys.
func RunClusterBench(cfg ClusterBenchConfig) []ClusterPoint {
	out := make([]ClusterPoint, 0, len(cfg.RFs)*len(cfg.MeanUptimes))
	for _, rf := range cfg.RFs {
		for _, up := range cfg.MeanUptimes {
			ccfg := chaos.ClusterConfig{
				Seed:            cfg.Seed,
				Sync:            cfg.Sync,
				Servers:         cfg.Servers,
				NShards:         cfg.NShards,
				RF:              rf,
				Workers:         cfg.Workers,
				WritesPerWorker: int(cfg.HorizonNs / 400_000),
				WritePaceNs:     300_000,
				Crash: simnet.CrashConfig{
					Nodes:           serverIDs(cfg.Servers),
					MeanUptimeNs:    up,
					MinUptimeNs:     up / 2,
					RestartDelayNs:  400_000,
					RestartJitterNs: 200_000,
					HorizonNs:       cfg.HorizonNs,
				},
			}
			if cfg.Partitions {
				ccfg.Faults = simnet.FaultConfig{
					PartitionPeriodNs: 6_000_000,
					PartitionForNs:    700_000,
					PartitionNodes:    serverIDs(cfg.Servers),
				}
			}
			res := chaos.ClusterSoak(ccfg)
			out = append(out, ClusterPoint{
				RF:           rf,
				MeanUptimeNs: up,
				SoakStats:    soakStats(&res.Result),
				Promotions:   res.Promotions,
				StaleRetries: res.StaleRetries,
			})
		}
	}
	return out
}

// serverIDs returns the cluster's server node ids, 0..n-1.
func serverIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
