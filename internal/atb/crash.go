package atb

// Crash benchmark: a goodput-and-recovery-vs-crash-rate sweep over the
// chaos soak harness. Each point runs the full crash–restart lifecycle
// — seeded CrashPlan, session reconnection, HatKV crash-consistent
// recovery — at one mean uptime, and reports the acked-write goodput
// plus the distribution of client-visible recovery times (crash to
// first post-crash ack).

import (
	"hatrpc/internal/chaos"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/simnet"
	"hatrpc/internal/stats"
)

// CrashBenchConfig parameterizes one crash-rate sweep.
type CrashBenchConfig struct {
	Seed           int64
	Sync           lmdb.SyncMode
	Workers        int
	HorizonNs      int64   // crash schedule horizon (≈ measured window)
	RestartDelayNs int64   // reboot time per crash
	MeanUptimes    []int64 // mean uptimes to sweep, high (rare crashes) to low
}

// DefaultCrashBenchConfig sweeps from one crash every ~4ms down to one
// every ~500µs over a 30ms window.
func DefaultCrashBenchConfig() CrashBenchConfig {
	return CrashBenchConfig{
		Seed:           131,
		Sync:           lmdb.SyncFull,
		Workers:        3,
		HorizonNs:      30_000_000,
		RestartDelayNs: 120_000,
		MeanUptimes:    []int64{4_000_000, 2_000_000, 1_000_000, 500_000},
	}
}

// SoakStats is what the crash, cluster and rolling sweeps report from
// a soak's shared audit.
type SoakStats struct {
	Crashes      int     // executed crash–restart cycles
	Acked        int     // acknowledged writes
	Lost         int     // acked writes the audit found missing
	Availability float64 // acked / (acked + failed put attempts)
	GoodputOps   float64 // acked writes per second of virtual time
	RecovAvgNs   float64 // mean crash → first-subsequent-ack time
	RecovP99Ns   float64
	RecovMaxNs   float64
}

// soakStats derives the sweep statistics from a soak result.
func soakStats(r *chaos.Result) SoakStats {
	st := SoakStats{Crashes: len(r.Crashes), Acked: r.Acked, Lost: r.Lost, Availability: r.Availability()}
	// Writes are logged in ack order, so the last ack ends the run.
	if n := len(r.Writes); n > 0 && r.Writes[n-1].AckAt > 0 {
		st.GoodputOps = float64(r.Acked) / (float64(r.Writes[n-1].AckAt) / 1e9)
	}
	rec := &stats.Sample{}
	for _, o := range r.Outages() {
		rec.Add(float64(o))
	}
	if rec.N() > 0 {
		st.RecovAvgNs = rec.Mean()
		st.RecovP99Ns = rec.Percentile(99)
		st.RecovMaxNs = rec.Max()
	}
	return st
}

// CrashPoint is one crash-rate measurement.
type CrashPoint struct {
	MeanUptimeNs int64
	SoakStats
	Replays  int64 // idempotent calls replayed across reconnects
	Connects int64 // session (re)connects
	LostTxns uint64
}

// RunCrash sweeps the configured mean uptimes, one independent seeded
// soak per point.
func RunCrash(cfg CrashBenchConfig) []CrashPoint {
	out := make([]CrashPoint, 0, len(cfg.MeanUptimes))
	for _, up := range cfg.MeanUptimes {
		res := chaos.Soak(chaos.Config{
			Seed:            cfg.Seed,
			Sync:            cfg.Sync,
			Workers:         cfg.Workers,
			WritesPerWorker: int(cfg.HorizonNs / 200_000),
			WritePaceNs:     220_000,
			KeepaliveNs:     300_000,
			Crash: simnet.CrashConfig{
				Nodes:           []int{0},
				MeanUptimeNs:    up,
				MinUptimeNs:     150_000,
				RestartDelayNs:  cfg.RestartDelayNs,
				RestartJitterNs: 60_000,
				HorizonNs:       cfg.HorizonNs,
			},
		})
		out = append(out, CrashPoint{
			MeanUptimeNs: up,
			SoakStats:    soakStats(&res.Result),
			Replays:      res.SessionReplays,
			Connects:     res.SessionConnects,
			LostTxns:     res.StoreLostTxns,
		})
	}
	return out
}
