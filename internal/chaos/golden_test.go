package chaos

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hatrpc/internal/lmdb"
	"hatrpc/internal/node"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// crashPlanNodeConfig is the default node fleet under a seeded crash
// schedule dense enough to race the rolling drains.
func crashPlanNodeConfig() *node.Config {
	cfg := node.DefaultConfig()
	cfg.Protocol.Crash = node.CrashSpec{
		MeanUptimeNs: 2_000_000, MinUptimeNs: 200_000,
		RestartDelayNs: 400_000, RestartJitterNs: 200_000, HorizonNs: 12_000_000,
	}
	return cfg
}

// TestReportsMatchGolden pins the full audited report of one run per
// target and schedule — crash log, lifecycle sums, cycle timings and
// write digest — byte for byte. A report is a pure function of its
// config, so any drift means the soak now simulates something else.
// Regenerate deliberately with `go test ./internal/chaos/ -run Golden -update`.
func TestReportsMatchGolden(t *testing.T) {
	rolling := func(rc RollingConfig) func(*testing.T) string {
		return func(t *testing.T) string {
			res, err := RollingSoak(rc)
			if err != nil {
				t.Fatal(err)
			}
			return res.Report()
		}
	}
	cases := []struct {
		name string
		run  func(*testing.T) string
	}{
		{"soak-313-nosync", func(*testing.T) string { return Soak(soakConfig(313, lmdb.NoSync, 10)).Report() }},
		{"soak-301-syncfull", func(*testing.T) string { return Soak(soakConfig(301, lmdb.SyncFull, 12)).Report() }},
		{"cluster-227-syncfull", func(*testing.T) string {
			return ClusterSoak(clusterSoakConfig(227, lmdb.SyncFull, 12_000_000)).Report()
		}},
		{"rolling-graceful", rolling(RollingConfig{Rounds: 1, Graceful: true})},
		{"rolling-hard-kill", rolling(RollingConfig{Rounds: 1, Graceful: false})},
		{"rolling-crash-plan", rolling(RollingConfig{Node: crashPlanNodeConfig(), Rounds: 1, Graceful: true})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.run(t)
			path := filepath.Join("testdata", c.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden: %v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("report drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}
