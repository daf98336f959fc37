package chaos

import (
	"fmt"
	"strings"

	"hatrpc/internal/hatkv"
	"hatrpc/internal/node"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// RollingConfig parameterizes a rolling-restart soak: an N-node HatNode
// cluster (internal/node) restarts nodes one at a time — drain → stop →
// reboot → rejoin → resync — while retry-until-acked workers run.
// Rounds 0 degenerates to a plain soak with no restart operator — the
// baseline for byte-identity checks and cmd/hatnode's non-rolling run.
type RollingConfig struct {
	Node   *node.Config // nil = node.DefaultConfig()
	Rounds int          // full passes over all servers; 0 = no restarts
	// Graceful selects drain-then-stop; false hard-kills each node (the
	// plain crash-failover path) for the contrast benchmark.
	Graceful        bool
	DrainDeadlineNs int64 // 0 = Node.Application.DrainDeadlineNs
	RestartDelayNs  int64 // down time before reboot (default 400us)
	StaggerNs       int64 // settle time after each reboot (default 1.6ms)
	WarmupNs        int64 // before the first stop (default 1ms)
	Reg             *obs.Registry
}

// RestartCycle is one node's stop/reboot cycle and its client-visible
// cost.
type RestartCycle struct {
	Node, Round int
	StopAt      sim.Time // drain (or kill) initiated
	DownAt      sim.Time // machine actually down
	ReadyAt     sim.Time // next StateReady after the reboot (0 if none)
	Escalated   bool     // drain deadline expired; stop proceeded with work in flight
	Crashed     bool     // a CrashPlan crash raced the drain
	ErrWindowNs int64    // summed client stall excess for puts started in this cycle
	RecoveryNs  int64    // DownAt → first ack anywhere (0 if none)
}

// rollingStallNs is the per-put latency considered clean: only the
// excess above it counts toward a cycle's error-visible window. Healthy
// puts land in tens of microseconds; anything past this was visibly
// disturbed by the restart (deadline waits, breaker cooldowns, routing
// refreshes).
const rollingStallNs = 100_000

// RollingResult is the audited outcome: the ClusterResult loss audit
// plus the per-cycle restart economics.
type RollingResult struct {
	ClusterResult
	Cycles []RestartCycle

	Graceful    bool
	StalledPuts int   // acked puts that exceeded rollingStallNs
	ErrWindowNs int64 // summed stall excess across all cycles

	// Lifecycle totals from the node layer.
	Drains          int64
	Escalations     int64
	Reloads         int64
	DrainedRequests int64 // requests fenced with the typed draining reply
}

// RollingSoak runs one rolling-restart soak to completion and audits
// it: every acked write must survive at its shard's authority replica,
// and the per-cycle error-visible windows quantify what clients saw.
func RollingSoak(rc RollingConfig) (*RollingResult, error) {
	nc := rc.Node
	if nc == nil {
		nc = node.DefaultConfig()
	}
	if rc.RestartDelayNs <= 0 {
		rc.RestartDelayNs = 400_000
	}
	if rc.StaggerNs <= 0 {
		rc.StaggerNs = 1_600_000
	}
	if rc.WarmupNs <= 0 {
		rc.WarmupNs = 1_000_000
	}
	if rc.DrainDeadlineNs <= 0 {
		rc.DrainDeadlineNs = nc.Application.DrainDeadlineNs
	}
	if rc.Reg == nil {
		rc.Reg = obs.NewRegistry()
	}
	t := &hatTarget{
		routing: routing{ccfg: nc.ClusterConfig()},
		rc:      rc, nc: nc, res: &RollingResult{Graceful: rc.Graceful},
	}
	servers := nc.Protocol.Servers
	wl := nc.Application.Workload
	cs := nc.Protocol.Crash
	pl := plan{
		seed: nc.Protocol.Seed, servers: servers,
		workers: wl.Workers, writes: wl.Writes, paceNs: wl.PaceNs,
		crash: simnet.CrashConfig{
			Nodes: t.ccfg.NodeIDs, MeanUptimeNs: cs.MeanUptimeNs, MinUptimeNs: cs.MinUptimeNs,
			RestartDelayNs: cs.RestartDelayNs, RestartJitterNs: cs.RestartJitterNs,
			HorizonNs: cs.HorizonNs,
		},
		// Sized from the workload so legitimate long runs are never cut short.
		watchdogNs: 4 * (rc.WarmupNs +
			int64(rc.Rounds)*int64(servers)*(rc.DrainDeadlineNs+rc.RestartDelayNs+rc.StaggerNs) +
			int64(wl.Writes)*(wl.PaceNs+1_000_000)),
	}
	if rc.Rounds > 0 {
		pl.operator = t.roll
	}
	if err := run(pl, t, &t.res.Result); err != nil {
		return nil, err
	}
	return t.res, nil
}

// hatTarget boots one node.HatNode per server; the node carries its
// store, crash hooks and reboots itself.
type hatTarget struct {
	routing
	rc   RollingConfig
	nc   *node.Config
	res  *RollingResult
	hats []*node.HatNode
}

func (t *hatTarget) boot(roster []*simnet.Node, i int) error {
	h, err := node.New(roster[i], roster, i, t.nc, t.rc.Reg)
	if err != nil {
		return err
	}
	t.hats = append(t.hats, h)
	return nil
}

// roll is the restart operator: after the warmup it stops every server
// in turn — drain then stop, or a hard kill — and reboots it.
func (t *hatTarget) roll(p *sim.Proc, roster []*simnet.Node) {
	rc := t.rc
	p.Sleep(sim.Duration(rc.WarmupNs))
	for round := 0; round < rc.Rounds; round++ {
		for i, h := range t.hats {
			cyc := RestartCycle{Node: i, Round: round, StopAt: p.Now()}
			if rc.Graceful {
				rep := h.Drain(p, sim.Duration(rc.DrainDeadlineNs))
				cyc.Escalated = rep.Escalated
				cyc.Crashed = rep.Crashed
				h.Stop()
			} else {
				roster[i].Crash()
			}
			cyc.DownAt = p.Now()
			t.res.Cycles = append(t.res.Cycles, cyc)
			p.Sleep(sim.Duration(rc.RestartDelayNs))
			roster[i].Restart()
			p.Sleep(sim.Duration(rc.StaggerNs))
		}
	}
}

func (t *hatTarget) audit() {
	res := t.res
	stores := make([]*hatkv.Store, len(t.hats))
	for i, h := range t.hats {
		res.addNode(h.Stats()) // summed across every boot, not just the last
		res.DrainedRequests += h.Drained()
		stores[i] = h.Store()
	}
	res.Drains = t.rc.Reg.Counter("node.drains").Value()
	res.Escalations = t.rc.Reg.Counter("node.drain_escalations").Value()
	res.Reloads = t.rc.Reg.Counter("node.reloads").Value()
	t.auditShards(&res.ClusterResult, stores)

	// Cycle economics: back-to-ready from the node transition logs,
	// recovery and stall windows from the acked writes.
	for ci := range res.Cycles {
		cyc := &res.Cycles[ci]
		for _, tr := range t.hats[cyc.Node].Transitions() {
			if tr.To == node.StateReady && tr.At > cyc.StopAt {
				cyc.ReadyAt = tr.At
				break
			}
		}
		cyc.RecoveryNs = res.recovery(cyc.DownAt)
		end := sim.Time(1) << 62
		if ci+1 < len(res.Cycles) {
			end = res.Cycles[ci+1].StopAt
		}
		for _, w := range res.Writes {
			if w.Start >= cyc.StopAt && w.Start < end {
				cyc.ErrWindowNs += stall(w)
			}
		}
		res.ErrWindowNs += cyc.ErrWindowNs
	}
	for _, w := range res.Writes {
		if stall(w) > 0 {
			res.StalledPuts++
		}
	}
}

// stall is how far a put's latency exceeded rollingStallNs.
func stall(w Write) int64 {
	return max(0, int64(w.AckAt-w.Start)-rollingStallNs)
}

// Report renders the audited outcome deterministically — two same-seed
// soaks must produce byte-identical reports, cycle timings and write
// digest included.
func (r *RollingResult) Report() string {
	var b strings.Builder
	mode := "hard-kill"
	if r.Graceful {
		mode = "graceful"
	}
	fmt.Fprintf(&b, "rolling soak (%s): acked=%d lost=%d incomplete=%d availability=%.4f\n",
		mode, r.Acked, r.Lost, r.Incomplete, r.Availability())
	fmt.Fprintf(&b, "gets=%d mismatches=%d failed_puts=%d stalled_puts=%d err_window=%dns\n",
		r.GetChecks, r.GetMismatches, r.FailedPuts, r.StalledPuts, r.ErrWindowNs)
	fmt.Fprintf(&b, "lifecycle: drains=%d escalations=%d reloads=%d drained_reqs=%d\n",
		r.Drains, r.Escalations, r.Reloads, r.DrainedRequests)
	fmt.Fprintf(&b, "cluster: promotions=%d candidacies=%d resyncs=%d stale=%d fenced=%d refreshes=%d\n",
		r.Promotions, r.Candidacies, r.Resyncs, r.StaleWrites, r.FencedWrites, r.Refreshes)
	fmt.Fprintf(&b, "cycles: %d (crashes seen: %d)\n", len(r.Cycles), len(r.Crashes))
	for _, c := range r.Cycles {
		fmt.Fprintf(&b, "  node=%d round=%d stop=%d down=%d ready=%d esc=%v crash=%v errw=%d recov=%d\n",
			c.Node, c.Round, c.StopAt, c.DownAt, c.ReadyAt, c.Escalated, c.Crashed, c.ErrWindowNs, c.RecoveryNs)
	}
	r.writeShards(&b)
	r.writeDigest(&b, false)
	return b.String()
}
