// Package chaos is the soak harness (DESIGN.md §12, §15, §17). One
// driver runs retry-until-acked workers against a target under a seeded
// disruption schedule, then audits every acked write against the state
// that survived. The target is one of three systems:
//
//   - a single hatkv server behind engine.Serve, reached through
//     reconnecting Sessions (Soak);
//   - a sharded, replicated cluster of cluster.Node boots (ClusterSoak);
//   - a fleet of lifecycle-managed node.HatNode boots (RollingSoak).
//
// The schedule is a simnet crash plan, a simnet fault plan and an
// optional operator process — the rolling restarts. The driver owns the
// fabric, the client engine, the crash log, the worker loop and the
// watchdog; a target owns what runs on the server nodes, how a worker
// reaches it, and its own audit:
//
//	(a) under SyncFull no acknowledged write is ever lost, on any target;
//	(b) on the single store under NoSync, every lost acked write is
//	    explained by a crash that rolled back past its commit, and the
//	    total loss is bounded by the rolled-back commit count;
//	(c) a run is a pure function of its config: two same-seed soaks
//	    produce byte-identical reports.
package chaos

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"

	"hatrpc/internal/engine"
	"hatrpc/internal/hatkv"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// Crash is one executed server crash as the crash log observed it. The
// single-store target also records the transaction id the store
// recovered to and how many committed transactions that rollback
// destroyed.
type Crash struct {
	Node         int
	At           sim.Time
	RolledBackTo uint64
	LostTxns     uint64
}

// Write is one acknowledged write: when the put was first attempted and
// when its ack reached the worker. Txn is the commit id the single-store
// target answers with. Lost is filled by the audit.
type Write struct {
	Key   string
	Txn   uint64
	Start sim.Time
	AckAt sim.Time
	Lost  bool
}

// Result is the audited outcome every soak shares.
type Result struct {
	Crashes []Crash
	Writes  []Write // in ack order

	Acked         int   // every write is retried until acked, so this is the write count
	Lost          int   // acked writes the target's audit found missing
	GetChecks     int   // read-backs issued, one per fifth write
	GetMismatches int   // read-backs returning wrong bytes — always a bug
	FailedPuts    int64 // put attempts that failed and were retried
	Incomplete    int   // workers still unfinished when the watchdog fired
}

// plan is one soak's workload and disruption schedule.
type plan struct {
	seed    int64
	servers int // fabric nodes 0..servers-1 host the target, the next one the workers
	workers int
	writes  int   // per worker
	paceNs  int64 // idle time between writes, so the workload spans the schedule
	crash   simnet.CrashConfig
	faults  simnet.FaultConfig
	// operator, when set, runs beside the workers; the soak ends once it
	// and every worker have finished.
	operator func(p *sim.Proc, roster []*simnet.Node)
	// watchdogNs ends the soak even if a worker wedges; the audit then
	// reports the unfinished workers. 0 = no watchdog.
	watchdogNs int64
}

// target is the system under soak.
type target interface {
	// boot provisions server i of roster and arranges its reboots.
	boot(roster []*simnet.Node, i int) error
	// crashed completes a crash-log entry; it runs after the target's
	// own crash hooks.
	crashed(c *Crash)
	// dial opens one worker's client through the workers' engine.
	dial(p *sim.Proc, eng *engine.Engine, roster []*simnet.Node) client
	// audit harvests the target's counters once the run has ended and
	// marks the acked writes it finds lost.
	audit()
}

// client is one worker's connection to the target.
type client interface {
	// put writes key→key; txn is the commit id where the target has one.
	put(p *sim.Proc, key string) (txn uint64, err error)
	// get reads key; a key the target does not hold is an error.
	get(p *sim.Proc, key string) ([]byte, error)
}

// engineConfig is the engine of the workers and of the servers the
// driver builds itself: the circuit breaker opens after 4 consecutive
// failures and half-opens after 500µs, so a worker backs off a dead
// server instead of burning its retry budget.
func engineConfig() engine.Config {
	c := engine.DefaultConfig()
	c.BreakerThreshold = 4
	c.BreakerCooldown = 500_000
	return c
}

// openStore creates a server's durable store in the given sync mode.
func openStore(sn *simnet.Node, sync lmdb.SyncMode) (*hatkv.Store, error) {
	store, err := hatkv.NewStore(sn, nil, nil)
	if err != nil {
		return nil, err
	}
	return store, store.Env().SetSync(sync)
}

// run drives one soak of t under pl to completion, filling r.
func run(pl plan, t target, r *Result) error {
	env := sim.NewEnv(pl.seed)
	cl := simnet.NewCluster(env, simnet.Config{
		Nodes: pl.servers + 1, Cores: 28, Sockets: 2, LinkGbps: 100, PropDelayNs: 600, NUMAPenalty: 1.25,
	})
	roster := make([]*simnet.Node, pl.servers)
	for i := range roster {
		roster[i] = cl.Node(i)
	}
	for i, sn := range roster {
		if err := t.boot(roster, i); err != nil {
			return err
		}
		// The crash log is durable harness state: registered after the
		// target's hooks, so a store has rolled back by the time the log
		// reads it; it re-arms itself across boots like the store does.
		var logCrash func()
		logCrash = func() {
			c := Crash{Node: i, At: env.Now()}
			t.crashed(&c)
			r.Crashes = append(r.Crashes, c)
			sn.OnCrash(logCrash)
		}
		sn.OnCrash(logCrash)
	}
	cl.InstallCrashes(pl.crash)
	cl.InstallFaults(pl.faults)

	eng := engine.New(cl.Node(pl.servers), engineConfig())
	done, opsDone := 0, pl.operator == nil
	maybeStop := func() {
		if opsDone && done == pl.workers {
			env.Stop()
		}
	}
	for w := 0; w < pl.workers; w++ {
		env.Spawn(fmt.Sprintf("soak-worker-%d", w), func(p *sim.Proc) {
			c := t.dial(p, eng, roster)
			for i := 0; i < pl.writes; i++ {
				key := fmt.Sprintf("w%02d-%05d", w, i)
				start := p.Now()
				for {
					txn, err := c.put(p, key)
					if err == nil {
						r.Writes = append(r.Writes, Write{Key: key, Txn: txn, Start: start, AckAt: p.Now()})
						break
					}
					r.FailedPuts++
					p.Sleep(250_000) // outage or overload; back off and re-ack
				}
				if i%5 == 4 {
					// Read-back: a value the target answers must be the
					// exact bytes written.
					r.GetChecks++
					if v, err := c.get(p, key); err == nil && !bytes.Equal(v, []byte(key)) {
						r.GetMismatches++
					}
				}
				if pl.paceNs > 0 {
					p.Sleep(sim.Duration(pl.paceNs))
				}
			}
			done++
			maybeStop()
		})
	}
	if pl.operator != nil {
		env.Spawn("soak-operator", func(p *sim.Proc) {
			pl.operator(p, roster)
			opsDone = true
			maybeStop()
		})
	}
	if pl.watchdogNs > 0 {
		env.At(sim.Time(pl.watchdogNs), env.Stop)
	}
	env.Run()

	r.Incomplete = pl.workers - done
	r.Acked = len(r.Writes)
	t.audit()
	return nil
}

// recovery returns the time from at to the first ack after it — the
// client-visible recovery time — or 0 if no ack followed.
func (r *Result) recovery(at sim.Time) int64 {
	for _, w := range r.Writes {
		if w.AckAt > at {
			return int64(w.AckAt - at)
		}
	}
	return 0
}

// Outages returns, per crash, the time from the crash to the first
// subsequent acked write anywhere. Crashes with no ack after them (end
// of run) are omitted.
func (r *Result) Outages() []int64 {
	var out []int64
	for _, c := range r.Crashes {
		if d := r.recovery(c.At); d > 0 {
			out = append(out, d)
		}
	}
	return out
}

// Availability is acked puts over all put outcomes (acked + failed).
// Each failed put already represents a full client-side retry budget
// exhausted, so this is a strict client-visible availability measure.
func (r *Result) Availability() float64 {
	total := float64(r.Acked) + float64(r.FailedPuts)
	if total == 0 {
		return 1
	}
	return float64(r.Acked) / total
}

// writeDigest folds the write log into an FNV-1a digest line, so a
// report pins every write without listing it. txn adds the commit ids.
func (r *Result) writeDigest(b *strings.Builder, txn bool) {
	h := fnv.New64a()
	for _, w := range r.Writes {
		if txn {
			fmt.Fprintf(h, "%s|%d|%d|%v\n", w.Key, w.Txn, w.AckAt, w.Lost)
		} else {
			fmt.Fprintf(h, "%s|%d|%v\n", w.Key, w.AckAt, w.Lost)
		}
	}
	fmt.Fprintf(b, "writes_digest=%016x\n", h.Sum64())
}
