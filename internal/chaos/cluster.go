package chaos

import (
	"fmt"
	"strings"

	"hatrpc/internal/cluster"
	"hatrpc/internal/engine"
	"hatrpc/internal/hatkv"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// ClusterConfig parameterizes one cluster-wide soak: N server nodes
// running the sharded, replicated HatKV tier (internal/cluster) plus
// one client node, under a seeded crash schedule and (optionally) a
// seeded partition/fault plan covering the servers.
type ClusterConfig struct {
	Seed    int64
	Sync    lmdb.SyncMode
	Servers int // cluster node count (≥3 for real failover at RF 3)
	NShards int
	RF      int

	Workers         int
	WritesPerWorker int
	WritePaceNs     int64

	Crash  simnet.CrashConfig // node ids are server indexes 0..Servers-1
	Faults simnet.FaultConfig
}

// ClusterResult is the audited outcome of a cluster soak.
type ClusterResult struct {
	Result

	// Cluster lifecycle, summed over every boot of every server.
	cluster.NodeStats

	// Client routing, summed over the workers.
	Refreshes    int64
	StaleRetries int64

	// Per-shard final durable position at the authority replica.
	ShardEpochs []uint64
	ShardSeqs   []uint64
}

// ClusterSoak runs one cluster soak to completion and audits it: every
// worker write is retried until acked, and at the end every acked write
// must be present at its shard's authority replica — the replica with
// the maximum durable (epoch, seq). Under SyncFull and RF ≥ 2 the
// epoch-fencing argument makes any loss a protocol bug, crashes and
// partitions notwithstanding.
func ClusterSoak(cfg ClusterConfig) *ClusterResult {
	if cfg.Servers <= 0 {
		cfg.Servers = 5
	}
	if cfg.NShards <= 0 {
		cfg.NShards = 8
	}
	if cfg.RF <= 0 {
		cfg.RF = 3
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.WritesPerWorker <= 0 {
		cfg.WritesPerWorker = 40
	}
	ccfg := cluster.Config{Seed: cfg.Seed, NShards: cfg.NShards, RF: cfg.RF}
	ccfg.NodeIDs = make([]int, cfg.Servers)
	for i := range ccfg.NodeIDs {
		ccfg.NodeIDs[i] = i
	}
	t := &clusterTarget{routing: routing{ccfg: ccfg}, sync: cfg.Sync, res: &ClusterResult{}}
	err := run(plan{
		seed: cfg.Seed, servers: cfg.Servers,
		workers: cfg.Workers, writes: cfg.WritesPerWorker, paceNs: cfg.WritePaceNs,
		crash: cfg.Crash, faults: cfg.Faults, watchdogNs: 4 * cfg.Crash.HorizonNs,
	}, t, &t.res.Result)
	if err != nil {
		panic("chaos: " + err.Error()) // nil hints cannot fail
	}
	return t.res
}

// clusterTarget boots a cluster.Node per server boot over each server's
// one durable store.
type clusterTarget struct {
	routing
	sync   lmdb.SyncMode
	res    *ClusterResult
	stores []*hatkv.Store
	nodes  []*cluster.Node // every boot's service, for stat summing
}

func (t *clusterTarget) boot(roster []*simnet.Node, i int) error {
	sn := roster[i]
	store, err := openStore(sn, t.sync)
	if err != nil {
		return err
	}
	t.stores = append(t.stores, store)
	start := func() {
		t.nodes = append(t.nodes, cluster.NewNode(engine.New(sn, engineConfig()), store, roster, i, t.ccfg))
	}
	start()
	sn.SetRestart(func(*sim.Proc) { start() })
	return nil
}

func (t *clusterTarget) audit() {
	for _, n := range t.nodes {
		t.res.addNode(n.Stats())
	}
	t.auditShards(t.res, t.stores)
}

// routing is what the two cluster targets share: workers route through
// cluster.Clients, and the audit checks every acked write at its
// shard's authority replica.
type routing struct {
	ccfg    cluster.Config
	clients []*cluster.Client
}

func (rt *routing) crashed(*Crash) {}

func (rt *routing) dial(p *sim.Proc, eng *engine.Engine, roster []*simnet.Node) client {
	c := cluster.NewClient(eng, roster, rt.ccfg)
	rt.clients = append(rt.clients, c)
	return routed{c}
}

// auditShards sums the client routing counters, records the final
// durable shard positions, and checks every acked write against its
// shard's authority replica.
func (rt *routing) auditShards(res *ClusterResult, stores []*hatkv.Store) {
	for _, c := range rt.clients {
		st := c.Stats()
		res.Refreshes += st.Refreshes
		res.StaleRetries += st.StaleRetries
	}
	nshards := cluster.NumShards(rt.ccfg)
	auth := make([]int, nshards)
	res.ShardEpochs = make([]uint64, nshards)
	res.ShardSeqs = make([]uint64, nshards)
	for s := 0; s < nshards; s++ {
		auth[s] = cluster.ShardAuthority(rt.ccfg, stores, s)
		res.ShardEpochs[s], res.ShardSeqs[s] = cluster.ShardPosition(stores[auth[s]], s)
	}
	for i := range res.Writes {
		w := &res.Writes[i]
		shard := cluster.ShardOf(w.Key, nshards)
		if !cluster.StoreHas(stores[auth[shard]], shard, w.Key) {
			w.Lost = true
			res.Lost++
		}
	}
}

// routed is a worker's client of a cluster target. An acked write never
// rolls back under quorum replication, so a missing key is an error.
type routed struct{ *cluster.Client }

func (c routed) put(p *sim.Proc, key string) (uint64, error) {
	return 0, c.Put(p, key, []byte(key))
}

func (c routed) get(p *sim.Proc, key string) ([]byte, error) { return c.Get(p, key) }

// addNode folds one cluster node's lifecycle counters into the sums.
func (r *ClusterResult) addNode(st cluster.NodeStats) {
	r.Promotions += st.Promotions
	r.Candidacies += st.Candidacies
	r.Resyncs += st.Resyncs
	r.StaleWrites += st.StaleWrites
	r.FencedWrites += st.FencedWrites
}

// writeShards renders the final durable (epoch, seq) of every shard.
func (r *ClusterResult) writeShards(b *strings.Builder) {
	fmt.Fprintf(b, "shards:")
	for s := range r.ShardEpochs {
		fmt.Fprintf(b, " e%d/s%d", r.ShardEpochs[s], r.ShardSeqs[s])
	}
	fmt.Fprintf(b, "\n")
}

// Report renders the audited outcome deterministically — two same-seed
// soaks must produce byte-identical reports.
func (r *ClusterResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster soak: acked=%d lost=%d incomplete=%d\n", r.Acked, r.Lost, r.Incomplete)
	fmt.Fprintf(&b, "gets=%d mismatches=%d failed_puts=%d\n", r.GetChecks, r.GetMismatches, r.FailedPuts)
	fmt.Fprintf(&b, "lifecycle: promotions=%d candidacies=%d resyncs=%d stale=%d fenced=%d\n",
		r.Promotions, r.Candidacies, r.Resyncs, r.StaleWrites, r.FencedWrites)
	fmt.Fprintf(&b, "clients: refreshes=%d stale_retries=%d\n", r.Refreshes, r.StaleRetries)
	fmt.Fprintf(&b, "crashes: %d\n", len(r.Crashes))
	for _, c := range r.Crashes {
		fmt.Fprintf(&b, "  node=%d at=%d\n", c.Node, c.At)
	}
	r.writeShards(&b)
	r.writeDigest(&b, false)
	return b.String()
}
