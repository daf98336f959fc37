package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"hatrpc/internal/cluster"
	"hatrpc/internal/engine"
	"hatrpc/internal/hatkv"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// The kv workloads run a 5-server RF3 sharded HatKV cluster
// (cluster.NewNode over SyncFull hatkv stores) plus one client node whose
// closed-loop cluster.Client workers run seeded 50/50 Get/Put ops with
// 256 B values over 2,000 keys. The stores start empty and fill during
// the run.
const (
	kvServers   = 5
	kvKeys      = 2000
	kvValueSize = 256
)

// kvSpec sizes a kv workload.
type kvSpec struct {
	workers int // closed-loop cluster.Client workers (DES processes)
	opsPerW int // ops per worker
}

// kvRF3 is kv-rf3-rw: four workers of 2,000 ops each. On today's code its
// fault-free cluster fails over spuriously on some seeds.
var kvRF3 = kvSpec{workers: 4, opsPerW: 2000}

// kvRF3Two is kv-rf3-rw-2w: the same cluster and key space with two
// workers of 1,000 ops each, which stays below the failover onset. One
// episode is too few ops to represent its seed (resyncs alone move its
// allocation per op by ±10%), so a run pools kvRF3TwoSets input sets.
var kvRF3Two = kvSpec{workers: 2, opsPerW: 1000}

const kvRF3TwoSets = 64

// kvOp is one generated operation.
type kvOp struct {
	put bool
	key int32
}

func kvKey(i int) string { return fmt.Sprintf("key%05d", i) }

// kvValue describes itself: worker, sequence and key, then filler
// derived from them, kvValueSize bytes in all.
func kvValue(key string, worker, seq int) []byte {
	v := make([]byte, kvValueSize)
	v[0] = byte(worker)
	binary.BigEndian.PutUint32(v[1:], uint32(seq))
	v[5] = byte(len(key))
	n := 6 + copy(v[6:], key)
	for i := n; i < len(v); i++ {
		v[i] = byte(i*13 + worker*7 + seq)
	}
	return v
}

// putID names one issued Put of a key.
type putID struct {
	worker, seq int
}

func (s kvSpec) prepare(seed int64) (func(*tracer) *episode, uint64) {
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	ops := make([][]kvOp, s.workers)
	for w := range ops {
		ops[w] = make([]kvOp, s.opsPerW)
		for i := range ops[w] {
			op := kvOp{put: rng.Intn(2) == 1, key: int32(rng.Intn(kvKeys))}
			ops[w][i] = op
			fmt.Fprintf(h, "%v/%d ", op.put, op.key)
		}
	}
	return func(tr *tracer) *episode { return kvEpisode(seed, ops, tr) }, h.Sum64()
}

func kvEpisode(seed int64, ops [][]kvOp, tr *tracer) *episode {
	begin := time.Now()
	env := sim.NewEnv(seed)
	ncfg := simnet.DefaultConfig()
	ncfg.Nodes = kvServers + 1
	cl := simnet.NewCluster(env, ncfg)
	ccfg := cluster.Config{Seed: seed, NShards: 8, RF: 3}
	roster := make([]*simnet.Node, kvServers)
	for i := range roster {
		ccfg.NodeIDs = append(ccfg.NodeIDs, i)
		roster[i] = cl.Node(i)
	}
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	ecfg := engine.DefaultConfig()
	stores := make([]*hatkv.Store, kvServers)
	nodes := make([]*cluster.Node, kvServers)
	for i := range nodes {
		store, err := hatkv.NewStore(cl.Node(i), nil, nil)
		if err != nil {
			panic(err) // nil hints cannot fail
		}
		if err := store.Env().SetSync(lmdb.SyncFull); err != nil {
			panic(err)
		}
		eng := engine.New(cl.Node(i), ecfg)
		stores[i] = store
		nodes[i] = cluster.NewNode(eng, store, roster, i, ccfg)
		if reg != nil {
			eng.SetObs(reg)
			nodes[i].SetObs(reg)
		}
	}
	cliEng := engine.New(cl.Node(kvServers), ecfg)
	if reg != nil {
		cliEng.SetObs(reg)
	}

	workers := len(ops)
	ep := newEpisode(cl, workers, begin)
	ep.recs = make([]opRec, 0, workers*len(ops[0]))
	issued := make(map[string][]putID, kvKeys)
	clients := make([]*cluster.Client, workers)
	for w := 0; w < workers; w++ {
		w := w
		env.Spawn(fmt.Sprintf("kv-worker-%d", w), func(p *sim.Proc) {
			c := cluster.NewClient(cliEng, roster, ccfg)
			clients[w] = c
			ep.arrive(p)
			for i, op := range ops[w] {
				key := kvKey(int(op.key))
				rec := opRec{start: p.Now()}
				var sp int32
				if tr != nil {
					name := spanKVGet
					if op.put {
						name = spanKVPut
					}
					sp = tr.begin(p, name, 0)
				}
				if op.put {
					rec.class = 1
					issued[key] = append(issued[key], putID{w, i + 1})
					rec.ok = c.Put(p, key, kvValue(key, w, i+1)) == nil
				} else {
					v, err := c.Get(p, key)
					rec.ok = err == nil || errors.Is(err, cluster.ErrNotFound)
					if err == nil && !wasPut(issued[key], key, v) {
						ep.failf("get %s returned bytes no put of that key wrote", key)
					}
				}
				if tr != nil {
					tr.end(p, sp)
				}
				rec.end = p.Now()
				ep.recs = append(ep.recs, rec)
			}
			ep.leave(p)
		})
	}
	ep.counters = func() map[string]float64 {
		c := map[string]float64{}
		for _, n := range nodes {
			st := n.Stats()
			c["cluster.candidacies"] += float64(st.Candidacies)
			c["cluster.promotions"] += float64(st.Promotions)
			c["cluster.resyncs"] += float64(st.Resyncs)
			c["cluster.stale_writes"] += float64(st.StaleWrites)
			c["cluster.fenced_writes"] += float64(st.FencedWrites)
			c["server.served"] += float64(n.Server().Served)
			c["server.shed"] += float64(n.Server().Shed)
		}
		for _, cli := range clients {
			st := cli.Stats()
			c["cluster.client.stale_retries"] += float64(st.StaleRetries)
			c["cluster.client.refreshes"] += float64(st.Refreshes)
		}
		for _, conn := range cliEng.Conns() {
			c["cluster.client.rpcs"] += float64(conn.Stats().Calls)
		}
		for _, s := range stores {
			st := s.Env().Stats
			c["lmdb.commits"] += float64(st.Commits)
			c["lmdb.synced_commits"] += float64(st.SyncedCommits)
			c["lmdb.pages_copied"] += float64(st.PagesCopied)
			c["lmdb.puts"] += float64(st.Puts)
		}
		obsCounters(c, reg)
		return c
	}
	return ep
}

// wasPut reports whether v is exactly the value one of the issued Puts
// of key wrote.
func wasPut(puts []putID, key string, v []byte) bool {
	if len(v) != kvValueSize {
		return false
	}
	id := putID{int(v[0]), int(binary.BigEndian.Uint32(v[1:]))}
	for _, p := range puts {
		if p == id {
			return bytes.Equal(v, kvValue(key, id.worker, id.seq))
		}
	}
	return false
}
