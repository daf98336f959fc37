package main

import (
	"cmp"
	"slices"
	"strings"

	"hatrpc/internal/engine"
)

// layerMetric is one per-layer figure of the traced run.
type layerMetric struct {
	name, unit, clock string
}

// layerTable lists every per-layer metric in report order. Every
// workload reports all of them; a figure of a layer the workload does
// not use reads 0 (the cluster counters on the rpc workloads, the codec
// and engine phase splits on kv).
func layerTable() []layerMetric {
	t := []layerMetric{{"trace.overhead", "ratio", "host"}}
	for _, b := range hostBuckets {
		t = append(t, layerMetric{"host_share." + b, "ratio", "host"})
	}
	t = append(t,
		layerMetric{"sim.host_ns_per_op", "ns", "host"},
		layerMetric{"gc.cycles_per_kop", "count", "host"},
		layerMetric{"thrift.client_codec_host_ns.p50", "ns", "host"},
		layerMetric{"thrift.client_codec_host_ns.p99", "ns", "host"},
		layerMetric{"thrift.server_codec_host_ns.p50", "ns", "host"},
		layerMetric{"thrift.server_codec_host_ns.p99", "ns", "host"},
		layerMetric{"trdma.dial_host_ms", "ms", "host"},
	)
	for _, fn := range []string{"echo", "latcall", "tputcall"} {
		t = append(t,
			layerMetric{"trdma.plan." + fn + ".proto", "enum", "config"},
			layerMetric{"trdma.plan." + fn + ".poll", "enum", "config"})
	}
	for _, ph := range []string{"req_path", "server", "resp_path"} {
		t = append(t,
			layerMetric{"engine." + ph + "_vns.p50", "ns", "virtual"},
			layerMetric{"engine." + ph + "_vns.p99", "ns", "virtual"})
	}
	t = append(t, layerMetric{"engine.phase_checked_calls", "count", "virtual"})
	for _, pr := range engine.AllProtocols {
		t = append(t, layerMetric{"engine.calls." + pr.String(), "count", "virtual"})
	}
	t = append(t,
		layerMetric{"engine.eager_frags", "count", "virtual"},
		layerMetric{"engine.rndv_pool.hit_ratio", "ratio", "virtual"},
		layerMetric{"engine.retries", "count", "virtual"},
		layerMetric{"engine.shed", "count", "virtual"},
		layerMetric{"engine.credit_stalls", "count", "virtual"},
		layerMetric{"server.served", "count", "virtual"},
		layerMetric{"server.shed", "count", "virtual"},
		layerMetric{"verbs.tx.inline_share", "ratio", "virtual"},
	)
	for _, op := range verbsOps {
		t = append(t, layerMetric{"verbs.cqe." + op, "count", "virtual"})
	}
	t = append(t,
		layerMetric{"verbs.rnr_naks", "count", "virtual"},
		layerMetric{"cluster.candidacies", "count", "virtual"},
		layerMetric{"cluster.promotions", "count", "virtual"},
		layerMetric{"cluster.resyncs", "count", "virtual"},
		layerMetric{"cluster.stale_writes", "count", "virtual"},
		layerMetric{"cluster.fenced_writes", "count", "virtual"},
		layerMetric{"cluster.client.stale_retries", "count", "virtual"},
		layerMetric{"cluster.client.refreshes", "count", "virtual"},
		layerMetric{"cluster.attempts_per_op", "ratio", "virtual"},
		layerMetric{"lmdb.commits", "count", "virtual"},
		layerMetric{"lmdb.synced_commits", "count", "virtual"},
		layerMetric{"lmdb.pages_copied_per_commit", "ratio", "virtual"},
		layerMetric{"lmdb.puts_per_commit", "ratio", "virtual"},
		layerMetric{"error_rate", "ratio", "virtual"},
		layerMetric{"vlat_p50_us", "us", "virtual"},
	)
	for _, c := range []string{"latcall", "tputcall", "get", "put"} {
		t = append(t, layerMetric{"vlat_p99_us." + c, "us", "virtual"})
	}
	return t
}

// verbsOps are the verbs opcodes whose completions are counted.
var verbsOps = []string{"SEND", "SEND_WITH_IMM", "WRITE", "WRITE_WITH_IMM", "READ", "RECV"}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// analyzeTrace turns one traced episode's spans into its layer figures
// and checks them. The client spans of the measured phase must carry
// exactly the virtual intervals of the measured op records, and every
// measured RPC must join exactly one server span inside its Invoke span.
func analyzeTrace(ep *episode, tr *tracer) {
	var traced, measured [][2]int64
	kv := false
	for i := range tr.spans {
		s := &tr.spans[i]
		switch {
		case s.V0 < int64(ep.vStart):
		case s.Name == spanKVGet || s.Name == spanKVPut:
			kv = true
			traced = append(traced, [2]int64{s.V0, s.V1})
		case s.Name == spanStub:
			traced = append(traced, [2]int64{s.V0, s.V1})
		}
	}
	for _, r := range ep.recs {
		measured = append(measured, [2]int64{int64(r.start), int64(r.end)})
	}
	if !sameIntervals(traced, measured) {
		ep.failf("the %d client spans do not carry the virtual intervals of the %d measured ops", len(traced), ep.ops())
	}
	if kv {
		return
	}
	ph, err := tr.joinRPC(ep.vStart)
	if err != nil {
		ep.failf("span join: %v", err)
		return
	}
	if ph.calls != ep.ops() {
		ep.failf("joined %d calls for %d ops", ph.calls, ep.ops())
	}
	ep.layer["engine.phase_checked_calls"] = float64(ph.calls)
	for name, xs := range map[string][]float64{
		"engine.req_path_vns": ph.reqPath, "engine.server_vns": ph.server, "engine.resp_path_vns": ph.respPath,
	} {
		ep.layer[name+".p50"] = percentile(xs, 50)
		ep.layer[name+".p99"] = percentile(xs, 99)
	}
	ep.clientCodec, ep.serverCodec = ph.clientCodec, ph.serverCodec
}

// sameIntervals reports whether a and b hold the same intervals, in any
// order. It sorts both.
func sameIntervals(a, b [][2]int64) bool {
	order := func(x, y [2]int64) int {
		if c := cmp.Compare(x[0], y[0]); c != 0 {
			return c
		}
		return cmp.Compare(x[1], y[1])
	}
	slices.SortFunc(a, order)
	slices.SortFunc(b, order)
	return slices.Equal(a, b)
}

// layerMetrics fills the per-layer report from the untraced episodes
// (the baseline for trace.overhead and GC cycles), the traced ones, and
// the CPU-profile sample counts per bucket.
func layerMetrics(m map[string]metric, w workload, plain, traced []*episode, buckets map[string]int64) {
	v := map[string]float64{}
	ep := pooled(traced)
	for k, x := range ep.state {
		v[k] = x
	}
	for k, x := range ep.layer {
		v[k] = x
	}
	ops := float64(ep.ops())
	st := func(k string) float64 { return ep.state[k] }
	sumPrefix := func(pfx string) float64 {
		t := 0.0
		for k, x := range ep.state {
			if strings.HasPrefix(k, pfx) {
				t += x
			}
		}
		return t
	}

	v["trace.overhead"] = ratio(medianOf(plain, opsPerHostSecond), medianOf(traced, opsPerHostSecond))
	var total int64
	for _, c := range buckets {
		total += c
	}
	for _, b := range hostBuckets {
		v["host_share."+b] = ratio(float64(buckets[b]), float64(total))
	}
	v["sim.host_ns_per_op"] = v["host_share.sim"] * 1e9 / medianOf(traced, opsPerHostSecond)
	v["gc.cycles_per_kop"] = medianOf(plain, func(ep *episode) float64 {
		return float64(ep.ms1.NumGC-ep.ms0.NumGC) * 1000 / float64(ep.ops())
	})
	var cc, sc []float64
	for _, t := range traced {
		cc = append(cc, t.clientCodec...)
		sc = append(sc, t.serverCodec...)
	}
	if len(cc) > 0 {
		v["thrift.client_codec_host_ns.p50"], v["thrift.client_codec_host_ns.p99"] = percentile(cc, 50), percentile(cc, 99)
		v["thrift.server_codec_host_ns.p50"], v["thrift.server_codec_host_ns.p99"] = percentile(sc, 50), percentile(sc, 99)
		v["trdma.dial_host_ms"] = medianOf(traced, func(ep *episode) float64 { return ep.layer["trdma.dial_host_ms"] })
	}
	for _, pr := range engine.AllProtocols {
		v["engine.calls."+pr.String()] = st("obs.engine.calls." + pr.String())
	}
	v["engine.eager_frags"] = st("obs.engine.eager_frags")
	hit, miss := st("obs.engine.rndv_pool.hit"), st("obs.engine.rndv_pool.miss")
	v["engine.rndv_pool.hit_ratio"] = ratio(hit, hit+miss)
	v["engine.retries"] = st("obs.engine.retries")
	v["engine.shed"] = sumPrefix("obs.engine.shed.")
	v["engine.credit_stalls"] = sumPrefix("obs.engine.credit_stalls.")
	inl, dma := st("obs.verbs.tx.inline"), st("obs.verbs.tx.dma")
	v["verbs.tx.inline_share"] = ratio(inl, inl+dma)
	for _, op := range verbsOps {
		v["verbs.cqe."+op] = st("obs.verbs.cqe." + op)
	}
	v["verbs.rnr_naks"] = st("obs.verbs.rnr_naks")
	v["cluster.attempts_per_op"] = ratio(st("cluster.client.rpcs"), ops)
	v["lmdb.pages_copied_per_commit"] = ratio(st("lmdb.pages_copied"), st("lmdb.commits"))
	v["lmdb.puts_per_commit"] = ratio(st("lmdb.puts"), st("lmdb.commits"))
	v["error_rate"] = ratio(float64(ep.failed()), ops)
	v["vlat_p50_us"] = percentile(latencies(ep, -1), 50) / 1e3
	for ci, c := range w.classes {
		if lat := latencies(ep, ci); len(lat) > 0 {
			v["vlat_p99_us."+c] = percentile(lat, 99) / 1e3
		}
	}
	for _, lm := range layerTable() {
		m[lm.name] = metric{v[lm.name], lm.unit, lm.clock}
	}
}
