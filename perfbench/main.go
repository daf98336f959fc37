// Command perfbench is the repository's benchmark. One invocation runs
// one workload in one process and prints, as the last line of standard
// output, one JSON object with the keys correct, attempted, failed and
// metrics; the lines before it list every metric with its unit and
// clock.
//
//	go build -o perfbench . && ./perfbench --workload rpc-mix-512 --seed 1 --seconds 10 --trace 0
//
// It reads two clocks. Host time is how fast the simulator runs: what a
// user of cmd/figures or cmd/atb waits on. Virtual time is what the
// modelled HatRPC stack delivers: what the paper's figures report.
//
// A run repeats episodes until --seconds of host time are spent. An
// episode builds a fresh simulated cluster from one input set, boots,
// dials and warms it up (set-up), runs a fixed closed-loop op budget (the
// measured phase) and tears it down. A workload draws one input set from
// the seed, or several when one set is too small to be representative;
// the run then cycles through them. Every episode of a set replays the
// same inputs, so its virtual metrics are exact, and an episode that
// disagrees with the set's first fails the run. Virtual metrics pool the
// sets' ops. Host times are medians over episodes, allocation counts are
// totals over them per op, and peak_rss_mb is the process's high-water
// mark over the run.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates
// untraced and traced episodes: the traced ones wrap the stub, the
// transport, the processor, the handler and the cluster client in spans
// recorded by this package, attach an obs registry with Engine.SetObs
// and take a CPU profile, and the run reports the per-layer metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/stats"
)

// opRec is one measured client operation.
type opRec struct {
	class      uint8 // index into the workload's two class names
	ok         bool
	start, end sim.Time
}

// episode is one set-up → measured phase → teardown cycle. Clients call
// arrive after warming up and leave after their last op; the host clock
// and memory statistics are read at those two barriers from inside the
// simulation, so set-up and teardown never leak into the measured phase.
type episode struct {
	env     *sim.Env
	fabric  *simnet.Cluster
	set     int // index of the input set the episode ran
	pending int // clients not yet at the start barrier
	running int // clients still in the measured phase
	gate    *sim.Signal

	hostBegin, hostSetup time.Time // set-up spans hostBegin..hostSetup
	hostStart, hostEnd   time.Time // the measured phase
	ms0, ms1             runtime.MemStats
	vStart, vEnd         sim.Time

	recs []opRec
	bad  []string // correctness-gate violations

	// counters reads the layer counters; the episode keeps their change
	// over the measured phase in state. Names starting with "obs." come
	// from the obs registry of traced episodes; the rest are always on.
	// All are virtual-clock and deterministic.
	counters func() map[string]float64
	c0       map[string]float64
	state    map[string]float64
	// layer holds host-clock and span-derived figures of traced episodes,
	// and the codec self times (host ns) of their measured calls.
	layer                    map[string]float64
	clientCodec, serverCodec []float64
	// finish runs after the simulation stops, before teardown.
	finish func()

	// onStart and onEnd bracket the measured phase (the traced run starts
	// and stops its CPU profile there).
	onStart, onEnd func()
}

func newEpisode(fabric *simnet.Cluster, clients int, begin time.Time) *episode {
	env := fabric.Env()
	return &episode{
		env: env, fabric: fabric, pending: clients, running: clients, gate: sim.NewSignal(env),
		hostBegin: begin, state: map[string]float64{}, layer: map[string]float64{},
	}
}

// arrive parks a warmed-up client at the start barrier; the last arrival
// ends set-up and opens the measured phase for everyone.
func (e *episode) arrive(p *sim.Proc) {
	e.pending--
	if e.pending > 0 {
		e.gate.Wait(p)
		return
	}
	e.vStart = p.Now()
	e.hostSetup = time.Now()
	e.c0 = e.counters()
	// Collect set-up's garbage so every measured phase starts from the
	// same heap state.
	runtime.GC()
	if e.onStart != nil {
		e.onStart()
	}
	runtime.ReadMemStats(&e.ms0)
	e.hostStart = time.Now()
	e.gate.Broadcast()
}

// leave retires a client; the last one closes the measured phase.
func (e *episode) leave(p *sim.Proc) {
	e.running--
	if e.running > 0 {
		return
	}
	e.hostEnd = time.Now()
	runtime.ReadMemStats(&e.ms1)
	if e.onEnd != nil {
		e.onEnd()
	}
	for k, v := range e.counters() {
		e.state[k] = v - e.c0[k]
	}
	e.vEnd = p.Now()
	e.env.Stop()
}

func (e *episode) failf(format string, args ...any) {
	if len(e.bad) < 20 {
		e.bad = append(e.bad, fmt.Sprintf(format, args...))
	}
}

func (e *episode) ops() int { return len(e.recs) }

func (e *episode) failed() int {
	n := 0
	for _, r := range e.recs {
		if !r.ok {
			n++
		}
	}
	return n
}

// digest fingerprints everything virtual the episode produced: every
// op's class, outcome and virtual timing plus the layer counters.
func (e *episode) digest() uint64 {
	h := fnv.New64a()
	for _, r := range e.recs {
		fmt.Fprintf(h, "%d %v %d %d\n", r.class, r.ok, r.start, r.end)
	}
	for _, k := range sortedKeys(e.state) {
		if !strings.HasPrefix(k, "obs.") {
			fmt.Fprintf(h, "%s=%v\n", k, e.state[k])
		}
	}
	return h.Sum64()
}

// workload is one named workload. prepare draws one input set from a
// seed and returns the episode runner plus a fingerprint of the inputs. A
// run draws sets input sets (at least one) from its seed.
type workload struct {
	classes [2]string
	sets    int
	prepare func(seed int64) (run func(tr *tracer) *episode, inputs uint64)
}

var workloads = map[string]workload{
	"rpc-mix-512":   {classes: [2]string{"latcall", "tputcall"}, prepare: mix512.prepare},
	"rpc-bulk-128k": {classes: [2]string{"echo", "echo"}, prepare: bulk128k.prepare},
	"kv-rf3-rw":     {classes: [2]string{"get", "put"}, prepare: kvRF3.prepare},
	"kv-rf3-rw-2w":  {classes: [2]string{"get", "put"}, sets: kvRF3TwoSets, prepare: kvRF3Two.prepare},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	clock string
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: rpc-mix-512, rpc-bulk-128k, kv-rf3-rw or kv-rf3-rw-2w")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs and the simulation")
	seconds := flag.Float64("seconds", 10, "host seconds to spend on measured episodes")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	spans := flag.String("spans", "", "file to write the last traced episode's spans to, as JSON lines")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *trace, *seconds)
		os.Exit(2)
	}
	res, report := run(w, *seed, *seconds, *trace == 1, *spans)
	fmt.Print(report)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// minEpisodes bounds the medians from below however slow an episode is.
const minEpisodes = 3

func run(w workload, seed int64, seconds float64, traced bool, spansPath string) (*result, string) {
	var bad []string
	// Set j of seed s is drawn from seed s*sets+j, so the sets of one
	// seed differ and no two seeds share a set; a single set is drawn from
	// the seed itself.
	sets := max(w.sets, 1)
	runs := make([]func(*tracer) *episode, sets)
	var inputs uint64
	for j := range runs {
		var fp uint64
		runs[j], fp = w.prepare(seed*int64(sets) + int64(j))
		if j == 0 {
			inputs = fp
		}
	}
	// The seed must reach the generator: a neighbouring seed draws other
	// inputs.
	if _, other := w.prepare((seed + 1) * int64(sets)); other == inputs {
		bad = append(bad, "seeds differ but the generated inputs do not")
	}

	var plain, tracedEps []*episode
	var lastTrace *tracer
	var profile bytes.Buffer
	buckets := map[string]int64{}
	first := map[int]uint64{}
	begin := time.Now()
	for i := 0; ; i++ {
		// Traced runs alternate untraced and traced episodes of each set.
		var tr *tracer
		set := i % sets
		if traced {
			set = i / 2 % sets
			if i%2 == 1 {
				tr = newTracer()
			}
		}
		runtime.GC()
		ep := runs[set](tr)
		ep.set = set
		if tr != nil {
			profile.Reset()
			ep.onStart = func() {
				if err := pprof.StartCPUProfile(&profile); err != nil {
					panic(err)
				}
			}
			ep.onEnd = pprof.StopCPUProfile
		}
		ep.env.Run()
		// Every workload runs a fault-free fabric: without a fault plan
		// simnet has no path that drops a message.
		if ep.fabric.Faults() != nil {
			ep.failf("a fault plan is installed on a fault-free workload")
		}
		if ep.finish != nil {
			ep.finish()
		}
		ep.env.Shutdown()
		// Keep the episode's figures, not its simulation.
		ep.env, ep.fabric, ep.gate, ep.counters, ep.finish, ep.onStart, ep.onEnd = nil, nil, nil, nil, nil, nil, nil
		if ep.running != 0 {
			bad = append(bad, "an episode ended before every client finished")
		}
		if d, ok := first[set]; !ok {
			first[set] = ep.digest()
		} else if ep.digest() != d {
			bad = append(bad, fmt.Sprintf("episode %d (traced=%v) is not virtually identical to the first of input set %d", i, tr != nil, set))
		}
		if tr != nil {
			analyzeTrace(ep, tr)
			if err := addProfile(profile.Bytes(), buckets); err != nil {
				bad = append(bad, "cpu profile: "+err.Error())
			}
			tracedEps = append(tracedEps, ep)
			lastTrace = tr
		} else {
			plain = append(plain, ep)
		}
		bad = append(bad, ep.bad...)
		least := max(minEpisodes, sets)
		enough := len(plain) >= least && (!traced || len(tracedEps) >= least)
		if enough && time.Since(begin).Seconds() >= seconds {
			break
		}
	}
	if lastTrace != nil && spansPath != "" {
		if err := lastTrace.write(spansPath); err != nil {
			bad = append(bad, "writing spans: "+err.Error())
		}
	}

	res := &result{Metrics: map[string]metric{}}
	for _, ep := range append(plain, tracedEps...) {
		res.Attempted += ep.ops()
		res.Failed += ep.failed()
	}
	if traced {
		layerMetrics(res.Metrics, w, plain, tracedEps, buckets)
	} else {
		endToEnd(res.Metrics, plain)
	}
	res.Correct = len(bad) == 0
	return res, render(res, bad, sets, len(plain), len(tracedEps))
}

// Per-episode host figures.
func setupSeconds(ep *episode) float64 { return ep.hostSetup.Sub(ep.hostBegin).Seconds() }
func hostSeconds(ep *episode) float64  { return ep.hostEnd.Sub(ep.hostStart).Seconds() }

func opsPerHostSecond(ep *episode) float64 {
	return float64(ep.ops()) / hostSeconds(ep)
}

// pooled merges the first episode of each input set into one: their op
// records and counters add up and their measured virtual times follow
// each other. Every set's episodes are virtually identical, so this is
// every virtual figure of the run. Span-derived figures are set 0's.
func pooled(eps []*episode) *episode {
	p := &episode{state: map[string]float64{}, layer: eps[0].layer}
	seen := map[int]bool{}
	for _, ep := range eps {
		if seen[ep.set] {
			continue
		}
		seen[ep.set] = true
		p.recs = append(p.recs, ep.recs...)
		p.vEnd += ep.vEnd - ep.vStart
		for k, x := range ep.state {
			p.state[k] += x
		}
	}
	return p
}

// perOp is a count summed over the episodes, per measured op. It suits
// the allocation counts, which repeat to within a few bytes per op from
// one episode of an input set to the next: the sum weighs every set by
// its ops where a median would land in one of the input sets' modes.
func perOp(eps []*episode, count func(*episode) uint64) float64 {
	var n, ops float64
	for _, ep := range eps {
		n += float64(count(ep))
		ops += float64(ep.ops())
	}
	return n / ops
}

func medianOf(eps []*episode, f func(*episode) float64) float64 {
	xs := make([]float64, len(eps))
	for i, ep := range eps {
		xs[i] = f(ep)
	}
	return percentile(xs, 50)
}

func mean(xs []float64) float64 {
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Mean()
}

func percentile(xs []float64, p float64) float64 {
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Percentile(p)
}

// latencies returns the virtual latencies (ns) of the episode's ops,
// restricted to one class when class >= 0.
func latencies(ep *episode, class int) []float64 {
	var xs []float64
	for _, r := range ep.recs {
		if class < 0 || int(r.class) == class {
			xs = append(xs, float64(r.end-r.start))
		}
	}
	return xs
}

func endToEnd(m map[string]metric, eps []*episode) {
	ep := pooled(eps)
	lat := latencies(ep, -1)
	m["setup_s"] = metric{medianOf(eps, setupSeconds), "s", "host"}
	m["sim_ops_per_host_s"] = metric{medianOf(eps, opsPerHostSecond), "1/s", "host"}
	m["host_allocs_per_op"] = metric{perOp(eps, func(ep *episode) uint64 { return ep.ms1.Mallocs - ep.ms0.Mallocs }), "count", "host"}
	m["host_alloc_bytes_per_op"] = metric{perOp(eps, func(ep *episode) uint64 { return ep.ms1.TotalAlloc - ep.ms0.TotalAlloc }), "B", "host"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB", "host"}
	m["vops_per_s"] = metric{float64(ep.ops()) / (float64(ep.vEnd-ep.vStart) / 1e9), "1/s", "virtual"}
	m["vlat_mean_us"] = metric{mean(lat) / 1e3, "us", "virtual"}
	m["vlat_p99_us"] = metric{percentile(lat, 99) / 1e3, "us", "virtual"}
	m["success_rate"] = metric{1 - float64(ep.failed())/float64(ep.ops()), "ratio", "virtual"}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// render lists every metric with its unit and clock, then the run's
// environment and any correctness-gate failures.
func render(res *result, bad []string, sets, plain, traced int) string {
	var b strings.Builder
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Fprintf(&b, "%-40s %16.6g %-6s %s\n", k, m.Value, m.Unit, m.clock)
	}
	fmt.Fprintf(&b, "episodes: %d untraced, %d traced, over %d input sets; ops attempted %d, failed %d\n", plain, traced, sets, res.Attempted, res.Failed)
	fmt.Fprintf(&b, "env: %s GOMAXPROCS=%d NumCPU=%d\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, s := range bad {
		fmt.Fprintf(&b, "CORRECTNESS: %s\n", s)
	}
	return b.String()
}
