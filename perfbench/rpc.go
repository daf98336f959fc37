package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"time"

	atbgen "hatrpc/internal/atb/gen"
	"hatrpc/internal/engine"
	"hatrpc/internal/hints"
	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/trdma"
)

// rpcSpec shapes an ATB workload over the generated ATBench stub,
// running over trdma with hint-driven plans on the paper's default
// 10-node fabric (server on node 0, clients round-robin on nodes 1–9).
type rpcSpec struct {
	clients int  // closed-loop clients (DES processes)
	warmup  int  // calls per client before the start barrier
	ops     int  // measured calls, drawn by all clients from one queue
	size    int  // payload size, and the payload_size hint
	jitter  int  // payload sizes are drawn uniformly from size±jitter
	mix     bool // fair coin between LatCall and TputCall; otherwise Echo
}

// mix512 is the Fig. 13 set-up at 64 clients: two differently hinted
// functions on one connection and more clients than server cores.
// Payload sizes vary by ±64 B around the 512 B hint so that virtual
// latency depends on the seed, not only on the coin.
var mix512 = rpcSpec{clients: 64, warmup: 4, ops: 24000, size: 512, jitter: 64, mix: true}

// bulk128k moves ~128 KB payloads with four clients: byte copies and
// allocation dominate and the DES kernel does little. With the payload
// hint the planner picks a pre-registered direct protocol rather than
// rendezvous. The size jitter makes virtual latency depend on the seed.
var bulk128k = rpcSpec{clients: 4, warmup: 4, ops: 3000, size: 131072, jitter: 8192}

// rpcOp is one generated call.
type rpcOp struct {
	class uint8 // 0 LatCall (or Echo), 1 TputCall
	size  int32
}

func (s rpcSpec) prepare(seed int64) (func(*tracer) *episode, uint64) {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]rpcOp, s.clients*s.warmup+s.ops)
	h := fnv.New64a()
	for i := range ops {
		op := rpcOp{size: int32(s.size)}
		if s.mix {
			op.class = uint8(rng.Intn(2))
		}
		if s.jitter > 0 {
			op.size += int32(rng.Intn(2*s.jitter+1) - s.jitter)
		}
		ops[i] = op
		fmt.Fprintf(h, "%d/%d ", op.class, op.size)
	}
	return func(tr *tracer) *episode { return s.episode(seed, ops, tr) }, h.Sum64()
}

// hintTable is the ATB hint table for this run: the service-level set
// carries the goal, expected concurrency and payload size, and the mix
// functions keep their per-function goal overrides (Fig. 1 hierarchy).
func (s rpcSpec) hintTable(localCores int) *trdma.ServiceHints {
	shared := map[hints.Key]string{
		hints.KeyPerfGoal:    string(hints.GoalThroughput),
		hints.KeyConcurrency: strconv.Itoa(s.clients),
		hints.KeyPayloadSize: strconv.Itoa(s.size),
	}
	var server map[hints.Key]string
	if s.clients <= localCores {
		server = map[hints.Key]string{hints.KeyNUMA: "bind"}
	}
	return &trdma.ServiceHints{
		ServiceName: "ATBench",
		Service:     hints.MakeSet(shared, server, nil),
		Functions: map[string]*hints.Set{
			"Echo":     hints.NewSet(),
			"LatCall":  hints.MakeSet(map[hints.Key]string{hints.KeyPerfGoal: string(hints.GoalLatency)}, nil, nil),
			"TputCall": hints.MakeSet(map[hints.Key]string{hints.KeyPerfGoal: string(hints.GoalThroughput)}, nil, nil),
		},
		FnIDs:  atbgen.ATBenchHints.FnIDs,
		Oneway: atbgen.ATBenchHints.Oneway,
	}
}

// echoHandler is the server's work: a checksum costing ~0.38 ns per
// byte of node CPU (the ATB mix-benchmark handler), then an echo.
type echoHandler struct {
	node *simnet.Node
	tr   *tracer
}

func (h *echoHandler) serve(p *sim.Proc, payload []byte) ([]byte, error) {
	if h.tr != nil {
		id := h.tr.begin(p, spanHandler, 0)
		defer h.tr.end(p, id)
		if len(payload) >= 8 {
			h.tr.tag(p, binary.BigEndian.Uint64(payload))
		}
	}
	h.node.CPU.Compute(p, sim.Duration(float64(len(payload))*0.38))
	return payload, nil
}

func (h *echoHandler) Echo(p *sim.Proc, b []byte) ([]byte, error)     { return h.serve(p, b) }
func (h *echoHandler) LatCall(p *sim.Proc, b []byte) ([]byte, error)  { return h.serve(p, b) }
func (h *echoHandler) TputCall(p *sim.Proc, b []byte) ([]byte, error) { return h.serve(p, b) }

func (s rpcSpec) episode(seed int64, ops []rpcOp, tr *tracer) *episode {
	begin := time.Now()
	env := sim.NewEnv(seed)
	cl := simnet.NewCluster(env, simnet.DefaultConfig())
	ecfg := engine.DefaultConfig()
	ecfg.MaxMsgSize = max(4*(s.size+s.jitter), 16384)
	ecfg.EagerSlots = 16
	srvEng := engine.New(cl.Node(0), ecfg)
	engines := []*engine.Engine{srvEng}
	for i := 1; i < cl.Nodes(); i++ {
		engines = append(engines, engine.New(cl.Node(i), ecfg))
	}
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
		for _, e := range engines {
			e.SetObs(reg)
		}
	}
	sh := s.hintTable(cl.Node(0).LocalCores())
	var proc trdma.Processor = atbgen.NewATBenchProcessor(&echoHandler{node: cl.Node(0), tr: tr})
	if tr != nil {
		proc = tracedProcessor{proc, tr}
	}
	srv := trdma.NewServer(srvEng, sh, proc).EngineServer()

	ep := newEpisode(cl, s.clients, begin)
	ep.recs = make([]opRec, 0, s.ops)
	next := 0
	var dial0, dial1 int64
	var plans map[string]engine.CallOpts
	for ci := 0; ci < s.clients; ci++ {
		ci := ci
		env.Spawn(fmt.Sprintf("client-%d", ci), func(p *sim.Proc) {
			h0 := hostNS()
			if dial0 == 0 {
				dial0 = h0
			}
			t := trdma.Dial(p, engines[1+ci%(len(engines)-1)], cl.Node(0), sh, nil)
			dial1 = hostNS()
			if plans == nil {
				plans = map[string]engine.CallOpts{}
				for _, fn := range []string{"Echo", "LatCall", "TputCall"} {
					plans[fn] = t.Plan(fn)
				}
			}
			var tp trdma.Transport = t
			if tr != nil {
				tp = tracedTransport{t, tr}
			}
			c := atbgen.NewATBenchClient(tp)
			buf := make([]byte, s.size+s.jitter)
			for i := range buf {
				buf[i] = byte(int64(i)*131 + int64(ci)*7 + seed)
			}
			binary.BigEndian.PutUint32(buf[8:], uint32(ci))
			call := func(i int) opRec {
				op := ops[i]
				payload := buf[:op.size]
				req := uint64(i + 1)
				binary.BigEndian.PutUint64(payload, req)
				rec := opRec{class: op.class, start: p.Now()}
				var sp int32
				if tr != nil {
					sp = tr.begin(p, spanStub, req)
				}
				var resp []byte
				var err error
				switch {
				case !s.mix:
					resp, err = c.Echo(p, payload)
				case op.class == 0:
					resp, err = c.LatCall(p, payload)
				default:
					resp, err = c.TputCall(p, payload)
				}
				if tr != nil {
					tr.end(p, sp)
				}
				rec.end, rec.ok = p.Now(), err == nil
				if err == nil && !bytes.Equal(resp, payload) {
					ep.failf("request %d: reply differs from the request (%d bytes vs %d)", req, len(resp), len(payload))
				}
				return rec
			}
			for k := 0; k < s.warmup; k++ {
				i := next
				next++
				call(i)
			}
			ep.arrive(p)
			for next < len(ops) {
				i := next
				next++
				ep.recs = append(ep.recs, call(i))
			}
			ep.leave(p)
		})
	}
	ep.counters = func() map[string]float64 {
		c := map[string]float64{"server.served": float64(srv.Served), "server.shed": float64(srv.Shed)}
		obsCounters(c, reg)
		return c
	}
	ep.finish = func() {
		for fn, o := range plans {
			key := "trdma.plan." + strings.ToLower(fn)
			ep.state[key+".proto"] = float64(o.Proto)
			ep.state[key+".poll"] = float64(resolvedPoll(o))
		}
		if tr != nil {
			ep.layer["trdma.dial_host_ms"] = float64(dial1-dial0) / 1e6
		}
	}
	return ep
}

// resolvedPoll folds a plan's legacy Busy flag into its polling mode.
func resolvedPoll(o engine.CallOpts) engine.PollMode {
	if o.Poll != engine.PollFromBusy {
		return o.Poll
	}
	if o.Busy {
		return engine.PollBusyMode
	}
	return engine.PollEventMode
}

// obsCounters copies every counter of reg (nil outside traced
// episodes) into c under an "obs." prefix. The registry is read through
// its rendered table, so the names stay the program's own.
func obsCounters(c map[string]float64, reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, line := range strings.Split(reg.CountersTable(), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
			c["obs."+f[0]] = float64(v)
		}
	}
}
