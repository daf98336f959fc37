package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"hatrpc/internal/sim"
	"hatrpc/internal/trdma"
)

// Span names recorded by the traced run. Each wraps one call into a
// layer's public API from this benchmark's own code; nothing inside the
// program is instrumented.
const (
	spanStub    = "stub.call"           // ATBenchClient.Echo/LatCall/TputCall
	spanInvoke  = "trdma.Invoke"        // Transport.Invoke under the stub
	spanProcess = "thrift.ProcessBytes" // Processor.ProcessBytes on the server
	spanHandler = "handler"             // the service handler under ProcessBytes
	spanKVPut   = "cluster.Put"         // cluster.Client.Put
	spanKVGet   = "cluster.Get"         // cluster.Client.Get
)

var hostBase = time.Now()

// hostNS reads the monotonic host clock.
func hostNS() int64 { return int64(time.Since(hostBase)) }

// span is one traced call. Req joins the client and server spans of one
// RPC: the client stamps it into the payload and the server handler
// reads it back.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"` // index of the enclosing span; -1 for a root
	Req    uint64 `json:"req"`
	H0     int64  `json:"host_start_ns"`
	H1     int64  `json:"host_end_ns"`
	V0     int64  `json:"virt_start_ns"`
	V1     int64  `json:"virt_end_ns"`
}

// tracer keeps spans in memory. The DES runs one process at a time, so
// it needs no locking; each simulated process has its own stack of open
// spans.
type tracer struct {
	spans []span
	open  map[*sim.Proc][]int32
}

func newTracer() *tracer { return &tracer{open: make(map[*sim.Proc][]int32)} }

// begin opens a span on p's stack. A child inherits its parent's request
// id unless it names one.
func (t *tracer) begin(p *sim.Proc, name string, req uint64) int32 {
	st := t.open[p]
	parent := int32(-1)
	if n := len(st); n > 0 {
		parent = st[n-1]
		if req == 0 {
			req = t.spans[parent].Req
		}
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, H0: hostNS(), V0: int64(p.Now())})
	t.open[p] = append(st, id)
	return id
}

// end closes the innermost open span of p, which must be id.
func (t *tracer) end(p *sim.Proc, id int32) {
	s := &t.spans[id]
	s.H1, s.V1 = hostNS(), int64(p.Now())
	st := t.open[p]
	if len(st) == 0 || st[len(st)-1] != id {
		panic("perfbench: span closed out of order: " + s.Name)
	}
	t.open[p] = st[:len(st)-1]
}

// tag stamps req on every open span of p that lacks one: the server
// learns a call's id only once the handler sees the decoded payload.
func (t *tracer) tag(p *sim.Proc, req uint64) {
	for _, id := range t.open[p] {
		if t.spans[id].Req == 0 {
			t.spans[id].Req = req
		}
	}
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedTransport records a span around every Transport.Invoke.
type tracedTransport struct {
	inner trdma.Transport
	t     *tracer
}

func (tt tracedTransport) Invoke(p *sim.Proc, fn string, req []byte, oneway bool) ([]byte, error) {
	id := tt.t.begin(p, spanInvoke, 0)
	resp, err := tt.inner.Invoke(p, fn, req, oneway)
	tt.t.end(p, id)
	return resp, err
}

func (tt tracedTransport) Close() error { return tt.inner.Close() }

// tracedProcessor records a span around every Processor.ProcessBytes.
type tracedProcessor struct {
	inner trdma.Processor
	t     *tracer
}

func (tp tracedProcessor) ProcessBytes(p *sim.Proc, fnID uint32, req []byte) []byte {
	id := tp.t.begin(p, spanProcess, 0)
	resp := tp.inner.ProcessBytes(p, fnID, req)
	tp.t.end(p, id)
	return resp
}

// rpcPhases joins each measured call's client and server spans and
// splits its virtual latency into the request path, the server span and
// the response path, which sum to the Invoke latency by construction.
// The join is the check: every call must meet exactly one server span,
// lying inside its Invoke interval. Both codec self times come out of
// the same join.
type rpcPhases struct {
	reqPath, server, respPath []float64 // virtual ns
	clientCodec, serverCodec  []float64 // host ns
	calls                     int
}

func (t *tracer) joinRPC(from sim.Time) (*rpcPhases, error) {
	srv := make(map[uint64]int32)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != spanProcess {
			continue
		}
		if _, dup := srv[s.Req]; dup {
			return nil, fmt.Errorf("request %d reached the server twice", s.Req)
		}
		srv[s.Req] = int32(i)
	}
	// self[i] is span i's duration minus its children's, host clock.
	self := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		self[i] += s.H1 - s.H0
		if s.Parent >= 0 {
			self[s.Parent] -= s.H1 - s.H0
		}
	}
	ph := &rpcPhases{}
	for i := range t.spans {
		inv := &t.spans[i]
		if inv.Name != spanInvoke || inv.V0 < int64(from) {
			continue
		}
		j, ok := srv[inv.Req]
		if !ok {
			return nil, fmt.Errorf("request %d has no server span", inv.Req)
		}
		pb := &t.spans[j]
		req, serve, resp := pb.V0-inv.V0, pb.V1-pb.V0, inv.V1-pb.V1
		if req < 0 || serve < 0 || resp < 0 {
			return nil, fmt.Errorf("request %d: server span [%d,%d] lies outside its Invoke span [%d,%d]",
				inv.Req, pb.V0, pb.V1, inv.V0, inv.V1)
		}
		ph.calls++
		ph.reqPath = append(ph.reqPath, float64(req))
		ph.server = append(ph.server, float64(serve))
		ph.respPath = append(ph.respPath, float64(resp))
		if inv.Parent >= 0 {
			ph.clientCodec = append(ph.clientCodec, float64(self[inv.Parent]))
		}
		ph.serverCodec = append(ph.serverCodec, float64(self[j]))
	}
	return ph, nil
}
