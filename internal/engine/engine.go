package engine

import (
	"encoding/binary"
	"fmt"
	"sort"

	"hatrpc/internal/obs"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/verbs"
)

// Config sizes the engine's per-connection resources.
type Config struct {
	// MaxMsgSize bounds a single RPC payload; direct buffers are sized to
	// hold it.
	MaxMsgSize int
	// EagerSlotSize is the payload capacity of one circular-buffer slot.
	EagerSlotSize int
	// EagerSlots is the ring depth (pre-posted receives per connection).
	EagerSlots int
	// RndvThreshold is the Hybrid-EagerRNDV switchover point.
	RndvThreshold int
	// RFPChunk is the default first-READ size when fetching an RFP
	// response of unknown length.
	RFPChunk int
	// NoFetchBufs skips the server-side published regions (RFP/HERD
	// request slot, Pilaf/FaRM meta+payload). Benchmarks that pin a
	// two-sided protocol set this to keep per-connection memory small.
	NoFetchBufs bool
	// RndvPoolCap bounds the free list of each rendezvous size class.
	// Buffers released beyond the cap are deregistered (unpinned) so a
	// mixed-size workload's pinned memory plateaus instead of growing
	// with every size class it ever touched. Zero means
	// DefaultRndvPoolCap.
	RndvPoolCap int
	// CallDeadline is the default per-call deadline applied when
	// CallOpts.Deadline is zero. Zero (the default) disables deadlines:
	// a call on a lossy fabric may block forever, and the call path is
	// byte-identical to builds without the reliability layer.
	CallDeadline sim.Duration

	// FlowCredits enables receiver-driven credit flow control when
	// positive: it is the number of peer RECV-ring slots one endpoint may
	// have outstanding (clamped to EagerSlots; a small reserve is carved
	// out for control messages). Grants piggyback on every outbound
	// header and a low-water async credit update keeps one-directional
	// flows live. Both endpoints of a connection must agree on the value
	// (they already must agree on EagerSlotSize/EagerSlots). Zero — the
	// default — disables flow control entirely: senders post unboundedly,
	// exactly the pre-credit behaviour.
	FlowCredits int
	// ModelRNR arms finite RECV depth on every connection QP: a SEND or
	// WRITE_WITH_IMM arriving with no posted RECV draws an RNR NAK (with
	// the modelled RNR-timer backoff) instead of being buffered, and
	// RnrRetry exhausted retransmissions fail the work request with
	// WCRNRRetryExceeded. False keeps the legacy infinite buffering.
	ModelRNR bool
	// RnrRetry is the RNR retransmission budget when ModelRNR is set.
	// Zero means DefaultRnrRetry.
	RnrRetry int
	// BreakerThreshold arms the client-side circuit breaker: this many
	// consecutive overload/deadline failures on a connection open it.
	// Zero (the default) disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// half-open probing (doubling after each failed probe, capped at 16×).
	// Zero means DefaultBreakerCooldown.
	BreakerCooldown sim.Duration

	// PollBudget batches CQ draining in the pump loops: one wakeup polls
	// up to this many completions (CQ.PollN) and pays one detection
	// charge for the whole batch. Zero or one keeps the legacy
	// one-completion-per-poll behaviour, byte-identical to earlier
	// builds.
	PollBudget int
	// DoorbellBatch coalesces multi-call oneway bursts (OnewayBurst)
	// into a single chained PostSend — one doorbell per chain instead of
	// one per message. Segmented single messages deliberately stay on
	// the per-fragment path: chaining a whole fragment train would defer
	// every fragment's NIC work until the last one is staged, losing the
	// staging/transmit overlap that dominates large-message latency (a
	// measured regression, not a saving). False keeps one doorbell per
	// work request everywhere, byte-identical to earlier builds.
	DoorbellBatch bool
	// ArenaPayloads recycles delivered-payload buffers through a
	// size-classed arena instead of allocating per message. It is pure
	// host-memory reuse: no simulated cost changes, so virtual-time
	// behaviour is identical with it on or off. Payload ownership
	// tightens: a handler's request bytes are recycled after its
	// response is sent, and callers may hand responses back via
	// Conn.Recycle.
	ArenaPayloads bool

	// SRQSlots moves server-side connections onto one engine-wide shared
	// receive queue: accepted connections' QPs drain a single ring of
	// this many slots instead of each pre-posting EagerSlots private
	// receives, so server receive memory scales with the aggregate
	// arrival rate rather than the connection count. Per-connection flow
	// credits still grant against EagerSlots, so many busy connections
	// can overcommit the shared ring — arm ModelRNR to surface that as
	// RNR NAK backoff instead of silent infinite buffering. Zero (the
	// default) keeps private per-connection rings, byte-identical to
	// earlier builds. Client-side (dialed) connections are unaffected.
	SRQSlots int
	// DedupSessions bounds the server-side dedup table: the number of
	// distinct virtual-connection session ids whose last response a
	// connection retains for retransmission absorption. Insertion-order
	// eviction keeps the bound deterministic. Zero means
	// DefaultDedupSessions. Legacy (sid-0) traffic uses exactly one
	// entry regardless of the bound.
	DedupSessions int
}

// DefaultRnrRetry is the RNR retransmission budget applied when
// Config.RnrRetry is zero (matches the common 7-retry RNIC default,
// minus the initial attempt).
const DefaultRnrRetry = 6

// DefaultBreakerCooldown is the initial open-state cooldown applied when
// Config.BreakerCooldown is zero: 1 ms of virtual time.
const DefaultBreakerCooldown = sim.Duration(1_000_000)

// DefaultRndvPoolCap is the per-size-class free-list bound applied when
// Config.RndvPoolCap is zero.
const DefaultRndvPoolCap = 8

// DefaultDedupSessions is the dedup-table bound applied when
// Config.DedupSessions is zero: enough for every virtual connection
// that can plausibly have a retransmission in flight on one physical
// connection, small enough that a server with thousands of connections
// stays bounded.
const DefaultDedupSessions = 64

// DefaultConfig returns the sizing used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		MaxMsgSize:    1 << 20,
		EagerSlotSize: DefaultRndvThreshold,
		EagerSlots:    64,
		RndvThreshold: DefaultRndvThreshold,
		RFPChunk:      4096,
	}
}

// ConnStats is the always-on per-connection accounting (cheap scalar
// adds on the hot path). Engine-wide per-protocol counters, phase
// histograms and trace spans live in the optional obs layer; attach a
// registry with Engine.SetObs to enable them.
type ConnStats struct {
	Calls       int64 // RPCs issued on this connection (client side)
	Oneways     int64 // of which fire-and-forget
	BytesSent   int64 // request/response payload bytes shipped
	BytesRecvd  int64 // payload bytes delivered to the application
	ReadRetries int64 // one-sided fetch polls that found stale data
}

// Engine is the per-node RDMA communication engine.
type Engine struct {
	node *simnet.Node
	dev  *verbs.Device
	pd   *verbs.PD
	cfg  Config
	env  *sim.Env

	rndvFree    map[int][]*verbs.MR // size-class → free registered buffers
	payloadFree map[int][][]byte    // size-class → recycled payload buffers (ArenaPayloads)

	// Always-on resource accounting.
	pinnedBytes int64
	rndvAllocs  int64
	readRetries int64

	// Always-on overload-protection accounting (only move when the
	// corresponding knob is enabled).
	creditStalls int64 // sends that blocked on zero credits
	rnrFailures  int64 // work requests failed with WCRNRRetryExceeded
	breakerOpens int64 // closed/half-open → open breaker transitions

	conns      []*Conn
	nextConnID int
	closed     bool

	// Shared server receive ring (Config.SRQSlots > 0): one SRQ + slot
	// region drained by every accepted connection's QP, created lazily
	// on the first accept.
	srq   *verbs.SRQ
	srqMR *verbs.MR

	obs *obs.Registry  // nil unless SetObs attached one
	trc *obs.Tracer    // cached from obs; nil = tracing off
	em  *engineMetrics // cached instruments; nil when obs is nil
}

// New creates an engine on the node (opening a simulated RNIC).
func New(node *simnet.Node, cfg Config) *Engine {
	if cfg.MaxMsgSize <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.RndvPoolCap <= 0 {
		cfg.RndvPoolCap = DefaultRndvPoolCap
	}
	dev := verbs.OpenDevice(node, nil)
	return &Engine{
		node:        node,
		dev:         dev,
		pd:          dev.AllocPD(),
		cfg:         cfg,
		env:         node.Cluster().Env(),
		rndvFree:    make(map[int][]*verbs.MR),
		payloadFree: make(map[int][][]byte),
	}
}

// PinnedBytes returns the bytes of registered (pinned) memory the engine
// currently holds across connections and the rendezvous pool.
func (e *Engine) PinnedBytes() int64 { return e.pinnedBytes }

// RndvAllocs returns how many rendezvous buffers were registered because
// the pool was dry (pool misses).
func (e *Engine) RndvAllocs() int64 { return e.rndvAllocs }

// ReadRetries returns the total one-sided fetch retries across all
// connections.
func (e *Engine) ReadRetries() int64 { return e.readRetries }

// CreditStalls returns how many sends blocked on exhausted flow-control
// credits across all connections.
func (e *Engine) CreditStalls() int64 { return e.creditStalls }

// RnrNaks returns the RNR NAKs this node's NIC generated as a receiver
// (non-zero only with Config.ModelRNR and an overdriven RECV ring).
func (e *Engine) RnrNaks() int64 { return e.dev.RnrNaks() }

// RnrFailures returns work requests on this engine's connections that
// failed with WCRNRRetryExceeded (RNR retry budget exhausted).
func (e *Engine) RnrFailures() int64 { return e.rnrFailures }

// BreakerOpens returns circuit-breaker open transitions across this
// engine's connections.
func (e *Engine) BreakerOpens() int64 { return e.breakerOpens }

// nProtocols sizes per-protocol instrument arrays (ProtoAuto included so
// Protocol values index directly).
const nProtocols = int(HybridEagerRead) + 1

// engineMetrics caches the engine's obs instruments so the hot path is a
// single nil check plus an array index, never a map lookup.
type engineMetrics struct {
	calls     [nProtocols]*obs.Counter
	served    [nProtocols]*obs.Counter
	bytesSent [nProtocols]*obs.Counter
	callLat   [nProtocols]*obs.Histogram

	oneways     *obs.Counter
	readRetries *obs.Counter
	eagerFrags  *obs.Counter
	poolHit     *obs.Counter
	poolMiss    *obs.Counter
	poolDrop    *obs.Counter
	ctsWait     *obs.Histogram
	rndvReg     *obs.Histogram

	// Reliability-layer instruments (only move under fault injection
	// or explicit deadlines).
	retries          *obs.Counter
	deadlineExceeded *obs.Counter
	dupRequests      *obs.Counter
	qpRecoveries     *obs.Counter

	// Overload-protection instruments (only move when flow control,
	// admission control, RNR modelling or the breaker is enabled).
	shed          [nProtocols]*obs.Counter // requests rejected by admission
	creditStalls  [nProtocols]*obs.Counter // sends blocked on zero credits
	rnrNaks       *obs.Counter             // WCRNRRetryExceeded completions
	breakerOpen   *obs.Counter             // breaker open transitions
	creditUpdates *obs.Counter             // async kCredit messages sent

	// Session-lifecycle instruments (only move when Sessions are used).
	sessionRedials   *obs.Counter // dial attempts while re-establishing
	sessionFailovers *obs.Counter // successful reconnects (epoch ≥ 2)
	sessionReplays   *obs.Counter // idempotent calls replayed across a reconnect
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	m := &engineMetrics{
		oneways:     r.Counter("engine.oneways"),
		readRetries: r.Counter("engine.read_retries"),
		eagerFrags:  r.Counter("engine.eager_frags"),
		poolHit:     r.Counter("engine.rndv_pool.hit"),
		poolMiss:    r.Counter("engine.rndv_pool.miss"),
		poolDrop:    r.Counter("engine.rndv_pool.drop"),
		ctsWait:     r.Histogram("engine.cts_wait_ns"),
		rndvReg:     r.Histogram("engine.rndv_register_ns"),

		retries:          r.Counter("engine.retries"),
		deadlineExceeded: r.Counter("engine.deadline_exceeded"),
		dupRequests:      r.Counter("engine.dup_requests"),
		qpRecoveries:     r.Counter("engine.qp_recoveries"),

		rnrNaks:       r.Counter("engine.rnr_naks"),
		breakerOpen:   r.Counter("engine.breaker_open"),
		creditUpdates: r.Counter("engine.credit_updates"),

		sessionRedials:   r.Counter("engine.session_redials"),
		sessionFailovers: r.Counter("engine.session_failovers"),
		sessionReplays:   r.Counter("engine.replays"),
	}
	for i := 0; i < nProtocols; i++ {
		name := Protocol(i).String()
		m.calls[i] = r.Counter("engine.calls." + name)                //hatlint:allow obsnames -- suffix bounded by the Protocol enum
		m.served[i] = r.Counter("engine.served." + name)              //hatlint:allow obsnames -- suffix bounded by the Protocol enum
		m.bytesSent[i] = r.Counter("engine.bytes_sent." + name)       //hatlint:allow obsnames -- suffix bounded by the Protocol enum
		m.callLat[i] = r.Histogram("engine.call_lat_ns." + name)      //hatlint:allow obsnames -- suffix bounded by the Protocol enum
		m.shed[i] = r.Counter("engine.shed." + name)                  //hatlint:allow obsnames -- suffix bounded by the Protocol enum
		m.creditStalls[i] = r.Counter("engine.credit_stalls." + name) //hatlint:allow obsnames -- suffix bounded by the Protocol enum
	}
	return m
}

// SetObs attaches an observability registry to the engine and its NIC:
// per-protocol call/serve counters and latency histograms, rendezvous
// pool and control-phase instruments, plus gauges sampling CPU load and
// NIC gate utilization. When the registry carries a tracer, the engine
// also emits deterministic sim-time event spans. Pass nil to detach.
// With no registry attached the hot-path instrumentation reduces to a
// nil test.
func (e *Engine) SetObs(r *obs.Registry) {
	e.obs = r
	e.trc = r.Tracer()
	e.dev.SetObs(r)
	if r == nil {
		e.em = nil
		return
	}
	e.em = newEngineMetrics(r)
	node, env := e.node, e.env
	pfx := fmt.Sprintf("node%d.", node.ID())
	r.Gauge(pfx+"cpu.load_factor", func() float64 { return node.CPU.LoadFactor() })      //hatlint:allow obsnames -- node prefix bounded by cluster size
	r.Gauge(pfx+"nic.tx.util", func() float64 { return node.TX.Utilization(env.Now()) }) //hatlint:allow obsnames -- node prefix bounded by cluster size
	r.Gauge(pfx+"nic.rx.util", func() float64 { return node.RX.Utilization(env.Now()) }) //hatlint:allow obsnames -- node prefix bounded by cluster size
	r.Gauge(pfx+"engine.pinned_bytes", func() float64 { return float64(e.pinnedBytes) }) //hatlint:allow obsnames -- node prefix bounded by cluster size
}

// Node returns the node this engine runs on.
func (e *Engine) Node() *simnet.Node { return e.node }

// Conns returns every connection this engine created, both dialed and
// accepted (for inspection — e.g. leak assertions over PostedRecvs).
func (e *Engine) Conns() []*Conn { return e.conns }

// Config returns the engine sizing.
func (e *Engine) Config() Config { return e.cfg }

// Cores returns the node's core count (for subscription classification).
func (e *Engine) Cores() int { return e.node.CPU.Cores() }

// sizeClass rounds a buffer size up to a power of two for pooling.
func sizeClass(n int) int {
	c := 4096
	for c < n {
		c <<= 1
	}
	return c
}

// acquireRndv takes a registered buffer from the rendezvous pool,
// registering a new one (expensive) only when the pool is dry (§4.3:
// "HatRPC pre-allocates and registers a buffer pool which makes
// requesting memories fast during the communication").
func (e *Engine) acquireRndv(p *sim.Proc, size int) *verbs.MR {
	cls := sizeClass(size)
	free := e.rndvFree[cls]
	if n := len(free); n > 0 {
		mr := free[n-1]
		free[n-1] = nil
		e.rndvFree[cls] = free[:n-1]
		mr.SetRevoked(false) // remote access restored for the new transfer
		e.em.poolHitInc()
		p.Sleep(200) // pool pop + bookkeeping
		return mr
	}
	e.rndvAllocs++
	e.pinnedBytes += int64(cls)
	start := int64(p.Now())
	mr := e.pd.RegisterMR(p, cls)
	if m := e.em; m != nil {
		m.poolMiss.Inc()
		m.rndvReg.Observe(float64(int64(p.Now()) - start))
	}
	e.trc.Complete("rndv", "register", e.node.ID(), 0, start, int64(p.Now()),
		obs.Arg{K: "bytes", V: cls})
	return mr
}

// poolHitInc is split out so acquireRndv's fast path stays branch-cheap.
func (m *engineMetrics) poolHitInc() {
	if m != nil {
		m.poolHit.Inc()
	}
}

// releaseRndv returns a pool buffer. Each size class keeps at most
// Config.RndvPoolCap free buffers; overflow is dropped and its pinned
// bytes returned, bounding pool growth under mixed-size workloads.
func (e *Engine) releaseRndv(mr *verbs.MR) {
	// Withdraw remote access first: an in-flight one-sided transfer still
	// holding this rkey (a retransmission race) must not touch the buffer
	// once it can be recycled.
	mr.SetRevoked(true)
	cls := sizeClass(mr.Len())
	free := e.rndvFree[cls]
	if len(free) >= e.cfg.RndvPoolCap {
		e.pinnedBytes -= int64(cls)
		if m := e.em; m != nil {
			m.poolDrop.Inc()
		}
		return
	}
	e.rndvFree[cls] = append(free, mr)
}

// ---------------------------------------------------------------------------
// Wire header

const hdrSize = 28

// Message kinds.
const (
	kReq    byte = 1
	kResp   byte = 2
	kRTS    byte = 3
	kCTS    byte = 4
	kNotify byte = 5
	kFin    byte = 6
	kCredit byte = 7 // async credit-grant update (header-only)
	kErr    byte = 8 // typed overload rejection (header-only)
	kDrain  byte = 9 // typed draining rejection (header-only)
)

const immDirect uint32 = 0xFFFFFFFF

type hdr struct {
	kind      byte
	proto     Protocol
	respProto Protocol
	fn        uint32
	length    uint32 // total payload length of the message
	seq       uint32
	off       uint32 // fragment offset (eager segmentation)
	credits   uint32 // cumulative RECV-repost grant (flow control; 0 when off)
	sid       uint32 // virtual-connection session id (0 = no virtualization)
}

func putHdr(b []byte, h hdr) {
	_ = b[hdrSize-1] // bounds hint: callers hand fixed-size registered MRs
	b[0] = h.kind
	b[1] = byte(h.proto)
	b[2] = byte(h.respProto)
	b[3] = 0
	binary.LittleEndian.PutUint32(b[4:], h.fn)
	binary.LittleEndian.PutUint32(b[8:], h.length)
	binary.LittleEndian.PutUint32(b[12:], h.seq)
	binary.LittleEndian.PutUint32(b[16:], h.off)
	binary.LittleEndian.PutUint32(b[20:], h.credits)
	binary.LittleEndian.PutUint32(b[24:], h.sid)
}

// decodeHdr is the bounds-checked variant of getHdr for buffers whose
// length is not structurally guaranteed (getHdr's callers all read from
// fixed-size registered MRs, which are always >= hdrSize). The reserved
// byte b[3] must be zero — a nonzero value means the bytes are not a
// header this engine version produced.
func decodeHdr(b []byte) (hdr, bool) {
	if len(b) < hdrSize || b[3] != 0 {
		return hdr{}, false
	}
	return getHdr(b), true
}

func getHdr(b []byte) hdr {
	_ = b[hdrSize-1] // bounds hint: callers hand fixed-size registered MRs
	return hdr{
		kind:      b[0],
		proto:     Protocol(b[1]),
		respProto: Protocol(b[2]),
		fn:        binary.LittleEndian.Uint32(b[4:]),
		length:    binary.LittleEndian.Uint32(b[8:]),
		seq:       binary.LittleEndian.Uint32(b[12:]),
		off:       binary.LittleEndian.Uint32(b[16:]),
		credits:   binary.LittleEndian.Uint32(b[20:]),
		sid:       binary.LittleEndian.Uint32(b[24:]),
	}
}

// rndvKey namespaces the shared rendezvous table by transfer direction so
// a request and its response (same seq) never collide.
func rndvKey(seq uint32, fromServer bool) uint64 {
	k := uint64(seq) << 1
	if fromServer {
		k |= 1
	}
	return k
}

// Arrival is a delivered request (at the server) or response (at the
// client).
type Arrival struct {
	Kind      byte
	Proto     Protocol
	RespProto Protocol
	Fn        uint32
	Seq       uint32
	SID       uint32 // originating virtual connection (0 = none)
	Payload   []byte
}

// connShared is the per-connection control blackboard both endpoints
// reference. In a real deployment rendezvous RKeys travel inside CTS/RTS
// packets; in the simulation the key bytes are represented by entries in
// this shared table, while the data payloads still traverse the simulated
// fabric.
type connShared struct {
	rndv map[uint64]verbs.RKey // rndvKey → exposed buffer for WRITE/READ
}

// hello is the out-of-band connection handshake payload (QPN/LID/rkey
// exchange in a real system).
type hello struct {
	qp     *verbs.QP
	direct verbs.RKey
	rfpIn  verbs.RKey
	rfpOut verbs.RKey
	kvMeta verbs.RKey
	kvPay  verbs.RKey
	shared *connShared
}

// Conn is one endpoint of an engine connection. A Conn carries one
// outstanding call at a time (Thrift connection semantics); concurrency
// comes from many connections.
type Conn struct {
	eng    *Engine
	server bool
	id     int // engine-local index; trace tid

	qp  *verbs.QP
	cq  *verbs.CQ
	sig *sim.Signal

	// Shared-ring backing (server side, Config.SRQSlots > 0): the QP
	// drains the engine's SRQ and slot WRIDs index srqMR instead of a
	// private eager ring. Both nil on legacy connections.
	srq   *verbs.SRQ
	srqMR *verbs.MR

	eagerMR  *verbs.MR // receive ring (nil when the shared ring is used)
	slotSize int
	slots    int
	stageMR  *verbs.MR // outbound staging
	directMR *verbs.MR // inbound direct-write target

	// Server-side published regions (client reads them one-sided).
	rfpInMR  *verbs.MR
	rfpOutMR *verbs.MR
	kvMetaMR *verbs.MR
	kvPayMR  *verbs.MR

	// Peer rkeys.
	peerDirect verbs.RKey
	peerRfpIn  verbs.RKey
	peerRfpOut verbs.RKey
	peerKvMeta verbs.RKey
	peerKvPay  verbs.RKey

	shared *connShared

	// seq numbers this connection's calls. It is uint32 and wraps after
	// 2^32 calls; that is safe because a Conn carries one outstanding
	// call at a time, so at most one seq's control state (rndv maps,
	// shared-table keys, CTS flags, frag reassembly) is live when a new
	// seq is issued — an old entry can never alias a wrapped value.
	seq      uint32
	nextWRID uint64

	// Per-seq control state. Every normal completion path deletes its
	// entry (handleWriteImm, handleRecvSlot kFin, handleWC OpRead,
	// waitCTS); abnormal paths — a peer that vanished mid-rendezvous, a
	// Read-RNDV oneway whose FIN is never pumped — leave residue that
	// Close drains.
	rfpPending   bool                 // server: un-consumed RFP/HERD request in rfpInMR
	rndvIn       map[uint32]*verbs.MR // receiver: buffers awaiting WRITE_IMM or READ, by seq
	rndvOut      map[uint32]*verbs.MR // sender: exposed buffers awaiting FIN, by seq
	pendingReads map[uint64]hdr       // READ wrid → header context (Read-RNDV pull)

	// Orphaned rendezvous buffers from aborted (deadline-exceeded)
	// calls: a peer-side one-sided transfer may still target them, so
	// they cannot rejoin the pool until the late completion (WRITE_IMM,
	// READ, FIN) arrives — or Close drains them.
	orphanIn  map[uint32]*verbs.MR
	orphanOut map[uint32]*verbs.MR

	// Server-side idempotent dedup, keyed by virtual-connection session
	// id: for each sid (0 when virtualization is off) the seq of the
	// last executed request and its cached response. A retransmitted
	// request (same sid, same seq) resends the cached response without
	// re-running the handler. One entry per sid suffices because each
	// virtual connection carries one outstanding call; the table is
	// bounded (Config.DedupSessions) with deterministic insertion-order
	// eviction. Legacy traffic only ever populates sid 0, reproducing
	// the historical single-slot behaviour exactly.
	dedup      map[uint32]*dedupEntry
	dedupOrder []uint32 // sid insertion order, oldest first

	ctsReady  map[uint32]bool       // CTS seen for seq
	frags     map[uint32]*fragState // eager reassembly by seq
	respQueue []Arrival             // completed arrivals not yet consumed

	// Overload-protection state (nil when the knob is disabled).
	fc  *flowState // receiver-driven credit flow control
	brk *breaker   // client-side circuit breaker

	stats  ConnStats
	pinned int64 // registered bytes attributed to this conn
	closed bool

	busyLoaded bool
	numaBound  bool

	// Adaptive-poller state: the virtual time until which the current
	// wait may keep spinning before demoting to the event path.
	spinUntil sim.Time
	// Batched-poll scratch (Config.PollBudget > 1); nil keeps the legacy
	// one-completion-per-poll pumps.
	wcBuf []verbs.WC
}

// dedupEntry caches the outcome of the last request a virtual
// connection executed on this physical connection.
type dedupEntry struct {
	seq  uint32
	resp []byte
	arr  Arrival // response context, Payload stripped
}

// dedupLookup returns the cached entry for sid when it matches seq — a
// retransmission of the request just served on that virtual connection.
func (c *Conn) dedupLookup(sid, seq uint32) (*dedupEntry, bool) {
	e, ok := c.dedup[sid]
	if !ok || e.seq != seq {
		return nil, false
	}
	return e, true
}

// dedupRecord caches a served request's response for its sid,
// overwriting the sid's previous entry in place. A new sid beyond the
// table bound evicts the oldest-inserted sid — deterministic, and safe
// because an evicted virtual connection's retransmission merely
// re-executes (the pre-virtualization behaviour for every conn).
func (c *Conn) dedupRecord(a Arrival, resp []byte) {
	a.Payload = nil
	if e, ok := c.dedup[a.SID]; ok {
		e.seq, e.resp, e.arr = a.Seq, resp, a
		return
	}
	limit := c.eng.cfg.DedupSessions
	if limit <= 0 {
		limit = DefaultDedupSessions
	}
	if len(c.dedupOrder) >= limit {
		oldest := c.dedupOrder[0]
		c.dedupOrder = c.dedupOrder[1:]
		delete(c.dedup, oldest)
	}
	c.dedup[a.SID] = &dedupEntry{seq: a.Seq, resp: resp, arr: a}
	c.dedupOrder = append(c.dedupOrder, a.SID)
}

// Stats returns the connection's always-on counters.
func (c *Conn) Stats() ConnStats { return c.stats }

// ID returns the engine-local connection index (used as the trace tid).
func (c *Conn) ID() int { return c.id }

// PostedRecvs reports the RECVs currently posted to the connection's QP.
// At quiescence (no message in flight) every consumed slot has been
// reposted, so this equals the configured ring depth — the invariant the
// leak-assertion test helper checks.
func (c *Conn) PostedRecvs() int { return c.qp.RecvDepth() }

// UnpolledRecvs reports RECV completions delivered to the CQ but not yet
// polled by a pump loop (e.g. stale duplicate responses that arrived
// after their call completed). Their ring slots are consumed but will be
// reposted the next time the connection pumps, so leak accounting treats
// PostedRecvs + UnpolledRecvs as the ring's true depth.
func (c *Conn) UnpolledRecvs() int { return c.cq.QueuedRecvs() }

func (e *Engine) newConn(server bool, shared *connShared) *Conn {
	c := &Conn{
		eng:          e,
		server:       server,
		id:           e.nextConnID,
		cq:           e.dev.CreateCQ(),
		sig:          sim.NewSignal(e.env),
		slotSize:     e.cfg.EagerSlotSize + hdrSize,
		slots:        e.cfg.EagerSlots,
		shared:       shared,
		rndvIn:       make(map[uint32]*verbs.MR),
		rndvOut:      make(map[uint32]*verbs.MR),
		pendingReads: make(map[uint64]hdr),
		orphanIn:     make(map[uint32]*verbs.MR),
		orphanOut:    make(map[uint32]*verbs.MR),
		ctsReady:     make(map[uint32]bool),
		frags:        make(map[uint32]*fragState),
		dedup:        make(map[uint32]*dedupEntry),
		wcBuf:        wcBufFor(e.cfg),
	}
	e.nextConnID++
	if server && e.cfg.SRQSlots > 0 {
		c.srq = e.serverSRQ()
		c.srqMR = e.srqMR
		c.qp = e.dev.CreateQPSRQ(c.cq, c.cq, c.srq)
	} else {
		c.qp = e.dev.CreateQP(c.cq, c.cq)
	}
	c.cq.SetNotify(c.sig.Fire)
	if e.cfg.ModelRNR && c.srq == nil {
		// SRQ-backed QPs inherit the RNR discipline armed on the shared
		// ring itself (serverSRQ).
		retry := e.cfg.RnrRetry
		if retry <= 0 {
			retry = DefaultRnrRetry
		}
		c.qp.SetRNR(retry)
	}
	if e.cfg.FlowCredits > 0 {
		c.fc = newFlowState(e.cfg.FlowCredits, e.cfg.EagerSlots)
	}
	if !server && e.cfg.BreakerThreshold > 0 {
		c.brk = newBreaker(e.cfg.BreakerThreshold, e.cfg.BreakerCooldown)
	}
	if c.srq == nil {
		c.eagerMR = e.pd.RegisterMRNoCost(c.slots * c.slotSize)
	}
	// Staging holds [hdr|payload] plus a dedicated tail region for notify
	// headers so Direct-Write-Send chains never overlap the payload. With
	// doorbell batching every fragment of a chained eager train needs its
	// own staged header, so the region grows by one header per possible
	// fragment; without batching the sizing is exactly the legacy one.
	stageLen := e.cfg.MaxMsgSize + 2*hdrSize
	if e.cfg.DoorbellBatch {
		slotCap := c.slotSize - hdrSize
		maxFrags := (e.cfg.MaxMsgSize + slotCap - 1) / slotCap
		if maxFrags < 1 {
			maxFrags = 1
		}
		stageLen = e.cfg.MaxMsgSize + (maxFrags+1)*hdrSize
	}
	c.stageMR = e.pd.RegisterMRNoCost(stageLen)
	c.directMR = e.pd.RegisterMRNoCost(e.cfg.MaxMsgSize + hdrSize)
	if server && !e.cfg.NoFetchBufs {
		c.rfpInMR = e.pd.RegisterMRNoCost(e.cfg.MaxMsgSize + hdrSize)
		c.rfpOutMR = e.pd.RegisterMRNoCost(e.cfg.MaxMsgSize + hdrSize)
		c.kvMetaMR = e.pd.RegisterMRNoCost(32)
		c.kvPayMR = e.pd.RegisterMRNoCost(e.cfg.MaxMsgSize + hdrSize)
		c.rfpInMR.SetWriteNotify(func() {
			c.rfpPending = true
			c.sig.Fire()
		})
	}
	// Pin accounting from the actual MR lengths so Close can return the
	// exact amount.
	for _, mr := range []*verbs.MR{c.eagerMR, c.stageMR, c.directMR, c.rfpInMR, c.rfpOutMR, c.kvMetaMR, c.kvPayMR} {
		if mr != nil {
			c.pinned += int64(mr.Len())
		}
	}
	e.pinnedBytes += c.pinned
	e.conns = append(e.conns, c)
	if c.srq == nil {
		for i := 0; i < c.slots; i++ {
			c.qp.PostRecv(verbs.RecvWR{
				WRID: uint64(i),
				SGE:  verbs.SGE{MR: c.eagerMR, Off: i * c.slotSize, Len: c.slotSize},
			})
		}
	}
	return c
}

// serverSRQ lazily creates the engine's shared server receive ring: one
// SRQ whose Config.SRQSlots slots (sized like eager ring slots) are
// posted once and thereafter recycled by whichever connection consumes
// them. ModelRNR arms finite depth on the shared ring itself, so
// overcommit by per-connection credit grants surfaces as RNR NAKs.
func (e *Engine) serverSRQ() *verbs.SRQ {
	if e.srq != nil {
		return e.srq
	}
	slotSize := e.cfg.EagerSlotSize + hdrSize
	e.srq = e.dev.CreateSRQ()
	e.srqMR = e.pd.RegisterMRNoCost(e.cfg.SRQSlots * slotSize)
	e.pinnedBytes += int64(e.srqMR.Len())
	if e.cfg.ModelRNR {
		retry := e.cfg.RnrRetry
		if retry <= 0 {
			retry = DefaultRnrRetry
		}
		e.srq.SetRNR(retry)
	}
	for i := 0; i < e.cfg.SRQSlots; i++ {
		e.srq.PostRecv(verbs.RecvWR{
			WRID: uint64(i),
			SGE:  verbs.SGE{MR: e.srqMR, Off: i * slotSize, Len: slotSize},
		})
	}
	return e.srq
}

// SRQDepth returns the posted-but-unconsumed slots in the shared server
// receive ring, or -1 when no shared ring exists. Leak accounting over
// SRQ-backed connections sums this with every accepted connection's
// UnpolledRecvs and compares against Config.SRQSlots.
func (e *Engine) SRQDepth() int {
	if e.srq == nil {
		return -1
	}
	return e.srq.Depth()
}

// sortedSeqs returns m's keys ascending, so map drains never depend on
// Go's randomized iteration order (the simulation must stay
// deterministic even during teardown).
func sortedSeqs(m map[uint32]*verbs.MR) []uint32 {
	ks := make([]uint32, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// Close releases the connection's pinned resources: the eager ring,
// staging and direct buffers, the server-side published regions, and any
// rendezvous pool buffers still held by in-flight transfers (returned to
// the engine pool, which unpins overflow beyond the cap). Shared-table
// entries for those transfers are dropped. Close is idempotent; the
// pool's own free buffers are unpinned by Engine.Close.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, seq := range sortedSeqs(c.rndvIn) {
		c.eng.releaseRndv(c.rndvIn[seq])
		delete(c.shared.rndv, rndvKey(seq, !c.server))
	}
	for _, seq := range sortedSeqs(c.rndvOut) {
		c.eng.releaseRndv(c.rndvOut[seq])
		delete(c.shared.rndv, rndvKey(seq, c.server))
	}
	for _, seq := range sortedSeqs(c.orphanIn) {
		c.eng.releaseRndv(c.orphanIn[seq])
	}
	for _, seq := range sortedSeqs(c.orphanOut) {
		c.eng.releaseRndv(c.orphanOut[seq])
		delete(c.shared.rndv, rndvKey(seq, c.server))
	}
	c.rndvIn, c.rndvOut = nil, nil
	c.orphanIn, c.orphanOut = nil, nil
	c.pendingReads, c.ctsReady, c.frags = nil, nil, nil
	c.respQueue = nil
	c.dedup, c.dedupOrder = nil, nil
	c.exitWait()
	c.eng.pinnedBytes -= c.pinned
	c.pinned = 0
	c.eagerMR, c.stageMR, c.directMR = nil, nil, nil
	c.rfpInMR, c.rfpOutMR, c.kvMetaMR, c.kvPayMR = nil, nil, nil, nil
}

// Close tears down the engine: every connection it created is closed and
// the rendezvous pool is drained, unpinning all registered buffers.
// After Close, PinnedBytes reports zero — the pre-connection baseline —
// which the obs pinned-bytes gauge makes visible to teardown tests.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, c := range e.conns {
		c.Close()
	}
	e.conns = nil
	classes := make([]int, 0, len(e.rndvFree))
	for cls := range e.rndvFree {
		classes = append(classes, cls)
	}
	sort.Ints(classes)
	for _, cls := range classes {
		e.pinnedBytes -= int64(cls) * int64(len(e.rndvFree[cls]))
	}
	e.rndvFree = make(map[int][]*verbs.MR)
	if e.srqMR != nil {
		e.pinnedBytes -= int64(e.srqMR.Len())
		e.srqMR, e.srq = nil, nil
	}
}

func (c *Conn) helloFor() *hello {
	h := &hello{qp: c.qp, direct: c.directMR.RKey(), shared: c.shared}
	if c.server {
		h.rfpIn = c.rfpInMR.RKey()
		h.rfpOut = c.rfpOutMR.RKey()
		h.kvMeta = c.kvMetaMR.RKey()
		h.kvPay = c.kvPayMR.RKey()
	}
	return h
}

func (c *Conn) applyHello(h *hello) {
	// A handshake always runs on a freshly created QP, so re-target
	// refusal here means engine wiring is broken, not a runtime fault.
	if err := c.qp.Connect(h.qp); err != nil {
		panic("engine: handshake on a connected QP: " + err.Error())
	}
	c.peerDirect = h.direct
	c.peerRfpIn = h.rfpIn
	c.peerRfpOut = h.rfpOut
	c.peerKvMeta = h.kvMeta
	c.peerKvPay = h.kvPay
	c.shared = h.shared
}

// SetNUMABound marks the connection's processing as NUMA-local (§3.3,
// §5.5): CPU work on this connection is not penalized for remote-socket
// access.
func (c *Conn) SetNUMABound(b bool) { c.numaBound = b }

func (c *Conn) wrid() uint64 {
	c.nextWRID++
	return c.nextWRID
}

// memcpyCharge charges CPU copy time, scaled by NUMA placement.
func (c *Conn) memcpyCharge(p *sim.Proc, n int) {
	if n <= 0 {
		return
	}
	w := sim.Duration(c.eng.dev.CostModel().MemcpyTime(n))
	c.eng.node.CPU.Compute(p, c.eng.node.NUMAWork(w, c.numaBound))
}

// ---------------------------------------------------------------------------
// Dialing and accepting

// Listener accepts engine connections for a named service.
type Listener struct {
	eng *Engine
	l   *simnet.Listener
}

// Listen registers a service port on the engine's node.
func (e *Engine) Listen(port string) *Listener {
	return &Listener{eng: e, l: e.node.Listen(port)}
}

// Accept blocks until a client dials, completing the QP/buffer handshake
// and returning the server-side connection.
func (ln *Listener) Accept(p *sim.Proc) *Conn {
	ep := ln.l.Accept(p)
	ch := ep.Recv(p).(*hello)
	c := ln.eng.newConn(true, ch.shared)
	c.applyHello(ch)
	ep.Send(p, c.helloFor(), 256)
	return c
}

// Dial connects to a service port on a remote node, performing the
// out-of-band handshake (QP numbers, rkeys) and returning the client-side
// connection.
func (e *Engine) Dial(p *sim.Proc, target *simnet.Node, port string) *Conn {
	ep := e.node.Connect(p, target, port)
	c := e.newConn(false, &connShared{rndv: make(map[uint64]verbs.RKey)})
	ep.Send(p, c.helloFor(), 256)
	sh := ep.Recv(p).(*hello)
	c.applyHello(sh)
	return c
}

// TryDial is Dial with a bounded handshake: connecting to a down (or
// just-rebooting) node fails with a wrapped ErrPeerDown instead of
// blocking forever. until bounds the whole handshake in virtual time.
// A fresh dial registers fresh MRs and exchanges fresh rkeys, so
// re-dialing after a peer crash naturally re-registers everything the
// old epoch invalidated. The half-built connection is closed on
// failure so nothing leaks.
func (e *Engine) TryDial(p *sim.Proc, target *simnet.Node, port string, until sim.Time) (*Conn, error) {
	ep, err := e.node.TryConnect(p, target, port)
	if err != nil {
		return nil, fmt.Errorf("engine: dial node %d: %v: %w", target.ID(), err, ErrPeerDown)
	}
	c := e.newConn(false, &connShared{rndv: make(map[uint64]verbs.RKey)})
	ep.Send(p, c.helloFor(), 256)
	raw, ok := ep.RecvUntil(p, until)
	if !ok {
		// The server crashed (or the hello was addressed to a previous
		// boot) before answering.
		c.Close()
		return nil, fmt.Errorf("engine: dial node %d: handshake timeout: %w", target.ID(), ErrPeerDown)
	}
	c.applyHello(raw.(*hello))
	return c, nil
}

// ---------------------------------------------------------------------------
// Event pump

// chargeDetect applies the completion-detection cost for the polling
// discipline. Adaptive waits still inside their spin window pay the
// busy-poll detection cost; past the window (demoted to the event path)
// they pay the interrupt wake.
func (c *Conn) chargeDetect(p *sim.Proc, poll PollMode) {
	cm := c.eng.dev.CostModel()
	cpu := c.eng.node.CPU
	busy := poll == PollBusyMode || (poll == PollAdaptiveMode && p.Now() < c.spinUntil)
	if busy {
		p.Sleep(sim.Duration(cm.BusyDetectNs(cpu.LoadFactor())))
	} else {
		p.Sleep(sim.Duration(float64(cm.InterruptWakeNs) * cpu.LoadFactor()))
	}
}

// enterWait registers the busy-poll CPU load for the duration of a wait.
// An adaptive wait spins like a busy poller for its spin window — the
// load is registered and a demotion wake is armed at the window's end so
// pumpWait can observe the expiry even with no completion traffic.
func (c *Conn) enterWait(poll PollMode) {
	switch poll {
	case PollBusyMode:
		if !c.busyLoaded {
			c.eng.node.CPU.AddLoad(1)
			c.busyLoaded = true
		}
	case PollAdaptiveMode:
		c.spinUntil = c.eng.env.Now() + sim.Time(c.spinWindow())
		if !c.busyLoaded {
			c.eng.node.CPU.AddLoad(1)
			c.busyLoaded = true
		}
		c.eng.env.At(c.spinUntil, c.sig.Fire)
	}
}

func (c *Conn) exitWait() {
	if c.busyLoaded {
		c.eng.node.CPU.RemoveLoad(1)
		c.busyLoaded = false
	}
}

// NextArrival blocks until a request (server) or response (client)
// arrives, processing protocol-internal control traffic (RTS/CTS/FIN)
// along the way.
func (c *Conn) NextArrival(p *sim.Proc, busy bool) Arrival {
	return c.nextArrival(p, boolMode(busy))
}

func (c *Conn) nextArrival(p *sim.Proc, poll PollMode) Arrival {
	c.enterWait(poll)
	defer c.exitWait()
	for {
		if n := len(c.respQueue); n > 0 {
			a := c.respQueue[0]
			c.respQueue = c.respQueue[1:]
			c.stats.BytesRecvd += int64(len(a.Payload))
			return a
		}
		if len(c.wcBuf) > 0 {
			// Batched drain: handle up to the poll budget in one pass,
			// return the first finished arrival and queue the rest. One
			// detection charge covers the whole batch.
			if n := c.cq.PollN(c.wcBuf); n > 0 {
				var first Arrival
				have := false
				for i := 0; i < n; i++ {
					if a, done := c.handleWC(p, c.wcBuf[i]); done {
						if !have {
							first, have = a, true
						} else {
							c.respQueue = append(c.respQueue, a)
						}
					}
				}
				if have {
					c.chargeDetect(p, poll)
					c.stats.BytesRecvd += int64(len(first.Payload))
					return first
				}
				continue
			}
		} else if wc, ok := c.cq.TryPoll(); ok {
			if a, done := c.handleWC(p, wc); done {
				c.chargeDetect(p, poll)
				c.stats.BytesRecvd += int64(len(a.Payload))
				return a
			}
			continue
		}
		if c.rfpPending {
			c.rfpPending = false
			h := getHdr(c.rfpInMR.Buf)
			c.noteCredits(h)
			payload := c.copyPayload(c.rfpInMR.Buf[hdrSize : hdrSize+int(h.length)])
			c.chargeDetect(p, poll)
			c.stats.BytesRecvd += int64(len(payload))
			return Arrival{Kind: h.kind, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq, SID: h.sid, Payload: payload}
		}
		c.pumpWait(p, poll)
	}
}

// waitCTSUntil pumps until the CTS for seq arrives, queueing any
// unrelated arrivals. A non-zero until bounds the wait (virtual time);
// it returns false on timeout with the seq's CTS flag left unset so a
// late CTS can still be consumed by a retry.
func (c *Conn) waitCTSUntil(p *sim.Proc, seq uint32, poll PollMode, until sim.Time) bool {
	c.enterWait(poll)
	defer c.exitWait()
	if until > 0 {
		c.armWake(until)
	}
	for !c.ctsReady[seq] {
		if until > 0 && p.Now() >= until {
			return false
		}
		if c.pumpCompletions(p) > 0 {
			continue
		}
		c.pumpWait(p, poll)
	}
	delete(c.ctsReady, seq)
	c.chargeDetect(p, poll)
	return true
}

// waitRead pumps until the READ with the given wrid completes, returning
// whether it succeeded. (A READ always completes: success, retry
// exhaustion after a drop, or a flush on an errored QP — so this wait
// needs no deadline of its own.) The wait inspects completions one at a
// time even under a poll budget: it returns on its own READ, so batching
// ahead of it would only reorder the charge.
func (c *Conn) waitRead(p *sim.Proc, wrid uint64, poll PollMode) bool {
	c.enterWait(poll)
	defer c.exitWait()
	for {
		if wc, ok := c.cq.TryPoll(); ok {
			if wc.Op == verbs.OpRead && wc.WRID == wrid {
				c.chargeDetect(p, poll)
				return wc.Status == verbs.WCSuccess
			}
			if a, done := c.handleWC(p, wc); done {
				c.respQueue = append(c.respQueue, a)
			}
			continue
		}
		c.pumpWait(p, poll)
	}
}

// handleWC interprets one completion. It returns (arrival, true) when the
// completion finishes an application-level message.
func (c *Conn) handleWC(p *sim.Proc, wc verbs.WC) (Arrival, bool) {
	if wc.Status != verbs.WCSuccess {
		if wc.Status == verbs.WCRNRRetryExceeded {
			// The peer's RECV ring stayed exhausted through the whole RNR
			// retry budget. A credit-respecting sender never sees this.
			c.eng.rnrFailures++
			if m := c.eng.em; m != nil {
				m.rnrNaks.Inc()
			}
			c.eng.trc.Instant("engine", "rnr_retry_exceeded", c.eng.node.ID(), c.id,
				int64(p.Now()), obs.Arg{K: "wrid", V: wc.WRID})
		}
		// Failed work request (retry-exceeded or flushed on an errored
		// QP). If it was a Read-RNDV pull, reclaim its control state: no
		// data arrived, so the destination buffer can rejoin the pool.
		if wc.Op == verbs.OpRead {
			if rts, ok := c.pendingReads[wc.WRID]; ok {
				delete(c.pendingReads, wc.WRID)
				if buf, ok := c.rndvIn[rts.seq]; ok {
					delete(c.rndvIn, rts.seq)
					c.eng.releaseRndv(buf)
				} else {
					c.releaseOrphan(c.orphanIn, rts.seq)
				}
			}
		}
		return Arrival{}, false
	}
	switch wc.Op {
	case verbs.OpRecv:
		if wc.HasImm {
			return c.handleWriteImm(p, wc)
		}
		return c.handleRecvSlot(p, wc)
	case verbs.OpRead:
		if rts, ok := c.pendingReads[wc.WRID]; ok {
			delete(c.pendingReads, wc.WRID)
			buf, live := c.rndvIn[rts.seq]
			if !live {
				// The call was aborted while this pull was in flight; the
				// data arrived too late to matter. Release the orphaned
				// buffer and still FIN so the peer frees its exposed one.
				if obuf, ok := c.orphanIn[rts.seq]; ok {
					delete(c.orphanIn, rts.seq)
					c.eng.releaseRndv(obuf)
					c.postSmall(p, hdr{kind: kFin, proto: rts.proto, seq: rts.seq})
				}
				return Arrival{}, false
			}
			// Read-RNDV pull completed: the pulled buffer carries the
			// original [hdr|payload] (the RTS only announced it).
			delete(c.rndvIn, rts.seq)
			h := getHdr(buf.Buf)
			c.noteCredits(h)
			payload := c.copyPayload(buf.Buf[hdrSize : hdrSize+int(h.length)])
			c.eng.releaseRndv(buf)
			c.postSmall(p, hdr{kind: kFin, proto: h.proto, seq: h.seq})
			return Arrival{Kind: h.kind, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq, SID: h.sid, Payload: payload}, true
		}
		return Arrival{}, false
	default:
		// Send-side completions carry no application event.
		return Arrival{}, false
	}
}

// fragState accumulates a segmented eager message. seen dedups fragment
// offsets so a retransmitted fragment (same seq, same off) can neither
// double-count got nor mask a hole.
type fragState struct {
	h    hdr
	buf  []byte
	got  int
	seen map[uint32]bool
}

// ringSlot returns the receive-ring buffer for a slot WRID: a window of
// the engine's shared SRQ region when this connection drains the shared
// ring, the private eager ring otherwise.
func (c *Conn) ringSlot(slot int) []byte {
	base := slot * c.slotSize
	if c.srqMR != nil {
		return c.srqMR.Buf[base : base+c.slotSize]
	}
	return c.eagerMR.Buf[base : base+c.slotSize]
}

// repostSlot recycles a consumed ring slot: back to the shared SRQ for
// SRQ-backed connections, to the private QP ring otherwise.
func (c *Conn) repostSlot(p *sim.Proc, wrid uint64) {
	base := int(wrid) * c.slotSize
	if c.srq != nil {
		c.srq.PostRecv(verbs.RecvWR{
			WRID: wrid,
			SGE:  verbs.SGE{MR: c.srqMR, Off: base, Len: c.slotSize},
		})
	} else {
		c.qp.PostRecv(verbs.RecvWR{
			WRID: wrid,
			SGE:  verbs.SGE{MR: c.eagerMR, Off: base, Len: c.slotSize},
		})
	}
	c.noteRepost(p)
}

// handleRecvSlot processes a two-sided SEND landing in an eager ring slot.
func (c *Conn) handleRecvSlot(p *sim.Proc, wc verbs.WC) (Arrival, bool) {
	buf := c.ringSlot(int(wc.WRID))
	h := getHdr(buf)
	c.noteCredits(h)
	// Recycle the ring slot after extracting the fragment. This is the
	// ONLY repost for this slot regardless of what the message turns out
	// to be (data, control, duplicate, or a request later shed by
	// admission control) — the repost happens before the message is
	// interpreted, so shedding can neither skip nor double it.
	frag := c.copyPayload(buf[hdrSize:wc.ByteLen])
	c.repostSlot(p, wc.WRID)
	switch h.kind {
	case kReq, kResp:
		// Eager delivery: per-slot management cost plus the copy out of
		// the ring slot.
		cm := c.eng.dev.CostModel()
		c.eng.node.CPU.Compute(p, c.eng.node.NUMAWork(sim.Duration(cm.EagerSlotMgmtNs), c.numaBound))
		c.memcpyCharge(p, len(frag))
		if _, dup := c.dedupLookup(h.sid, h.seq); dup && h.kind == kReq {
			// Retransmission of the request this virtual connection just
			// had served (its response was lost). Drop any partial
			// re-assembly and surface one dup arrival (on the first
			// fragment only) so the dispatcher's dedup path resends the
			// cached response.
			delete(c.frags, h.seq)
			c.Recycle(frag)
			if h.off == 0 {
				return Arrival{Kind: kReq, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq, SID: h.sid}, true
			}
			return Arrival{}, false
		}
		if int(h.length) == len(frag) && h.off == 0 {
			return Arrival{Kind: h.kind, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq, SID: h.sid, Payload: frag}, true
		}
		// Segmented message: accumulate until complete.
		st, ok := c.frags[h.seq]
		if !ok {
			st = &fragState{h: h, buf: c.allocPayload(int(h.length)), seen: make(map[uint32]bool)}
			c.frags[h.seq] = st
		}
		if st.seen[h.off] {
			c.Recycle(frag)
			return Arrival{}, false // duplicate fragment from a retransmission
		}
		st.seen[h.off] = true
		copy(st.buf[h.off:], frag)
		st.got += len(frag)
		c.Recycle(frag)
		if st.got < int(h.length) {
			return Arrival{}, false
		}
		delete(c.frags, h.seq)
		return Arrival{Kind: h.kind, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq, SID: h.sid, Payload: st.buf}, true
	case kNotify:
		// Direct-Write-Send: payload already written into directMR.
		dh := getHdr(c.directMR.Buf)
		c.noteCredits(dh)
		payload := c.copyPayload(c.directMR.Buf[hdrSize : hdrSize+int(dh.length)])
		return Arrival{Kind: dh.kind, Proto: dh.proto, RespProto: dh.respProto, Fn: dh.fn, Seq: dh.seq, SID: dh.sid, Payload: payload}, true
	case kRTS:
		return c.handleRTS(p, h)
	case kCTS:
		c.ctsReady[h.seq] = true
		return Arrival{}, false
	case kCredit:
		// Async credit grant: the piggybacked total was consumed by
		// noteCredits above; nothing else to do.
		return Arrival{}, false
	case kErr, kDrain:
		// Typed rejection (header-only): surface it so the caller's
		// response wait maps it to ErrOverloaded / ErrDraining.
		return Arrival{Kind: h.kind, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq, SID: h.sid}, true
	case kFin:
		if buf, ok := c.rndvOut[h.seq]; ok {
			delete(c.rndvOut, h.seq)
			delete(c.shared.rndv, rndvKey(h.seq, c.server))
			c.eng.releaseRndv(buf)
		} else if buf, ok := c.orphanOut[h.seq]; ok {
			// FIN for a call aborted mid-rendezvous: the peer's pull
			// finally finished, so the orphaned exposure can be freed.
			delete(c.orphanOut, h.seq)
			delete(c.shared.rndv, rndvKey(h.seq, c.server))
			c.eng.releaseRndv(buf)
		}
		return Arrival{}, false
	}
	return Arrival{}, false
}

// handleRTS reacts to a rendezvous request-to-send. Retransmitted RTSes
// (the reliability layer resends with the same seq) are idempotent: an
// existing grant is re-announced rather than re-allocated, an in-flight
// pull is left alone, and an RTS for an already-served request surfaces
// a dup arrival so the dispatcher resends the cached response.
func (c *Conn) handleRTS(p *sim.Proc, h hdr) (Arrival, bool) {
	// A prior loss may have erred this QP (a dropped CTS or READ errors
	// its owner); cycle it back before posting the grant or the pull, or
	// every response below would flush and the handshake could never make
	// progress. No-op on a healthy QP.
	c.recoverQP(p)
	if _, dup := c.dedupLookup(h.sid, h.seq); dup && c.server {
		return Arrival{Kind: kReq, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq, SID: h.sid}, true
	}
	switch h.proto {
	case WriteRNDV, HybridEagerRNDV:
		if _, ok := c.rndvIn[h.seq]; ok {
			// Duplicate RTS: the CTS was lost. The buffer is already
			// granted — just re-announce it.
			c.postSmall(p, hdr{kind: kCTS, proto: h.proto, seq: h.seq})
			return Arrival{}, false
		}
		// Expose a pool buffer and grant. The entry is keyed by the
		// *sender's* side (our peer).
		buf := c.eng.acquireRndv(p, int(h.length)+hdrSize)
		c.rndvIn[h.seq] = buf
		c.shared.rndv[rndvKey(h.seq, !c.server)] = buf.RKey()
		c.postSmall(p, hdr{kind: kCTS, proto: h.proto, seq: h.seq})
		return Arrival{}, false
	case ReadRNDV:
		if _, ok := c.rndvIn[h.seq]; ok {
			return Arrival{}, false // duplicate RTS: the pull is in flight
		}
		// Pull the payload from the buffer exposed by the sender (peer).
		rk, ok := c.shared.rndv[rndvKey(h.seq, !c.server)]
		if !ok {
			// Stale RTS: the sender aborted and withdrew the exposure.
			return Arrival{}, false
		}
		buf := c.eng.acquireRndv(p, int(h.length)+hdrSize)
		c.rndvIn[h.seq] = buf
		id := c.wrid()
		c.pendingReads[id] = h
		c.qp.PostSend(p, &verbs.SendWR{
			WRID: id, Op: verbs.OpRead,
			SGE:    verbs.SGE{MR: buf, Off: 0, Len: int(h.length) + hdrSize},
			Remote: rk,
		})
		return Arrival{}, false
	}
	return Arrival{}, false
}

// handleWriteImm processes a WRITE_WITH_IMM completion: either a direct
// message in directMR or a rendezvous payload landing in a granted
// buffer.
func (c *Conn) handleWriteImm(p *sim.Proc, wc verbs.WC) (Arrival, bool) {
	// The consumed zero-length recv slot is recycled.
	c.repostSlot(p, wc.WRID)
	if wc.Imm == immDirect {
		h := getHdr(c.directMR.Buf)
		c.noteCredits(h)
		payload := c.copyPayload(c.directMR.Buf[hdrSize : hdrSize+int(h.length)])
		return Arrival{Kind: h.kind, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq, SID: h.sid, Payload: payload}, true
	}
	seq := wc.Imm
	buf, ok := c.rndvIn[seq]
	if !ok {
		// Late WRITE_IMM for an aborted call: free the orphaned grant.
		// (A duplicate for an already-completed seq lands here too — the
		// data went to a revoked buffer and was discarded by the NIC.)
		c.releaseOrphan(c.orphanIn, seq)
		return Arrival{}, false
	}
	delete(c.rndvIn, seq)
	h := getHdr(buf.Buf)
	c.noteCredits(h)
	payload := c.copyPayload(buf.Buf[hdrSize : hdrSize+int(h.length)])
	delete(c.shared.rndv, rndvKey(seq, !c.server))
	c.eng.releaseRndv(buf)
	return Arrival{Kind: h.kind, Proto: h.proto, RespProto: h.respProto, Fn: h.fn, Seq: h.seq, SID: h.sid, Payload: payload}, true
}

// postSmall sends a header-only control message through the eager ring.
// Control traffic spends a credit without blocking: it is issued from
// pump context where blocking would deadlock, and the per-connection
// reserve (see flowState) absorbs the overdraft.
func (c *Conn) postSmall(p *sim.Proc, h hdr) {
	c.spend()
	c.putHdrC(c.stageMR.Buf, h)
	c.qp.PostSend(p, &verbs.SendWR{
		WRID: c.wrid(), Op: verbs.OpSend,
		SGE:        verbs.SGE{MR: c.stageMR, Off: 0, Len: hdrSize},
		Inline:     true,
		Unsignaled: true,
	})
}
