package engine

import (
	"hatrpc/internal/sim"
	"hatrpc/internal/verbs"
)

// PollMode is the completion-detection discipline a wait loop uses. The
// zero value defers to the legacy Busy bool, so existing CallOpts/Server
// configurations behave exactly as before the adaptive poller existed.
type PollMode uint8

const (
	// PollFromBusy (the zero value) derives the mode from the legacy
	// Busy flag: busy → PollBusyMode, otherwise PollEventMode.
	PollFromBusy PollMode = iota
	// PollEventMode arms the CQ and sleeps until a completion interrupt.
	PollEventMode
	// PollBusyMode spins on the CQ for the whole wait.
	PollBusyMode
	// PollAdaptiveMode is the hybrid discipline (hint polling=adaptive):
	// spin for a bounded window after entering a wait — catching
	// back-to-back completions at busy-poll latency — then drop the CPU
	// load and fall back to the interrupt path.
	PollAdaptiveMode
)

func (m PollMode) String() string {
	switch m {
	case PollEventMode:
		return "event"
	case PollBusyMode:
		return "busy"
	case PollAdaptiveMode:
		return "adaptive"
	}
	return "from-busy"
}

// resolvePoll collapses the (PollMode, legacy Busy bool) pair into a
// concrete discipline.
func resolvePoll(mode PollMode, busy bool) PollMode {
	if mode != PollFromBusy {
		return mode
	}
	if busy {
		return PollBusyMode
	}
	return PollEventMode
}

// boolMode is resolvePoll for call sites that only carry the legacy flag.
func boolMode(busy bool) PollMode { return resolvePoll(PollFromBusy, busy) }

// adaptiveSpinNs is the adaptive poller's spin window: comfortably
// above BusyDetectNs at low load (so an imminent completion is caught
// spinning) and close to the InterruptWakeNs it avoids paying.
const adaptiveSpinNs = 5000

// spinWindow is the connection's adaptive spin budget per wait entry.
func (c *Conn) spinWindow() sim.Duration { return adaptiveSpinNs }

// pumpWait parks a pump loop until the connection signal fires. In
// adaptive mode a waiter whose spin window has expired first demotes
// itself to the event path (dropping the busy CPU load it registered on
// wait entry); busy and event modes park exactly as before.
func (c *Conn) pumpWait(p *sim.Proc, poll PollMode) {
	if poll == PollAdaptiveMode && c.busyLoaded && p.Now() >= c.spinUntil {
		c.exitWait()
	}
	c.sig.Wait(p)
}

// pumpCompletions drains immediately-available completions into the pump,
// queueing any finished arrivals on respQueue, and returns how many
// completions were consumed. With Config.PollBudget ≤ 1 (wcBuf nil) it is
// exactly the legacy one-completion TryPoll step; with a budget it drains
// up to budget completions per call so one wakeup (and one detection
// charge, paid by the caller) covers a whole burst.
func (c *Conn) pumpCompletions(p *sim.Proc) int {
	if len(c.wcBuf) == 0 {
		if wc, ok := c.cq.TryPoll(); ok {
			if a, done := c.handleWC(p, wc); done {
				c.respQueue = append(c.respQueue, a)
			}
			return 1
		}
		return 0
	}
	n := c.cq.PollN(c.wcBuf)
	for i := 0; i < n; i++ {
		if a, done := c.handleWC(p, c.wcBuf[i]); done {
			c.respQueue = append(c.respQueue, a)
		}
	}
	return n
}

// fetchSpinPaceMult paces one-sided result polls while spinning:
// 15×PollGranularityNs reproduces the 600 ns pace the fetch loops
// previously hardcoded.
const fetchSpinPaceMult = 15

// fetchPace derives the delay before the next one-sided result poll from
// the call's polling discipline and how long the fetch has already spun.
// Busy fetches keep the tight pace up to the RC retry timeout (a result
// that late means loss, not latency); adaptive fetches spin only for the
// connection's spin window; event fetches never spin — they pace at the
// interrupt-wake granularity from the first retry.
func (c *Conn) fetchPace(poll PollMode, spun sim.Duration) sim.Duration {
	cm := c.eng.dev.CostModel()
	spin := sim.Duration(fetchSpinPaceMult * cm.PollGranularityNs)
	slow := sim.Duration(cm.InterruptWakeNs)
	var budget sim.Duration
	switch poll {
	case PollBusyMode:
		budget = sim.Duration(cm.RetryTimeoutNs)
	case PollAdaptiveMode:
		budget = c.spinWindow()
	default:
		return slow
	}
	if spun < budget {
		return spin
	}
	return slow
}

// ---------------------------------------------------------------------------
// Payload arena (Config.ArenaPayloads)

// Size-classed free lists for delivered-payload buffers. Classes are
// powers of two; oversize payloads bypass the arena. The arena is pure
// memory reuse — no simulated cost attaches to it — so enabling it never
// changes virtual-time behaviour, only host allocation rates.
const (
	payloadMinClass = 64
	payloadMaxClass = 1 << 20
	payloadClassCap = 64 // free buffers retained per class
)

func payloadClass(n int) int {
	c := payloadMinClass
	for c < n {
		c <<= 1
	}
	return c
}

// payloadGet returns a length-n buffer, reusing a recycled one when the
// class has stock. Contents beyond what the caller writes are stale.
func (e *Engine) payloadGet(n int) []byte {
	if n <= 0 {
		return nil
	}
	if n > payloadMaxClass {
		return make([]byte, n)
	}
	cls := payloadClass(n)
	if free := e.payloadFree[cls]; len(free) > 0 {
		b := free[len(free)-1]
		free[len(free)-1] = nil
		e.payloadFree[cls] = free[:len(free)-1]
		return b[:n]
	}
	return make([]byte, n, cls)
}

// payloadPut recycles a buffer into its size class (dropping it when the
// class is full or the capacity fits no class).
func (e *Engine) payloadPut(b []byte) {
	if cap(b) < payloadMinClass || cap(b) > payloadMaxClass {
		return
	}
	cls := payloadMinClass
	for cls<<1 <= cap(b) {
		cls <<= 1
	}
	if len(e.payloadFree[cls]) >= payloadClassCap {
		return
	}
	e.payloadFree[cls] = append(e.payloadFree[cls], b[:cls])
}

// copyPayload copies delivered bytes out of a registered region into a
// caller-owned buffer — pooled when the arena is enabled, a fresh
// allocation otherwise (the legacy behaviour, byte-for-byte).
func (c *Conn) copyPayload(src []byte) []byte {
	if !c.eng.cfg.ArenaPayloads {
		return append([]byte(nil), src...)
	}
	if len(src) == 0 {
		return nil
	}
	b := c.eng.payloadGet(len(src))
	copy(b, src)
	return b
}

// allocPayload returns an uninitialized length-n payload buffer (pooled
// when the arena is enabled). Callers fully overwrite it before it can
// surface to the application.
func (c *Conn) allocPayload(n int) []byte {
	if c.eng.cfg.ArenaPayloads {
		return c.eng.payloadGet(n)
	}
	return make([]byte, n)
}

// Recycle returns a payload buffer previously delivered by this
// connection (a Call result or a handler's request) to the engine's
// arena. With Config.ArenaPayloads off it is a no-op, so callers can
// recycle unconditionally. After Recycle the buffer must not be touched:
// a later delivery may reuse it.
func (c *Conn) Recycle(b []byte) {
	if c.eng.cfg.ArenaPayloads {
		c.eng.payloadPut(b)
	}
}

// wcBufFor sizes a connection's batched-poll buffer from the config.
func wcBufFor(cfg Config) []verbs.WC {
	if cfg.PollBudget > 1 {
		return make([]verbs.WC, cfg.PollBudget)
	}
	return nil
}
