package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"hatrpc/internal/engine"
	"hatrpc/internal/hatkv"
	"hatrpc/internal/lmdb"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
)

// Wire functions of the single-store target's minimal KV service. FnPut
// commits key→value and answers with the 8-byte commit transaction id —
// the handle the audit later correlates with crash rollbacks. FnGet
// answers with the value or nothing.
const (
	FnPut uint32 = 1
	FnGet uint32 = 2
)

// Port is the single-store target's engine port.
const Port = "hatkv-chaos"

// Config parameterizes one single-store soak. The zero value is filled
// with small defaults; Crash must be a valid simnet.CrashConfig for any
// crashing to happen.
type Config struct {
	Seed            int64
	Sync            lmdb.SyncMode
	Workers         int
	WritesPerWorker int
	// WritePaceNs idles each worker between writes so the workload spans
	// the crash schedule instead of racing ahead of it.
	WritePaceNs int64
	// KeepaliveNs enables session keepalive probing at this interval.
	KeepaliveNs int64
	Crash       simnet.CrashConfig
}

// StoreResult is the audited outcome of a single-store soak.
type StoreResult struct {
	Result

	Unexplained int // lost writes no crash accounts for — always a bug
	// BoundViolated: more acked writes were lost than committed
	// transactions were rolled back — always a bug.
	BoundViolated bool

	SessionConnects int64
	SessionReplays  int64
	SessionResets   int64

	StoreRecoveries int64
	StoreLostTxns   uint64
	FinalTxn        uint64
	FinalEntries    int64
}

// Soak runs one single-store soak to completion and audits it: the
// server node crashes and reboots on cfg.Crash while sessions reconnect
// and replay, and every lost acked write must be explained by a crash
// rollback.
func Soak(cfg Config) *StoreResult {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.WritesPerWorker <= 0 {
		cfg.WritesPerWorker = 50
	}
	t := &storeTarget{cfg: cfg, res: &StoreResult{}}
	err := run(plan{
		seed: cfg.Seed, servers: 1,
		workers: cfg.Workers, writes: cfg.WritesPerWorker, paceNs: cfg.WritePaceNs,
		crash: cfg.Crash, watchdogNs: 4 * cfg.Crash.HorizonNs,
	}, t, &t.res.Result)
	if err != nil {
		panic("chaos: " + err.Error()) // nil hints cannot fail
	}
	return t.res
}

// storeTarget is one hatkv server: each boot builds a fresh engine and
// server over the one durable store, and the crashed boot's engine dies
// with its device and processes.
type storeTarget struct {
	cfg      Config
	res      *StoreResult
	store    *hatkv.Store
	seenLost uint64 // store.LostTxns at the previous crash
	sessions []*engine.Session
}

func (t *storeTarget) boot(roster []*simnet.Node, i int) error {
	sn := roster[i]
	store, err := openStore(sn, t.cfg.Sync)
	if err != nil {
		return err
	}
	t.store = store
	serve := func() { engine.New(sn, engineConfig()).Serve(Port, t.handle) }
	serve()
	sn.SetRestart(func(*sim.Proc) { serve() })
	return nil
}

func (t *storeTarget) handle(p *sim.Proc, fn uint32, req []byte) []byte {
	switch fn {
	case FnPut:
		txn, err := t.store.PutTxn(p, string(req), req)
		if err != nil {
			return nil
		}
		var out [8]byte
		binary.BigEndian.PutUint64(out[:], txn)
		return out[:]
	case FnGet:
		v, err := t.store.Get(p, string(req))
		if err != nil {
			return nil
		}
		return v
	}
	return nil
}

func (t *storeTarget) crashed(c *Crash) {
	c.RolledBackTo = t.store.Env().TxnID()
	c.LostTxns = t.store.LostTxns - t.seenLost
	t.seenLost = t.store.LostTxns
}

func (t *storeTarget) dial(p *sim.Proc, eng *engine.Engine, roster []*simnet.Node) client {
	for {
		s, err := eng.NewSession(p, roster[0], Port, engine.SessionConfig{
			KeepaliveInterval: sim.Duration(t.cfg.KeepaliveNs),
		})
		if err == nil {
			t.sessions = append(t.sessions, s)
			return session{s}
		}
		p.Sleep(200_000) // server down at dial time; try again
	}
}

// ackSlackNs absorbs ack propagation when attributing a loss to a
// crash: the commit happens strictly before the ack arrives, so a crash
// landing in that sub-window has At slightly below AckAt.
const ackSlackNs = 100_000

// audit compares every acked write against the surviving store state.
func (t *storeTarget) audit() {
	res := t.res
	for _, s := range t.sessions {
		st := s.Stats()
		res.SessionConnects += st.Connects
		res.SessionReplays += st.Replays
		res.SessionResets += st.Resets
	}
	res.StoreRecoveries = t.store.Recoveries
	res.StoreLostTxns = t.store.LostTxns
	res.FinalTxn = t.store.Env().TxnID()
	res.FinalEntries = t.store.Env().Entries()
	r, err := t.store.Env().BeginRead()
	if err != nil {
		res.Unexplained = len(res.Writes)
		return
	}
	defer r.Abort()
	for i := range res.Writes {
		w := &res.Writes[i]
		if _, err := r.Get([]byte(w.Key)); err == nil {
			continue
		}
		w.Lost = true
		res.Lost++
		explained := false
		for _, c := range res.Crashes {
			if int64(c.At) >= int64(w.AckAt)-ackSlackNs && c.RolledBackTo < w.Txn {
				explained = true
				break
			}
		}
		if !explained {
			res.Unexplained++
		}
	}
	// Every lost acked write consumed one distinct rolled-back commit.
	res.BoundViolated = uint64(res.Lost) > res.StoreLostTxns
}

// errNotCommitted is a put the server answered without a commit id.
var errNotCommitted = errors.New("chaos: put not committed")

// session is a worker's client of the single-store target.
type session struct{ *engine.Session }

func (s session) call(p *sim.Proc, fn uint32, key string) ([]byte, error) {
	return s.Call(p, fn, []byte(key), engine.CallOpts{Proto: engine.EagerSendRecv, Idempotent: true})
}

func (s session) put(p *sim.Proc, key string) (uint64, error) {
	resp, err := s.call(p, FnPut, key)
	if err == nil && len(resp) != 8 {
		err = errNotCommitted
	}
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(resp), nil
}

// get treats an empty answer as not found: a crash may legally roll an
// acked key back, and the server answers a missing key with nothing.
func (s session) get(p *sim.Proc, key string) ([]byte, error) {
	v, err := s.call(p, FnGet, key)
	if err == nil && len(v) == 0 {
		err = lmdb.ErrNotFound
	}
	return v, err
}

// Report renders the audited outcome deterministically — two same-seed
// soaks must produce byte-identical reports.
func (r *StoreResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: acked=%d lost=%d unexplained=%d bound_violated=%v\n",
		r.Acked, r.Lost, r.Unexplained, r.BoundViolated)
	fmt.Fprintf(&b, "gets=%d mismatches=%d failed_calls=%d incomplete=%d\n",
		r.GetChecks, r.GetMismatches, r.FailedPuts, r.Incomplete)
	fmt.Fprintf(&b, "sessions: connects=%d replays=%d resets=%d\n",
		r.SessionConnects, r.SessionReplays, r.SessionResets)
	fmt.Fprintf(&b, "store: recoveries=%d lost_txns=%d final_txn=%d entries=%d\n",
		r.StoreRecoveries, r.StoreLostTxns, r.FinalTxn, r.FinalEntries)
	fmt.Fprintf(&b, "crashes: %d\n", len(r.Crashes))
	for _, c := range r.Crashes {
		fmt.Fprintf(&b, "  at=%d rolled_back_to=%d lost=%d\n", c.At, c.RolledBackTo, c.LostTxns)
	}
	r.writeDigest(&b, true)
	return b.String()
}
