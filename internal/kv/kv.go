// Package kv is a sharded transactional key-value store — the storage layer
// of the stmkvd server. Transactions retry through loops built on the
// decomposed engine interface (engine.Txn/Handle) directly: walking a hash
// chain through the Record convenience layer would allocate a wrapper per
// node visited, and the serving hot path must stay allocation-free.
//
// Keys map to records in one of a fixed number of shards. Each shard owns a
// complete, independent transactional memory — its own engine, version
// space, id space, and statistics — rooted in an immutable directory record,
// so single-shard commands never touch shared state outside their shard.
// Sharding is therefore a real consistency boundary. Every transaction is
// one Store.Run call, and the keys it declares pick one of two flavours:
//
//   - Single-shard (one key, or keys that all co-locate): one transaction on
//     the key's shard engine, committing entirely locally. Reads need no
//     cross-shard coordination at all; writes additionally hold the shard's
//     cross-shard gate in shared mode (see below).
//
//   - Cross-shard (keys spanning shards, or none declared: the whole store):
//     one transaction per involved shard, driven through a
//     deterministic-order two-phase commit. The involved shards' gates are
//     acquired in ascending shard-id order (writers exclusively, readers
//     shared), the body runs against lazily-begun per-shard transactions,
//     every transaction is validated (prepare), and only then is each
//     committed in ascending order (publish).
//
// The gate discipline is what makes the publish phase infallible: a
// cross-shard writer's exclusive gates exclude both other cross-shard
// writers and all single-shard writers (which hold the gate shared), so
// after prepare validates every shard nothing can invalidate the
// transactions before they commit. Lock-free readers cannot invalidate a
// writer in any engine. The only commit-time interference left is the fault
// injector, whose commit-entry hooks fire before the engine takes any lock,
// so an injected abort or panic leaves the transaction intact and the
// publish loop simply re-issues the commit.
//
// Cross-shard readers hold the gates shared because a half-published
// cross-shard write is a real memory state — per-shard validation cannot
// detect it. With the gates held, per-shard read-only transactions that all
// validate after every read has completed observe a single consistent cut:
// at the earliest of their commit instants every shard's reads are
// simultaneously unchanged. Single-shard readers skip the gate entirely —
// each shard's publish is one atomic engine commit, so no single-shard
// snapshot can be torn.
//
// The layout per shard:
//
//	directory (immutable refs) → bucket header (1 ref) → slot vector
//	slot vector words: [count, capacity, hash_0 … hash_{capacity−1}]
//	slot vector refs:  [entry_0, entry_1, …]
//	entry (immutable byte record): [uvarint len(key)][key][value]
//
// The header points at nil while its bucket is empty. An entry holds a key
// and its value in one engine byte record (engine.Txn.AllocBytes), complete
// before the reference that publishes it is stored and never written again.
// A lookup compares hashes inside the vector and reads the matching entry
// with LoadBytes, which needs no open and adds no read-log entry (the
// paper's barrier elision on immutable data), so a GET opens the directory,
// the header and the vector: three opens whatever the bucket's load. The
// vector's validation covers the entry, since the entry is reached only
// through it. Updates allocate a fresh entry and swap one reference, and a
// reader that sees the vector mid-update still reads only complete entries,
// in any engine. The price is conflict granularity: every write update-opens
// its bucket's vector, so an overwrite conflicts with readers of every key
// in that bucket, not only with readers of its own key.
package kv

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"memtx"
	"memtx/internal/chaos"
	"memtx/internal/engine"
	"memtx/internal/obs"
	"memtx/internal/wal"
)

// Slot vector layout: slot i's hash is word vecHash0+i and its entry ref i.
const (
	vecCount = 0 // word: slots in use
	vecCap   = 1 // word: slots allocated, fixed when the vector is built
	vecHash0 = 2 // word: hash of slot 0
)

// Op identifies one primitive store operation in the per-type counters.
type Op int

const (
	OpGet Op = iota
	OpSet
	OpDelete
	OpCAS
	NumOps
)

// String returns the label used in metric export.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	case OpDelete:
		return "delete"
	case OpCAS:
		return "cas"
	}
	return "unknown"
}

// Config sizes a Store.
type Config struct {
	// Shards is the number of independent transactional memories (rounded up
	// to a power of two; default 16, max 65536).
	Shards int
	// Buckets is the number of hash buckets per shard (rounded up to a power
	// of two; default 1024, max 1<<24).
	Buckets int
	// Design selects the underlying STM engine (default the paper's
	// direct-update design, the only one stmkvd serves). The baseline
	// designs remain selectable so the store's tests can hold every engine
	// to the same contract.
	Design memtx.Design
	// CM is the retry pacing policy.
	//
	// Deprecated: ignored; fixed pacing is the only policy.
	CM memtx.CMPolicy
}

// shard is one independent transactional memory plus its cross-shard gate.
type shard struct {
	tm  *memtx.TM
	eng engine.Engine
	dir engine.Handle // directory record, immutable after New

	// xmu is the cross-shard commit gate. Single-shard writers hold it
	// shared for the duration of one commit attempt; cross-shard writers
	// hold it exclusively (acquired in ascending shard-id order) from before
	// their first read through the last publish; cross-shard readers hold it
	// shared for the same span. Single-shard readers never touch it.
	xmu sync.RWMutex

	// wmu serializes {engine commit; WAL append} for single-shard writers
	// when a WAL is attached, so the order of the shard's records in the log
	// matches the engine's commit order. Two single-shard writers both hold
	// xmu shared and could otherwise interleave their commits and appends in
	// opposite orders. Cross-shard writers skip it: their exclusive xmu
	// already excludes every single-shard committer. Untouched when the store
	// has no WAL.
	wmu sync.Mutex

	// lastLSN is the LSN of the newest log record with an op on this shard,
	// stored inside the critical section that appended it (under wmu, or the
	// exclusive gate for cross-shard commits). A checkpoint reading it under
	// gate+wmu knows whether the shard changed since its snapshot.
	lastLSN atomic.Uint64

	// Incremental-checkpoint dirty-key tracking (used only when the store
	// was opened with IncrementalSnapshots). dmu guards dirty/dirtyOver;
	// keys are marked inside the same critical section that reserves their
	// record's LSN (under wmu for single-shard commits, under the exclusive
	// gate for cross-shard ones), so a checkpoint that takes the dirty set
	// and reads AppendedLSN under gate+wmu cannot miss a key whose record
	// is ≤ the LSN it covers. dirtyOver marks an overflowed set: the next
	// checkpoint must fall back to a full scan.
	dmu       sync.Mutex
	dirty     map[string]struct{}
	dirtyOver bool
	snapSince int // checkpoints since the last full-scan snapshot

	// snapLSN is the LSN of the shard's newest snapshot known durable: the
	// one recovery loaded or the last one a checkpoint finished writing.
	// coveredLSN is the coverage the shard's last successful checkpoint
	// reported. Neither is read back from the snapshot directory: a failed
	// checkpoint can leave a newer snapshot renamed into place whose directory
	// fsync never landed. Guarded by cpmu.
	snapLSN    uint64
	coveredLSN uint64

	// cpmu serializes checkpoints of this shard: taking the dirty set and
	// bumping snapSince are single-owner operations.
	cpmu sync.Mutex
}

// Store is a sharded transactional map of byte-string keys to byte-string
// values. It is safe for concurrent use.
type Store struct {
	shards  []shard
	mask    uint64 // len(shards)-1; key hash low bits select the shard
	buckets int

	// counts holds the committed-op and cross-commit counters, striped by
	// the committing attempt's engine stripe (engine.Stripe.Index) so that
	// concurrent commits do not write one shared line; readers sum them.
	_      [cacheLine]byte // keeps stripe 0 off the line of the fields before it
	counts [engine.NumStripes]countStripe

	// Cross-shard path counters (see ObsMetrics).
	crossRetries    atomic.Uint64 // cross-shard attempts retried after conflict
	publishRedos    atomic.Uint64 // publish-phase commits re-issued after injected faults
	readerFallbacks atomic.Uint64 // Reader.RunOnce gate acquisitions abandoned

	// Durability (nil / zero unless the store was built with Open).
	wal      *wal.Manager
	walStop  chan struct{} // closes to stop the checkpointer
	walWG    sync.WaitGroup
	walIncr  bool // incremental snapshot checkpoints enabled
	walFullN int  // full-scan snapshot every Nth checkpoint

	// walDegraded latches read-only degraded mode once the WAL hits ENOSPC:
	// writes fail fast with ErrDiskFull at the pre-commit health gate, reads
	// keep serving. Cleared only by reopening the store with space available.
	walDegraded atomic.Bool
}

// New builds a store and one transactional memory per shard.
func New(cfg Config) *Store {
	shards := ceilPow2(cfg.Shards, 16, maxShards)
	buckets := ceilPow2(cfg.Buckets, 1024, maxBuckets)
	s := &Store{
		shards:  make([]shard, shards),
		mask:    uint64(shards - 1),
		buckets: buckets,
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.tm = memtx.New(memtx.WithDesign(cfg.Design))
		sh.eng = sh.tm.Engine()
		dir := sh.tm.NewRecord(0, buckets)
		err := sh.tm.Atomic(func(tx *memtx.Tx) error {
			dir.OpenForUpdate(tx)
			for b := 0; b < buckets; b++ {
				dir.SetRef(tx, b, tx.Alloc(0, 1))
			}
			return nil
		})
		if err != nil {
			panic(fmt.Sprintf("kv: shard %d init: %v", i, err))
		}
		sh.dir = dir.Handle()
	}
	return s
}

// Upper bounds on Config.Shards and Config.Buckets.
const (
	maxShards  = 1 << 16
	maxBuckets = 1 << 24
)

// ceilPow2 rounds n up to a power of two: def when n <= 0, hi (itself a power
// of two) when n > hi. Clamping first keeps the doubling below from
// overflowing.
func ceilPow2(n, def, hi int) int {
	if n <= 0 {
		return def
	}
	n = min(n, hi)
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// Buckets returns the per-shard bucket count.
func (s *Store) Buckets() int { return s.buckets }

// KeyShard returns the shard index key hashes to.
func (s *Store) KeyShard(key []byte) int { return int(hashKey(key) & s.mask) }

// ShardTM returns shard i's transactional memory, whose engine carries that
// shard's transaction-level Stats.
func (s *Store) ShardTM(i int) *memtx.TM { return s.shards[i].tm }

// ShardStats returns shard i's cumulative engine counters.
func (s *Store) ShardStats(i int) engine.Stats { return s.shards[i].eng.Stats() }

// Stats returns the engine counters aggregated across every shard. Shards
// are snapshotted one after another, so under concurrent load the aggregate
// is approximate; at quiescence Starts == Commits+Aborts holds exactly.
func (s *Store) Stats() engine.Stats {
	var agg engine.Stats
	for i := range s.shards {
		agg = agg.Add(s.shards[i].eng.Stats())
	}
	return agg
}

// countStripe is one cache-line-padded share of Store.counts. Its padding is
// at least one line, so no line holds counters of two stripes.
type countStripe struct {
	countStripeFields
	_ [cacheLine + (cacheLine-unsafe.Sizeof(countStripeFields{})%cacheLine)%cacheLine]byte
}

type countStripeFields struct {
	ops          [NumOps]atomic.Uint64 // committed primitive ops by type
	crossCommits atomic.Uint64         // committed cross-shard transactions
}

const cacheLine = 64

// stripeIndex is the index into Store.counts for an attempt that recorded
// into st, which is nil when it began no engine transaction.
func stripeIndex(st *engine.Stripe) int {
	if st == nil {
		return 0
	}
	return st.Index()
}

// OpCount returns the number of committed primitive operations of one type.
func (s *Store) OpCount(o Op) uint64 {
	var n uint64
	for i := range s.counts {
		n += s.counts[i].ops[o].Load()
	}
	return n
}

// CrossCommits returns the number of committed cross-shard transactions.
func (s *Store) CrossCommits() uint64 {
	var n uint64
	for i := range s.counts {
		n += s.counts[i].crossCommits.Load()
	}
	return n
}

// ObsMetrics exports the store's shape, its committed op counters, the
// cross-shard path counters, and per-shard transaction counters aggregated
// under a shard label plus store-wide totals.
func (s *Store) ObsMetrics() []obs.Metric {
	ms := []obs.Metric{
		{Name: "stmkv_shards", Help: "Configured shard count.", Kind: obs.Gauge, Value: uint64(len(s.shards))},
		{Name: "stmkv_buckets_per_shard", Help: "Configured hash buckets per shard.", Kind: obs.Gauge, Value: uint64(s.buckets)},
	}
	for o := Op(0); o < NumOps; o++ {
		ms = append(ms, obs.Metric{
			Name:   "stmkv_ops_total",
			Help:   "Committed primitive store operations, by type.",
			Kind:   obs.Counter,
			Labels: []obs.Label{{Key: "op", Value: o.String()}},
			Value:  s.OpCount(o),
		})
	}
	ms = append(ms,
		obs.Metric{Name: "stmkv_cross_commits_total", Help: "Committed cross-shard transactions.", Kind: obs.Counter, Value: s.CrossCommits()},
		obs.Metric{Name: "stmkv_cross_retries_total", Help: "Cross-shard transaction attempts retried after conflict.", Kind: obs.Counter, Value: s.crossRetries.Load()},
		obs.Metric{Name: "stmkv_cross_publish_redos_total", Help: "Publish-phase commits re-issued after injected faults.", Kind: obs.Counter, Value: s.publishRedos.Load()},
		obs.Metric{Name: "stmkv_reader_fallbacks_total", Help: "Batched snapshot attempts abandoned at the cross-shard gate.", Kind: obs.Counter, Value: s.readerFallbacks.Load()},
	)
	var agg engine.Stats
	for i := range s.shards {
		st := s.shards[i].eng.Stats()
		agg = agg.Add(st)
		shardLbl := []obs.Label{{Key: "shard", Value: fmt.Sprint(i)}}
		ms = append(ms,
			obs.Metric{Name: "stmkv_shard_tx_starts_total", Help: "Transaction attempts started, by shard.", Kind: obs.Counter, Labels: shardLbl, Value: st.Starts},
			obs.Metric{Name: "stmkv_shard_tx_commits_total", Help: "Transaction attempts committed, by shard.", Kind: obs.Counter, Labels: shardLbl, Value: st.Commits},
			obs.Metric{Name: "stmkv_shard_tx_aborts_total", Help: "Transaction attempts rolled back, by shard.", Kind: obs.Counter, Labels: shardLbl, Value: st.Aborts},
		)
		if s.wal != nil {
			ms = append(ms, obs.Metric{
				Name:   "stmkv_shard_lsn",
				Help:   "LSN of the newest WAL record with an op on the shard, by shard.",
				Kind:   obs.Gauge,
				Labels: shardLbl,
				Value:  s.shards[i].lastLSN.Load(),
			})
		}
	}
	ms = append(ms,
		obs.Metric{Name: "stmkv_tx_starts_total", Help: "Transaction attempts started, all shards.", Kind: obs.Counter, Value: agg.Starts},
		obs.Metric{Name: "stmkv_tx_commits_total", Help: "Transaction attempts committed, all shards.", Kind: obs.Counter, Value: agg.Commits},
		obs.Metric{Name: "stmkv_tx_aborts_total", Help: "Transaction attempts rolled back, all shards.", Kind: obs.Counter, Value: agg.Aborts},
	)
	ms = append(ms,
		obs.Metric{Name: "stmkv_cm_outcomes_total", Help: "Attempt outcomes observed by the retry driver, all shards.", Kind: obs.Counter, Value: agg.Outcomes},
		obs.Metric{Name: "stmkv_cm_waits_total", Help: "Backoff waits between transaction attempts, all shards.", Kind: obs.Counter, Value: agg.BackoffSpins + agg.BackoffSleeps},
		obs.Metric{Name: "stmkv_cm_spins_total", Help: "Backoff waits satisfied by yielding, all shards.", Kind: obs.Counter, Value: agg.BackoffSpins},
		obs.Metric{Name: "stmkv_cm_sleeps_total", Help: "Backoff waits that slept, all shards.", Kind: obs.Counter, Value: agg.BackoffSleeps},
		obs.Metric{Name: "stmkv_cm_sleep_ns_total", Help: "Total backoff sleep time, ns, all shards.", Kind: obs.Counter, Value: agg.BackoffSleepNanos},
	)
	if s.wal != nil {
		degraded := uint64(0)
		if s.walDegraded.Load() {
			degraded = 1
		}
		ms = append(ms, obs.Metric{
			Name:  "stmkvd_degraded_mode",
			Help:  "1 while the store is read-only because the WAL hit ENOSPC.",
			Kind:  obs.Gauge,
			Value: degraded,
		})
	}
	return ms
}

// Tx is one key-value transaction attempt. It is only valid inside the Run
// or Reader body that received it.
//
// A Tx runs in one of two modes. In single-shard mode (sid >= 0) every key
// must hash to the pinned shard; a key outside it panics, because the core
// engines cannot themselves detect a handle from a foreign engine. In
// multi-shard mode, per-shard transactions begin lazily on first touch,
// restricted to the declared shard set (allowed; nil means every shard).
type Tx struct {
	s        *Store
	readonly bool

	sid int        // pinned shard in single-shard mode; -1 in multi-shard mode
	raw engine.Txn // single-shard transaction (sid >= 0)

	txns    []engine.Txn // multi-shard: lazily-begun per-shard transactions
	allowed []bool       // multi-shard: declared shard set; nil = all shards

	ctx      context.Context // non-nil on bounded paths: bound into each begun txn
	deadline time.Time

	committed []int          // publish-order scratch: shards committed this attempt
	stripe    *engine.Stripe // multi-shard: stripe of the attempt's first begun txn
	counts    [NumOps]uint32

	// allocEntry's scratch: the key-length prefix and the record's parts.
	klen  [binary.MaxVarintLen64]byte
	parts [3][]byte

	// WAL state (populated only when the store has a log attached).
	effs   []walEff // captured write effects, in execution order
	encOps []wal.Op // encode scratch, reused across appends
	lsn    uint64   // the commit's record, to make durable before ack; 0 = none
}

// txnFor returns the transaction for shard sid, beginning it lazily in
// multi-shard mode. It enforces the transaction's shard boundary.
func (t *Tx) txnFor(sid int) engine.Txn {
	if t.sid >= 0 {
		if sid != t.sid {
			panic(fmt.Sprintf("kv: key hashes to shard %d outside this single-shard transaction (shard %d)", sid, t.sid))
		}
		return t.raw
	}
	if tx := t.txns[sid]; tx != nil {
		return tx
	}
	if t.allowed != nil && !t.allowed[sid] {
		panic(fmt.Sprintf("kv: key hashes to shard %d outside this transaction's declared shard set", sid))
	}
	eng := t.s.shards[sid].eng
	tx := engine.BeginAttempt(t.ctx, t.deadline, eng, t.readonly)
	t.txns[sid] = tx
	if t.stripe == nil {
		t.stripe = engine.StripeOf(tx)
	}
	return tx
}

// abortFrom rolls back and releases every live transaction for shards >=
// from, attributing cause. Used both for whole-attempt aborts (from == 0)
// and to release the unpublished tail after a genuine first-commit conflict.
func (t *Tx) abortFrom(from int, cause engine.AbortCause) {
	for sid := from; sid < len(t.txns); sid++ {
		if tx := t.txns[sid]; tx != nil {
			tx.SetAbortCause(cause)
			tx.Abort()
			t.txns[sid] = nil
		}
	}
}

// resetAttempt prepares the Tx for one multi-shard attempt.
func (t *Tx) resetAttempt() {
	t.counts = [NumOps]uint32{}
	t.committed = t.committed[:0]
	t.stripe = nil
	t.effs = t.effs[:0]
}

// doomed reports whether any live transaction's reads no longer validate —
// the body's error may have been computed from an inconsistent snapshot.
func (t *Tx) doomed() bool {
	if t.sid >= 0 {
		return t.raw.Validate() != nil
	}
	for _, tx := range t.txns {
		if tx != nil && tx.Validate() != nil {
			return true
		}
	}
	return false
}

// errInjected distinguishes a commit attempt unwound by the fault injector
// (transaction still intact, commit re-issuable) from a genuine conflict.
var errInjected = errors.New("kv: commit unwound by injected fault")

// commitOnce issues one Commit call, translating an injected abort or panic
// — which every engine raises at commit entry, before taking any lock —
// into errInjected with the transaction left intact.
func commitOnce(tx engine.Txn) (err error) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case *engine.Retry, *chaos.InjectedPanic:
				err = errInjected
				return
			}
			panic(r)
		}
	}()
	return tx.Commit()
}

// publishLimit bounds commit re-issues under injected faults. The injector
// decides per Step, so with any abort probability below 1 the retry
// succeeds quickly; the bound is a backstop against an always-abort
// configuration livelocking the publish phase.
const publishLimit = 1 << 16

// commitPublish commits one shard transaction during the publish phase,
// re-issuing the commit when the fault injector unwinds it.
func (t *Tx) commitPublish(tx engine.Txn) error {
	for redo := 0; ; redo++ {
		err := commitOnce(tx)
		if err != errInjected {
			return err
		}
		if redo >= publishLimit {
			panic("kv: injected faults starved a cross-shard publish; raise the injector's pass probability")
		}
		t.s.publishRedos.Add(1)
	}
}

// crossAttempt runs one multi-shard attempt: body, prepare (validate all),
// publish (commit all, ascending). Gate locks are held by the caller.
func (t *Tx) crossAttempt(body func(*Tx) error) (err error, conflicted bool) {
	t.resetAttempt()
	finished := false
	defer func() {
		if finished {
			return
		}
		r := recover()
		if r == nil {
			return
		}
		if rt, ok := r.(*engine.Retry); ok {
			t.abortFrom(0, rt.Cause)
			err, conflicted = nil, true
			return
		}
		t.abortFrom(0, engine.CauseExplicit)
		panic(r)
	}()

	if err := body(t); err != nil {
		if t.doomed() {
			t.abortFrom(0, engine.CauseDoomed)
			finished = true
			return nil, true
		}
		t.abortFrom(0, engine.CauseExplicit)
		finished = true
		return err, false
	}

	// Prepare: every shard's reads must still validate. The exclusive gates
	// make this decisive for writers — nothing that could invalidate a
	// validated shard can run before publish. Read-only attempts skip it:
	// their commits below only validate, so prepare would double the work.
	if !t.readonly {
		for sid := 0; sid < len(t.txns); sid++ {
			if tx := t.txns[sid]; tx != nil && tx.Validate() != nil {
				t.abortFrom(0, engine.CauseValidation)
				finished = true
				return nil, true
			}
		}
	}

	// Health gate before any engine commit publishes: if the WAL can no
	// longer log the write-set, reject the transaction while every shard txn
	// is still open — nothing diverges, and the caller gets the same typed
	// refusal single-shard writers get.
	if !t.readonly && len(t.effs) > 0 {
		if herr := t.s.walHealthErr(); herr != nil {
			t.abortFrom(0, engine.CauseExplicit)
			finished = true
			return herr, false
		}
	}

	// Publish: commit in ascending shard order. An injected fault unwinds a
	// commit before the engine does any work, so commitPublish re-issues it.
	// A read-only commit can genuinely fail validation at any point (the
	// shared gates do not exclude single-shard writers) — nothing has been
	// published, so the whole attempt just retries. A writer's commit can
	// genuinely fail only before anything published; a conflict after the
	// first publish would tear the transaction and is treated as a protocol
	// violation, which the exclusive gates make unreachable.
	for sid := 0; sid < len(t.txns); sid++ {
		tx := t.txns[sid]
		if tx == nil {
			continue
		}
		if err := t.commitPublish(tx); err != nil {
			t.txns[sid] = nil // Commit rolled this one back
			if t.readonly || len(t.committed) == 0 {
				t.abortFrom(sid+1, engine.CauseValidation)
				finished = true
				return nil, true
			}
			panic(fmt.Sprintf("kv: shard %d commit failed after %d shard(s) published — cross-shard atomicity violated: %v", sid, len(t.committed), err))
		}
		t.committed = append(t.committed, sid)
		t.txns[sid] = nil
	}
	// Log the committed write-set while the exclusive gates are still held:
	// they serialize the append against single-shard committers, so each
	// participant's records stay in its engine's commit order. The append
	// only buffers; the caller syncs after the gates are released.
	if t.s.wal != nil && !t.readonly && len(t.effs) > 0 {
		if werr := t.walAppendCross(); werr != nil {
			finished = true
			return werr, false
		}
	}
	finished = true
	return nil, false
}

// lockShards acquires the gates for the declared shard set in ascending
// shard-id order; unlockShards releases them. Ascending acquisition across
// every path (and every lock kind) makes the gate graph cycle-free, so
// reversed-key cross-shard transactions cannot deadlock.
func (s *Store) lockShards(allowed []bool, exclusive bool) {
	for i := range s.shards {
		if allowed != nil && !allowed[i] {
			continue
		}
		if exclusive {
			s.shards[i].xmu.Lock()
		} else {
			s.shards[i].xmu.RLock()
		}
	}
}

func (s *Store) unlockShards(allowed []bool, exclusive bool) {
	for i := range s.shards {
		if allowed != nil && !allowed[i] {
			continue
		}
		if exclusive {
			s.shards[i].xmu.Unlock()
		} else {
			s.shards[i].xmu.RUnlock()
		}
	}
}

// runSingle executes body against one shard through engine.Drive. Writers
// hold the shard's gate shared across each attempt so a cross-shard writer's
// exclusive gate can fence them out of its prepare→publish window; readers
// run gate-free. The gate is released under defer, so a panic escaping the
// attempt (the fault injector's ActPanic) cannot leak it. A non-nil sb
// absorbs the commit's durability wait (the caller syncs later, before
// acknowledging) instead of blocking here.
func (s *Store) runSingle(ctx context.Context, opts engine.RunOptions, sid int, readonly bool, sb *SyncBatch, body func(*Tx) error) error {
	sh := &s.shards[sid]
	t := Tx{s: s, sid: sid, readonly: readonly}
	wrap := func(engine.Txn) error { return body(&t) }

	durable := s.wal != nil && !readonly
	var commit func(engine.Txn) error
	var ws *walScratch
	if durable {
		commit = func(tx engine.Txn) error { return s.durableCommitSingle(sid, &t, tx) }
		ws = t.borrowWALScratch()
	}
	st, err := engine.Drive(ctx, opts, func(ctx context.Context, deadline time.Time) (*engine.Stripe, error, bool) {
		if !readonly {
			sh.xmu.RLock()
			defer sh.xmu.RUnlock()
		}
		t.raw = engine.BeginAttempt(ctx, deadline, sh.eng, readonly)
		t.counts = [NumOps]uint32{}
		t.effs = t.effs[:0]
		st := engine.StripeOf(t.raw)
		err, conflicted := engine.AttemptWith(t.raw, wrap, commit)
		return st, err, conflicted
	})
	if err == nil {
		s.fold(&t, st)
	}
	if durable {
		err = s.walSettle(&t, ws, sb, err)
	}
	return err
}

// walSettle is the durable runners' epilogue. It runs after the gates are
// released, so parked commits never hold up other transactions: the write is
// acknowledged only once its log record (and its whole group) is durable,
// unless a SyncBatch defers that wait to the caller's acknowledgment boundary.
func (s *Store) walSettle(t *Tx, ws *walScratch, sb *SyncBatch, err error) error {
	if sb != nil {
		sb.note(t)
	} else if serr := s.awaitDurable(t.lsn); err == nil {
		err = serr
	}
	ws.release(t)
	return err
}

// runCross executes body across the declared shard set (nil = every shard)
// through the two-phase gate protocol, one engine.Drive attempt per gate
// hold; sb is as in runSingle.
func (s *Store) runCross(ctx context.Context, opts engine.RunOptions, allowed []bool, readonly bool, sb *SyncBatch, body func(*Tx) error) error {
	t := Tx{
		s:        s,
		sid:      -1,
		readonly: readonly,
		txns:     make([]engine.Txn, len(s.shards)),
		allowed:  allowed,
	}
	exclusive := !readonly
	durable := s.wal != nil && !readonly
	var ws *walScratch
	if durable {
		ws = t.borrowWALScratch()
	}
	// A cross-shard transaction's attempt outcomes and backoff waits are
	// counted once, on the stripe of the attempt's first begun transaction;
	// an attempt that began none counts nothing.
	st, err := engine.Drive(ctx, opts, func(ctx context.Context, deadline time.Time) (*engine.Stripe, error, bool) {
		s.lockShards(allowed, exclusive)
		defer s.unlockShards(allowed, exclusive)
		t.ctx, t.deadline = ctx, deadline
		err, conflicted := t.crossAttempt(body)
		if conflicted {
			s.crossRetries.Add(1)
		}
		return t.stripe, err, conflicted
	})
	if err == nil {
		s.counts[stripeIndex(st)].crossCommits.Add(1)
		s.fold(&t, st)
	}
	if durable {
		err = s.walSettle(&t, ws, sb, err)
	}
	return err
}

// Run is the store's transaction: it runs body as one transaction over the
// shards the declared keys hash to, re-executing it on conflict until it
// commits or body returns a non-nil error, which aborts the transaction and
// is returned unchanged. The keys route it:
//
//   - one key, or keys that all hash to one shard: the single-shard path, one
//     transaction on that shard's engine, committing locally;
//   - keys spanning shards: the cross-shard protocol over exactly the shards
//     they declare;
//   - nil or empty keys: the whole store, every shard's gate taken (writers
//     exclusively, so a store-wide write serializes against all writers).
//
// Body may touch any key whose shard is declared; a key that hashes to a
// shard outside the declared set panics. readonly runs body read-only
// (mutating operations panic). ctx and opts bound the retries as in
// memtx.TM.AtomicCtx: on cancellation, deadline expiry or an exhausted budget
// it gives up with an *engine.TimeoutError, the store unchanged; a nil ctx
// with zero opts retries without bound. A non-nil sb defers a durable
// write's fsync wait: the call returns once the commit's log record is
// appended, and the caller must call sb.Wait before acknowledging the write.
// A nil sb waits for durability before returning; read-only calls ignore sb.
// Per-type op counters fold in only after a successful commit, so retried
// attempts are not double-counted.
func (s *Store) Run(ctx context.Context, opts memtx.TxOptions, keys [][]byte, readonly bool, sb *SyncBatch, body func(*Tx) error) error {
	sid, set := s.shardSetOf(keys)
	if sid >= 0 {
		return s.runSingle(ctx, opts, sid, readonly, sb, body)
	}
	return s.runCross(ctx, opts, set, readonly, sb, body)
}

// shardSetOf classifies keys: a single shard id (and nil set) when every key
// co-locates, or (-1, set) spanning multiple shards.
func (s *Store) shardSetOf(keys [][]byte) (int, []bool) {
	if len(keys) == 0 {
		return -1, nil // no keys declared: store-wide
	}
	first := s.KeyShard(keys[0])
	single := true
	for _, k := range keys[1:] {
		if s.KeyShard(k) != first {
			single = false
			break
		}
	}
	if single {
		return first, nil
	}
	set := make([]bool, len(s.shards))
	for _, k := range keys {
		set[s.KeyShard(k)] = true
	}
	return -1, set
}

// ViewKey is Run(nil, memtx.TxOptions{}, [][]byte{key}, true, nil, body).
//
// Deprecated: call Run; kept until bench/ moves.
func (s *Store) ViewKey(key []byte, body func(t *Tx) error) error {
	return s.runSingle(nil, engine.RunOptions{}, s.KeyShard(key), true, nil, body)
}

// AtomicKeyDefer is Run(ctx, opts, [][]byte{key}, false, sb, body).
//
// Deprecated: call Run; kept until bench/ moves.
func (s *Store) AtomicKeyDefer(ctx context.Context, opts memtx.TxOptions, key []byte, sb *SyncBatch, body func(t *Tx) error) error {
	return s.runSingle(ctx, opts, s.KeyShard(key), false, sb, body)
}

// AtomicKeysDefer is Run(ctx, opts, keys, false, sb, body).
//
// Deprecated: call Run; kept until bench/ moves.
func (s *Store) AtomicKeysDefer(ctx context.Context, opts memtx.TxOptions, keys [][]byte, sb *SyncBatch, body func(t *Tx) error) error {
	return s.Run(ctx, opts, keys, false, sb, body)
}

// Reader is a reusable single-attempt read-only runner bound to one body.
// Unlike Run it never retries — RunOnce reports a conflict and leaves the
// fallback policy to the caller — and it holds all per-attempt state inside
// itself, so a warmed Reader executes with zero heap allocations. The server
// keeps one per connection to run batched read snapshots.
//
// RunOnce must be able to read keys from any shard consistently, so it
// try-acquires every shard's gate in shared mode; if any acquisition would
// block (a cross-shard writer is active or queued) it reports a conflict
// immediately rather than waiting.
//
// A Reader is not safe for concurrent use; the body must be free of
// non-transactional side effects other than mutating state the caller
// discards when RunOnce reports a conflict.
type Reader struct {
	s    *Store
	body func(t *Tx) error
	t    Tx
}

// NewReader builds a Reader that executes body on each RunOnce call.
func (s *Store) NewReader(body func(t *Tx) error) *Reader {
	r := &Reader{s: s, body: body}
	r.t = Tx{s: s, sid: -1, readonly: true, txns: make([]engine.Txn, len(s.shards))}
	return r
}

// RunOnce executes the body as a single read-only attempt across however
// many shards it touches. committed reports whether the attempt validated
// and committed; false with a nil error means a conflict (gate contention, a
// doomed snapshot, or a racing writer), and the caller should fall back to
// per-command execution. A non-nil error is the body's own error, returned
// only when the snapshot it was computed from validated.
func (r *Reader) RunOnce() (committed bool, err error) {
	s := r.s
	for i := range s.shards {
		if !s.shards[i].xmu.TryRLock() {
			for j := i - 1; j >= 0; j-- {
				s.shards[j].xmu.RUnlock()
			}
			s.readerFallbacks.Add(1)
			return false, nil
		}
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].xmu.RUnlock()
		}
	}()
	err, conflicted := r.t.crossAttempt(r.body)
	if err != nil || conflicted {
		return false, err
	}
	s.fold(&r.t, r.t.stripe)
	return true, nil
}

// fold adds a committed transaction's op counts to the stripe of st, the
// stripe its committing attempt recorded into.
func (s *Store) fold(t *Tx, st *engine.Stripe) {
	ops := &s.counts[stripeIndex(st)].ops
	for i, c := range t.counts {
		if c > 0 {
			ops[i].Add(uint64(c))
		}
	}
}

// slot is what lookup learned about one key in its bucket.
type slot struct {
	h   uint64
	raw engine.Txn    // the key's shard transaction
	hdr engine.Handle // bucket header
	vec engine.Handle // slot vector; nil while the bucket is empty
	n   int           // slots in use, bounded by the vector's capacity
	i   int           // the key's slot; meaningful only when ent != nil
	ent engine.Handle // the key's entry; nil when the key is absent
	val string        // the value in ent
}

// lookup finds key, whose hash is h, in the bucket the hash selects.
//
// The engine is not opaque, so the vector may be seen mid-update: a slot
// whose entry ref is nil is skipped, and any other mixed view reads only
// complete, immutable entries. Every write dirties the vector, so such a
// view fails validation.
func (t *Tx) lookup(h uint64, key []byte) slot {
	sid := int(h & t.s.mask)
	raw := t.txnFor(sid)
	dir := t.s.shards[sid].dir
	raw.OpenForRead(dir)
	hdr := raw.LoadRef(dir, int((h>>16)&uint64(t.s.buckets-1)))
	raw.OpenForRead(hdr)
	s := slot{h: h, raw: raw, hdr: hdr, vec: raw.LoadRef(hdr, 0)}
	if s.vec == nil {
		return s
	}
	raw.OpenForRead(s.vec)
	s.n = min(int(raw.LoadWord(s.vec, vecCount)), int(raw.LoadWord(s.vec, vecCap)))
	for i := 0; i < s.n; i++ {
		if raw.LoadWord(s.vec, vecHash0+i) != h {
			continue
		}
		if e := raw.LoadRef(s.vec, i); e != nil {
			if k, v := splitEntry(raw.LoadBytes(e)); k == string(key) {
				s.i, s.ent, s.val = i, e, v
				return s
			}
		}
	}
	return s
}

// setSlot stores hash h and entry e into slot i of vec, which is open for
// update or transaction-local.
func setSlot(raw engine.Txn, vec engine.Handle, i int, h uint64, e engine.Handle) {
	raw.LogForUndoWord(vec, vecHash0+i)
	raw.StoreWord(vec, vecHash0+i, h)
	raw.LogForUndoRef(vec, i)
	raw.StoreRef(vec, i, e)
}

// setCount stores vec's count: inserts call it after filling the new slot,
// deletes after clearing the vacated one.
func setCount(raw engine.Txn, vec engine.Handle, n int) {
	raw.LogForUndoWord(vec, vecCount)
	raw.StoreWord(vec, vecCount, uint64(n))
}

// overwrite points the found slot s at entry e.
func overwrite(s slot, e engine.Handle) {
	s.raw.OpenForUpdate(s.vec)
	s.raw.LogForUndoRef(s.vec, s.i)
	s.raw.StoreRef(s.vec, s.i, e)
}

// insert adds entry e under the absent key lookup returned s for.
// A vector with room takes the slot in place; a full one (or none) is
// replaced by a transaction-local copy of twice the capacity, so only then
// is the header updated.
func (t *Tx) insert(s slot, e engine.Handle) {
	raw, vec := s.raw, s.vec
	c := 0
	if vec != nil {
		c = int(raw.LoadWord(vec, vecCap))
	}
	if s.n < c {
		raw.OpenForUpdate(vec)
	} else {
		c = max(2, 2*c)
		vec = raw.Alloc(vecHash0+c, c)
		raw.LogForUndoWord(vec, vecCap)
		raw.StoreWord(vec, vecCap, uint64(c))
		for i := 0; i < s.n; i++ {
			setSlot(raw, vec, i, raw.LoadWord(s.vec, vecHash0+i), raw.LoadRef(s.vec, i))
		}
	}
	setSlot(raw, vec, s.n, s.h, e)
	setCount(raw, vec, s.n+1)
	if vec != s.vec {
		raw.OpenForUpdate(s.hdr)
		raw.LogForUndoRef(s.hdr, 0)
		raw.StoreRef(s.hdr, 0, vec)
	}
}

// Get returns the value stored under key. The returned slice is freshly
// allocated; use AppendGetBlob on hot paths that must not allocate.
func (t *Tx) Get(key []byte) ([]byte, bool) {
	t.counts[OpGet]++
	s := t.lookup(hashKey(key), key)
	if s.ent == nil {
		return nil, false
	}
	return []byte(s.val), true
}

// AppendGetBlob appends the value stored under key to dst in the wire
// protocol's blob form "$<len>:<bytes>" and reports whether the key was
// present (dst is returned unchanged when it is not). The value is copied
// straight from its entry into dst, so a sufficiently large dst makes the
// whole read allocation-free.
func (t *Tx) AppendGetBlob(dst []byte, key []byte) ([]byte, bool) {
	t.counts[OpGet]++
	s := t.lookup(hashKey(key), key)
	if s.ent == nil {
		return dst, false
	}
	dst = append(dst, '$')
	dst = strconv.AppendUint(dst, uint64(len(s.val)), 10)
	dst = append(dst, ':')
	return append(dst, s.val...), true
}

// Set stores val under key, inserting or overwriting.
func (t *Tx) Set(key, val []byte) {
	t.counts[OpSet]++
	t.put(t.lookup(hashKey(key), key), key, val)
}

// put stores val under key, for which lookup returned s.
func (t *Tx) put(s slot, key, val []byte) {
	t.logEffect(int(s.h&t.s.mask), false, key, val)
	e := t.allocEntry(s.raw, key, val)
	if s.ent != nil {
		overwrite(s, e)
		return
	}
	t.insert(s, e)
}

// Delete removes key, reporting whether it was present. The bucket's last
// slot moves into the hole, so the vector stays dense; it never shrinks.
func (t *Tx) Delete(key []byte) bool {
	t.counts[OpDelete]++
	h := hashKey(key)
	s := t.lookup(h, key)
	if s.ent == nil {
		return false
	}
	t.logEffect(int(h&t.s.mask), true, key, nil)
	raw, vec, last := s.raw, s.vec, s.n-1
	raw.OpenForUpdate(vec)
	if s.i != last {
		setSlot(raw, vec, s.i, raw.LoadWord(vec, vecHash0+last), raw.LoadRef(vec, last))
	}
	raw.LogForUndoRef(vec, last)
	raw.StoreRef(vec, last, nil)
	setCount(raw, vec, last)
	return true
}

// CompareAndSet replaces key's value with new only if the current value
// equals old; it reports whether the swap happened. A missing key never
// matches.
func (t *Tx) CompareAndSet(key, old, new []byte) bool {
	t.counts[OpCAS]++
	h := hashKey(key)
	s := t.lookup(h, key)
	if s.ent == nil || s.val != string(old) {
		return false
	}
	// A successful swap logs as an absolute set of the new value.
	t.logEffect(int(h&t.s.mask), false, key, new)
	overwrite(s, t.allocEntry(s.raw, key, new))
	return true
}

// Int reads key's value as a decimal integer; a missing key reads as 0. A
// value that does not parse is an error (which aborts the transaction when
// returned from the body).
func (t *Tx) Int(key []byte) (int64, error) {
	t.counts[OpGet]++
	return slotInt(t.lookup(hashKey(key), key))
}

// slotInt parses the value lookup found as Int does.
func slotInt(s slot) (int64, error) {
	if s.ent == nil {
		return 0, nil
	}
	return parseValue(s.val)
}

// SetInt stores v as decimal text under key.
func (t *Tx) SetInt(key []byte, v int64) { t.Set(key, FormatInt(v)) }

// Add adds delta to key's integer value (missing keys start at 0) and
// returns the new value. It writes to the slot its read found, so it walks
// the bucket once.
func (t *Tx) Add(key []byte, delta int64) (int64, error) {
	t.counts[OpGet]++
	s := t.lookup(hashKey(key), key)
	v, err := slotInt(s)
	if err != nil {
		return 0, err
	}
	v += delta
	t.counts[OpSet]++
	t.put(s, key, FormatInt(v))
	return v, nil
}

// Len counts all keys by scanning every shard inside the transaction. It is
// a test/diagnostic helper: it reads every slot vector, so it conflicts with
// every concurrent write. It requires a store-wide transaction (Run with
// nil keys); a shard-pinned transaction panics.
func (t *Tx) Len() int {
	total := 0
	for sid := range t.s.shards {
		t.eachVec(sid, func(raw engine.Txn, vec engine.Handle, n int) { total += n })
	}
	return total
}

// scanShard visits every slot in one shard, calling fn with a freshly
// allocated copy of each key/value pair. The checkpointer uses it to collect
// a shard snapshot; like Len it conflicts with every concurrent write on the
// shard.
func (t *Tx) scanShard(sid int, fn func(key, val []byte)) {
	t.eachVec(sid, func(raw engine.Txn, vec engine.Handle, n int) {
		for i := 0; i < n; i++ {
			if e := raw.LoadRef(vec, i); e != nil {
				k, v := splitEntry(raw.LoadBytes(e))
				fn([]byte(k), []byte(v))
			}
		}
	})
}

// eachVec opens every non-empty slot vector of shard sid and calls fn with
// its count bounded by its capacity.
func (t *Tx) eachVec(sid int, fn func(raw engine.Txn, vec engine.Handle, n int)) {
	raw := t.txnFor(sid)
	dir := t.s.shards[sid].dir
	raw.OpenForRead(dir)
	for b := 0; b < t.s.buckets; b++ {
		hdr := raw.LoadRef(dir, b)
		raw.OpenForRead(hdr)
		if vec := raw.LoadRef(hdr, 0); vec != nil {
			raw.OpenForRead(vec)
			fn(raw, vec, min(int(raw.LoadWord(vec, vecCount)), int(raw.LoadWord(vec, vecCap))))
		}
	}
}

// Get is Tx.Get in its own single-shard read-only transaction.
func (s *Store) Get(key []byte) (val []byte, ok bool) {
	_ = s.Run(nil, memtx.TxOptions{}, [][]byte{key}, true, nil, func(t *Tx) error {
		val, ok = t.Get(key)
		return nil
	})
	return val, ok
}

// Set is Tx.Set in its own single-shard transaction.
func (s *Store) Set(key, val []byte) {
	_ = s.Run(nil, memtx.TxOptions{}, [][]byte{key}, false, nil, func(t *Tx) error {
		t.Set(key, val)
		return nil
	})
}

// Delete is Tx.Delete in its own single-shard transaction.
func (s *Store) Delete(key []byte) (removed bool) {
	_ = s.Run(nil, memtx.TxOptions{}, [][]byte{key}, false, nil, func(t *Tx) error {
		removed = t.Delete(key)
		return nil
	})
	return removed
}

// CompareAndSet is Tx.CompareAndSet in its own single-shard transaction.
func (s *Store) CompareAndSet(key, old, new []byte) (swapped bool) {
	_ = s.Run(nil, memtx.TxOptions{}, [][]byte{key}, false, nil, func(t *Tx) error {
		swapped = t.CompareAndSet(key, old, new)
		return nil
	})
	return swapped
}

// Len is Tx.Len in its own store-wide read-only transaction.
func (s *Store) Len() (n int) {
	_ = s.Run(nil, memtx.TxOptions{}, nil, true, nil, func(t *Tx) error {
		n = t.Len()
		return nil
	})
	return n
}
