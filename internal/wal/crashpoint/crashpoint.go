// Package crashpoint is an ALICE-style crash-consistency explorer for the
// durable store's write-ahead log.
//
// Explore runs a scripted workload against a recording in-memory filesystem
// (walfs.NewRecordingMem), capturing the exact sequence of filesystem
// mutations the WAL issues — every write, fsync, create, rename, remove and
// directory fsync. It then materializes the disk state a crash could leave
// behind at every journal prefix (plus sector-torn variants of each trailing
// content write), runs full recovery on each state, and asserts the
// durability contract:
//
//   - No acknowledged operation is lost: an op whose commit returned before
//     journal position n must be visible after recovering any state at
//     prefix >= n.
//   - No phantom: a key never recovers to a value newer than the last
//     operation that had *started* by the crash point.
//   - No torn cross-shard commit: a set of "bank" keys mutated only by
//     balance-conserving cross-shard transfers must recover to the state
//     after some prefix of the transfer sequence — never a half-applied
//     transfer.
//   - Monotone durability: the log's highest recovered LSN never decreases
//     as the crash point moves later.
//   - The recovered store works: it accepts a write and serves it back.
package crashpoint

import (
	"fmt"
	"strconv"
	"strings"

	"memtx"
	"memtx/internal/kv"
	"memtx/internal/wal/walfs"
)

// Config sizes the exploration. The zero value is a sensible default.
type Config struct {
	// Shards is the store's shard count (0 = 4).
	Shards int
	// Buckets is hash buckets per shard (0 = 64).
	Buckets int
	// SegmentBytes is the log rotation threshold; small values force
	// rotations, and so checkpoint truncation, inside the explored journal
	// (0 = 2048).
	SegmentBytes int64
	// TornStride is the byte stride for torn-final-write variants
	// (0 = walfs.SectorSize).
	TornStride int
	// Log, if non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// Stats reports what an exploration covered.
type Stats struct {
	// JournalOps is the length of the recorded filesystem trace.
	JournalOps int
	// States is the number of whole-prefix crash states recovered.
	States int
	// TornStates is the number of additional sector-torn states recovered.
	TornStates int
	// SegmentCreates and SegmentRemoves count the log segments the workload
	// created (boot plus rotations) and truncated, so a caller can check that
	// both fall inside the explored journal.
	SegmentCreates, SegmentRemoves int
}

// ackedOp is one client operation with its journal footprint: the journal
// length before it started and after its commit was acknowledged.
type ackedOp struct {
	jStart, jAck int
	key          string
	seq          int // sequence number written; -1 for a delete
}

// trace is everything the workload recorded for later verification.
type trace struct {
	ops []walfs.Op
	// acked per-key sequence ops, in issue order.
	acks []ackedOp
	// bank transfer checkpoints: vectors[m] is the bank balance vector after
	// the first m transfers; ackedAt[m]/startedAt[m] are the journal lengths
	// when transfer m was acknowledged / started (1-based, index 0 unused).
	vectors   [][]int
	ackedAt   []int
	startedAt []int
	jFund     int // journal length when all bank keys were funded
}

const (
	nbanks      = 4
	bankInitial = 100
)

func bankKey(i int) []byte { return []byte(fmt.Sprintf("bank%d", i)) }

// seqVal pads each sequence value past one sector so ordinary commit records
// span a sector boundary and the explorer's torn-final-write variants cover
// plain log appends, not just multi-kilobyte snapshot writes.
func seqVal(seq int) []byte {
	v := make([]byte, 0, 640)
	v = append(v, strconv.Itoa(seq)...)
	for len(v) < 640 {
		v = append(v, '.')
	}
	return v
}

// Explore records the workload and verifies every crash state. It returns on
// the first violated invariant with an error naming the journal prefix; nil
// means every explored state recovered correctly.
func Explore(cfg Config) (Stats, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 64
	}
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = 2048
	}
	if cfg.TornStride == 0 {
		cfg.TornStride = walfs.SectorSize
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	tr, err := record(cfg)
	if err != nil {
		return Stats{}, fmt.Errorf("crashpoint: workload failed: %w", err)
	}
	st := Stats{JournalOps: len(tr.ops)}
	for _, op := range tr.ops {
		if strings.HasSuffix(op.Path, ".seg") {
			switch op.Kind {
			case walfs.OpCreate:
				st.SegmentCreates++
			case walfs.OpRemove:
				st.SegmentRemoves++
			}
		}
	}
	logf("crashpoint: recorded %d filesystem ops (%d segments created, %d truncated), %d acked ops, %d transfers",
		len(tr.ops), st.SegmentCreates, st.SegmentRemoves, len(tr.acks), len(tr.vectors)-1)

	prevLSN := uint64(0)
	for n := 0; n <= len(tr.ops); n++ {
		lsn, err := verifyState(cfg, tr, n, walfs.CrashState(tr.ops[:n]))
		if err != nil {
			return st, fmt.Errorf("crash at prefix %d/%d: %w", n, len(tr.ops), err)
		}
		// Monotone durability: moving the crash later never shrinks what the
		// log recovers.
		if lsn < prevLSN {
			return st, fmt.Errorf("crash at prefix %d/%d: recovered LSN %d < %d at the previous prefix",
				n, len(tr.ops), lsn, prevLSN)
		}
		prevLSN = lsn
		st.States++
		// Sector-torn variants of a trailing content write: the crash kept
		// only the first keep bytes of the final write.
		if n > 0 {
			last := tr.ops[n-1]
			if last.Kind == walfs.OpWrite || last.Kind == walfs.OpWriteFile {
				for keep := cfg.TornStride; keep < len(last.Data); keep += cfg.TornStride {
					fs := walfs.CrashStateTorn(tr.ops[:n], keep)
					if _, err := verifyState(cfg, tr, n-1, fs); err != nil {
						return st, fmt.Errorf("crash at prefix %d/%d torn after %d bytes: %w",
							n, len(tr.ops), keep, err)
					}
					st.TornStates++
				}
			}
		}
	}
	logf("crashpoint: %d prefix states + %d torn states recovered clean", st.States, st.TornStates)
	return st, nil
}

// record runs the scripted workload on a recording Mem and returns the trace.
func record(cfg Config) (*trace, error) {
	fsys := walfs.NewRecordingMem()
	store, _, err := kv.Open(
		kv.Config{Shards: cfg.Shards, Buckets: cfg.Buckets},
		kv.DurableConfig{Dir: "wal", FS: fsys, FsyncBatch: 1, SegmentBytes: cfg.SegmentBytes},
	)
	if err != nil {
		return nil, err
	}
	defer store.Close()

	tr := &trace{
		vectors:   [][]int{make([]int, nbanks)},
		ackedAt:   []int{0},
		startedAt: []int{0},
	}
	for i := range tr.vectors[0] {
		tr.vectors[0][i] = bankInitial
	}

	seqs := map[string]int{}
	set := func(key string) error {
		seqs[key]++
		op := ackedOp{jStart: fsys.JournalLen(), key: key, seq: seqs[key]}
		if err := store.Run(nil, memtx.TxOptions{}, [][]byte{[]byte(key)}, false, nil, func(t *kv.Tx) error {
			t.Set([]byte(key), seqVal(op.seq))
			return nil
		}); err != nil {
			return err
		}
		op.jAck = fsys.JournalLen()
		tr.acks = append(tr.acks, op)
		return nil
	}
	del := func(key string) error {
		op := ackedOp{jStart: fsys.JournalLen(), key: key, seq: -1}
		if err := store.Run(nil, memtx.TxOptions{}, [][]byte{[]byte(key)}, false, nil, func(t *kv.Tx) error {
			t.Delete([]byte(key))
			return nil
		}); err != nil {
			return err
		}
		op.jAck = fsys.JournalLen()
		tr.acks = append(tr.acks, op)
		return nil
	}
	// transfer moves amt from bank a to bank b in one cross-shard
	// transaction and records the resulting balance vector.
	transfer := func(a, b, amt int) error {
		start := fsys.JournalLen()
		err := store.Run(nil, memtx.TxOptions{}, [][]byte{bankKey(a), bankKey(b)}, false, nil, func(t *kv.Tx) error {
			av, _ := t.Get(bankKey(a))
			bv, _ := t.Get(bankKey(b))
			an, _ := strconv.Atoi(string(av))
			bn, _ := strconv.Atoi(string(bv))
			t.Set(bankKey(a), []byte(strconv.Itoa(an-amt)))
			t.Set(bankKey(b), []byte(strconv.Itoa(bn+amt)))
			return nil
		})
		if err != nil {
			return err
		}
		prev := tr.vectors[len(tr.vectors)-1]
		next := append([]int(nil), prev...)
		next[a] -= amt
		next[b] += amt
		tr.vectors = append(tr.vectors, next)
		tr.startedAt = append(tr.startedAt, start)
		tr.ackedAt = append(tr.ackedAt, fsys.JournalLen())
		return nil
	}

	// Phase A: plain per-key sequences across several keys and rotations.
	for round := 0; round < 4; round++ {
		for k := 0; k < 6; k++ {
			if err := set(fmt.Sprintf("key%d", k)); err != nil {
				return nil, err
			}
		}
	}
	// A tombstone: set then delete; the acked delete must stay deleted.
	if err := set("tomb"); err != nil {
		return nil, err
	}
	if err := del("tomb"); err != nil {
		return nil, err
	}

	// Phase B: fund the bank keys; conservation is checked from jFund on.
	for i := 0; i < nbanks; i++ {
		if err := store.Run(nil, memtx.TxOptions{}, [][]byte{bankKey(i)}, false, nil, func(t *kv.Tx) error {
			t.Set(bankKey(i), []byte(strconv.Itoa(bankInitial)))
			return nil
		}); err != nil {
			return nil, err
		}
	}
	tr.jFund = fsys.JournalLen()

	// Phase C: cross-shard transfers interleaved with single-key writes,
	// with a checkpoint (snapshot + truncation) in the middle so crash
	// states cover snapshot writes, renames, and segment removal.
	lcg := uint32(1)
	next := func(n int) int {
		lcg = lcg*1664525 + 1013904223
		return int(lcg>>16) % n
	}
	for i := 0; i < 12; i++ {
		a := next(nbanks)
		b := (a + 1 + next(nbanks-1)) % nbanks
		if err := transfer(a, b, 1+next(5)); err != nil {
			return nil, err
		}
		if i%2 == 0 {
			if err := set(fmt.Sprintf("key%d", next(6))); err != nil {
				return nil, err
			}
		}
		if i == 6 {
			if err := store.Checkpoint(); err != nil {
				return nil, err
			}
		}
	}
	// A few trailing writes so post-checkpoint segments grow past the
	// snapshot and the final crash states mix both.
	for k := 0; k < 6; k++ {
		if err := set(fmt.Sprintf("key%d", k)); err != nil {
			return nil, err
		}
	}

	tr.ops = fsys.Journal()
	return tr, nil
}

// verifyState recovers the store from one crash state and checks every
// durability invariant at journal prefix n. It returns the highest recovered
// LSN for the monotonicity check.
func verifyState(cfg Config, tr *trace, n int, fsys *walfs.Mem) (uint64, error) {
	store, stats, err := kv.Open(
		kv.Config{Shards: cfg.Shards, Buckets: cfg.Buckets},
		kv.DurableConfig{Dir: "wal", FS: fsys, FsyncBatch: 1, SegmentBytes: cfg.SegmentBytes},
	)
	if err != nil {
		return 0, fmt.Errorf("recovery failed: %w", err)
	}
	defer store.Close()

	// Per-key window: a key must recover to the state after ops[m] of its
	// own operation sequence, where m is at least the last acked op (the
	// durability floor) and at most the last started op (the phantom
	// ceiling). m = -1 means "no op applied" (key absent).
	byKey := map[string][]ackedOp{}
	for _, op := range tr.acks {
		byKey[op.key] = append(byKey[op.key], op)
	}
	for key, ops := range byKey {
		floor, ceil := -1, -1
		for i, op := range ops {
			if op.jAck <= n {
				floor = i
			}
			if op.jStart <= n {
				ceil = i
			}
		}
		val, ok := store.Get([]byte(key))
		matched := false
		for m := floor; m <= ceil; m++ {
			switch {
			case m == -1 || ops[m].seq == -1: // absent before any op, or deleted
				matched = !ok
			case ok && string(val) == string(seqVal(ops[m].seq)):
				matched = true
			}
			if matched {
				break
			}
		}
		if !matched {
			return 0, fmt.Errorf("key %q: recovered (%q, present=%v) matches no state in op window [%d,%d] (acked floor seq %v)",
				key, val, ok, floor, ceil, opSeq(ops, floor))
		}
	}

	// Bank conservation: once funding is durable, the recovered balance
	// vector must equal the state after some transfer prefix m with
	// acked(m) <= crash < started(m+1) impossible to violate — i.e. m at
	// least the last acked transfer and at most the last started one.
	if n >= tr.jFund {
		got := make([]int, nbanks)
		sum := 0
		for i := 0; i < nbanks; i++ {
			val, ok := store.Get(bankKey(i))
			if !ok {
				return 0, fmt.Errorf("bank%d: funded key missing after recovery", i)
			}
			v, err := strconv.Atoi(string(val))
			if err != nil {
				return 0, fmt.Errorf("bank%d: recovered garbage %q", i, val)
			}
			got[i] = v
			sum += v
		}
		if sum != nbanks*bankInitial {
			return 0, fmt.Errorf("bank sum %d != %d: torn cross-shard commit (balances %v)", sum, nbanks*bankInitial, got)
		}
		lo, hi := 0, 0
		for m := 1; m < len(tr.vectors); m++ {
			if tr.ackedAt[m] <= n {
				lo = m
			}
			if tr.startedAt[m] <= n {
				hi = m
			}
		}
		match := -1
		for m := lo; m <= hi; m++ {
			if equalVec(got, tr.vectors[m]) {
				match = m
				break
			}
		}
		if match < 0 {
			return 0, fmt.Errorf("bank balances %v match no transfer prefix in [%d,%d] (lost or reordered transfer)", got, lo, hi)
		}
	}

	// The recovered store must still accept and serve writes.
	probe := []byte("crashpoint-probe")
	if err := store.Run(nil, memtx.TxOptions{}, [][]byte{probe}, false, nil, func(t *kv.Tx) error {
		t.Set(probe, []byte("ok"))
		return nil
	}); err != nil {
		return 0, fmt.Errorf("recovered store rejected a write: %w", err)
	}
	if v, ok := store.Get(probe); !ok || string(v) != "ok" {
		return 0, fmt.Errorf("recovered store lost the probe write (got %q, %v)", v, ok)
	}
	return stats.LastLSN, nil
}

// opSeq names the op at index m of a key's sequence for error messages.
func opSeq(ops []ackedOp, m int) any {
	if m < 0 {
		return "none"
	}
	return ops[m].seq
}

func equalVec(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
