package kv

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"memtx/internal/chaos"
	"memtx/internal/engine"
	"memtx/internal/wal"
	"memtx/internal/wal/walfs"
)

// DurableConfig enables the write-ahead log for a store opened with Open.
type DurableConfig struct {
	// Dir is the WAL root directory (required).
	Dir string
	// FsyncBatch / FsyncInterval / SegmentBytes configure group commit and
	// rotation; see wal.Options.
	FsyncBatch    int
	FsyncInterval time.Duration
	SegmentBytes  int64
	// SnapshotEvery starts a background checkpointer writing per-shard
	// snapshots (and truncating the log segments every shard's snapshot
	// covers) on this period. 0 disables periodic checkpoints; Checkpoint can
	// still be called.
	SnapshotEvery time.Duration
	// IncrementalSnapshots makes checkpoints serialize only keys dirtied
	// since the shard's last snapshot, merging them into the previous
	// snapshot file; a full-scan snapshot is still taken periodically (and
	// whenever the dirty set overflows or no previous snapshot exists).
	IncrementalSnapshots bool
	// ScrubInterval starts the WAL's background scrubber, re-verifying sealed
	// log segments and snapshots on this period and quarantining anything
	// corrupt. 0 disables scrubbing.
	ScrubInterval time.Duration
	// FS is the storage layer the WAL runs on. Nil selects the OS
	// passthrough; tests substitute walfs.Mem / walfs.Fault for crash-point
	// exploration and disk-fault injection.
	FS walfs.FS

	// fullSnapshotEvery overrides fullSnapshotCadence (0 = keep it);
	// in-package tests use it to pin which checkpoints are full scans.
	fullSnapshotEvery int
}

// fullSnapshotCadence forces a full-scan snapshot every Nth checkpoint per
// shard when IncrementalSnapshots is on, which bounds how long a
// corrupt-on-disk byte could propagate through merge chains.
const fullSnapshotCadence = 8

// RecoveryStats reports what replay-on-boot found.
type RecoveryStats struct {
	// SnapshotPairs is the number of key/value pairs loaded from snapshots.
	SnapshotPairs uint64
	// Records is the number of log records replayed: those with an op on a
	// shard whose snapshot does not cover them.
	Records uint64
	// TornTail reports whether the log's last segment ended in a torn record
	// (truncated during the scan).
	TornTail bool
	// LastLSN is the highest LSN recovered from the log or any snapshot; the
	// log reopens one past it.
	LastLSN uint64
}

// walEff is one captured write effect: the absolute set/delete the operation
// performed, tagged with the shard the key hashes to. Effects are recorded
// only when a WAL is attached and encode into a log record at commit.
type walEff struct {
	sid int
	del bool
	key []byte
	val []byte
}

// walScratch pools a transaction's WAL slices (effect capture and encode
// scratch) so the durable hot path does not allocate them per commit.
// Borrowed by the run loops when the store has a WAL and the transaction
// writes; released after the durability wait is either done or handed to a
// SyncBatch.
type walScratch struct {
	effs   []walEff
	encOps []wal.Op
}

var walScratchPool = sync.Pool{New: func() any { return new(walScratch) }}

func (t *Tx) borrowWALScratch() *walScratch {
	ws := walScratchPool.Get().(*walScratch)
	t.effs = ws.effs[:0]
	t.encOps = ws.encOps[:0]
	return ws
}

// release returns the scratch to the pool. The effect and encode slices are
// cleared first so pooled entries do not pin caller key/value buffers.
func (ws *walScratch) release(t *Tx) {
	clear(t.effs[:cap(t.effs)])
	clear(t.encOps[:cap(t.encOps)])
	ws.effs = t.effs[:0]
	ws.encOps = t.encOps[:0]
	t.effs, t.encOps = nil, nil
	walScratchPool.Put(ws)
}

// logEffect captures one write effect if a WAL is attached. Key and val must
// stay valid until the attempt commits or aborts (callers pass the same
// slices the engine write consumed).
func (t *Tx) logEffect(sid int, del bool, key, val []byte) {
	if t.s.wal == nil || t.readonly {
		return
	}
	t.effs = append(t.effs, walEff{sid: sid, del: del, key: key, val: val})
}

// encodeEffs renders the captured effects into the reusable wal.Op scratch.
func (t *Tx) encodeEffs() []wal.Op {
	t.encOps = t.encOps[:0]
	for _, e := range t.effs {
		t.encOps = append(t.encOps, wal.Op{Del: e.del, Key: e.key, Val: e.val})
	}
	return t.encOps
}

// durableCommitSingle is the commit hook for single-shard writers: it couples
// the engine commit and the WAL LSN reservation under the shard's wmu, so the
// order of the shard's records in the log matches the engine's commit order.
// The record is encoded into a pooled buffer *before* wmu is taken, and the
// append only reserves an LSN and enqueues for the appender goroutine — the
// critical section never waits on encoding, checksumming, or file I/O. The
// caller syncs after the gate is released. A commit-entry chaos panic unwinds
// through here with wmu released by the defer.
func (s *Store) durableCommitSingle(sid int, t *Tx, tx engine.Txn) error {
	if len(t.effs) == 0 {
		return tx.Commit()
	}
	// Health gate before the engine commit: a write the WAL can no longer
	// log must be rejected while nothing has published, so memory and log
	// never diverge and the client gets a clean, retriable refusal. The
	// attempt is abandoned, not retried — abort the open transaction.
	if herr := s.walHealthErr(); herr != nil {
		tx.Abort()
		return herr
	}
	enc := wal.EncodeCommit(t.encodeEffs())
	// The WALAppend fault point sits at record encoding — before the shard's
	// wmu — so chaos delays exercise the pipeline's reorder window without
	// artificially stretching the commit critical section.
	chaos.Delay(chaos.WALAppend)
	sh := &s.shards[sid]
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	if err := tx.Commit(); err != nil {
		enc.Release()
		return err
	}
	s.markDirty(sid, t)
	lsn, err := s.wal.Log().Append(enc)
	if err != nil {
		// The engine commit is already published; a wedged log cannot undo
		// it. Surface the error — the client must not treat the write as
		// durable — and leave the sticky log failure to fail fast from here.
		s.noteWALErr(err)
		return err
	}
	sh.lastLSN.Store(lsn)
	t.lsn = lsn
	return nil
}

// dirtyLimit caps a shard's dirty-key set for incremental checkpoints. Past
// it the set is dropped and the next checkpoint falls back to a full scan —
// tracking more keys than a scan would serialize is pure overhead.
const dirtyLimit = 1 << 17

// markDirty records t's effects on shard sid into the shard's dirty set.
// Must be called inside the same critical section that reserves the commit's
// LSN (under wmu for single-shard commits, under the exclusive gates for
// cross-shard ones) — see the shard.dmu comment for why that makes the
// checkpoint's dirty-set take consistent with the covered LSN it reads.
func (s *Store) markDirty(sid int, t *Tx) {
	if !s.walIncr {
		return
	}
	sh := &s.shards[sid]
	sh.dmu.Lock()
	defer sh.dmu.Unlock()
	if sh.dirtyOver {
		return
	}
	for _, e := range t.effs {
		if e.sid != sid {
			continue
		}
		if _, ok := sh.dirty[string(e.key)]; ok {
			continue
		}
		if len(sh.dirty) >= dirtyLimit {
			sh.dirtyOver = true
			sh.dirty = nil
			return
		}
		if sh.dirty == nil {
			sh.dirty = make(map[string]struct{})
		}
		sh.dirty[string(e.key)] = struct{}{}
	}
}

// mergeDirtyBack restores a taken dirty set after a failed checkpoint, so the
// keys it held are not lost to the next incremental attempt.
func (sh *shard) mergeDirtyBack(taken map[string]struct{}, takenOver bool) {
	sh.dmu.Lock()
	defer sh.dmu.Unlock()
	if takenOver || sh.dirtyOver {
		sh.dirtyOver = true
		sh.dirty = nil
		return
	}
	if sh.dirty == nil {
		sh.dirty = taken
		return
	}
	for k := range taken {
		if len(sh.dirty) >= dirtyLimit {
			sh.dirtyOver = true
			sh.dirty = nil
			return
		}
		sh.dirty[k] = struct{}{}
	}
}

// walAppendCross logs a committed cross-shard transaction as one commit
// record holding every participant's ops. Called from crossAttempt after the
// publish loop, still under the exclusive gates — which also serialize the
// append against single-shard writers on the participants (they hold the
// gate shared around their whole attempt), so no wmu is needed and each
// participant's records stay in its engine's commit order. One record means
// one LSN: a crash keeps the whole transaction or none of it.
func (t *Tx) walAppendCross() error {
	s := t.s
	lsn, err := s.wal.Log().AppendCommit(t.encodeEffs())
	if err != nil {
		s.noteWALErr(err)
		return err
	}
	// The exclusive gates are the LSN-reservation critical section, so
	// marking here satisfies markDirty's and lastLSN's contracts.
	for _, e := range t.effs {
		s.shards[e.sid].lastLSN.Store(lsn)
	}
	for _, sid := range t.committed {
		s.markDirty(sid, t)
	}
	t.lsn = lsn
	return nil
}

// awaitDurable is the store's one durability wait: it blocks until the log is
// durable through lsn (0 = nothing was logged). Runs after the gates are
// released, so a parked wait never holds up other transactions' commits.
func (s *Store) awaitDurable(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	err := s.wal.Log().Sync(lsn)
	s.noteWALErr(err)
	return err
}

// SyncBatch accumulates the durability waits of a pipelined window. Each
// deferred commit notes its record's LSN here instead of blocking in
// awaitDurable; Wait then syncs the log through the high-water LSN once. A
// window of N writes pays one group-commit wait instead of N sequential ones,
// and — because the issuing goroutine keeps executing instead of parking per
// command — concurrent windows stack far deeper groups onto each fsync.
//
// The durability contract is unchanged: the owner must call Wait (and see it
// succeed) before releasing any acknowledgment for the writes it noted. A
// SyncBatch is not safe for concurrent use.
type SyncBatch struct {
	s   *Store
	lsn uint64 // high-water LSN awaiting sync (0 = none)
}

// NewSyncBatch returns a deferred-sync collector for the store, or nil when
// the store has no WAL (every method on a nil SyncBatch is a no-op, so
// callers can hold one unconditionally).
func (s *Store) NewSyncBatch() *SyncBatch {
	if s.wal == nil {
		return nil
	}
	return &SyncBatch{s: s}
}

// note absorbs t's pending sync instead of blocking on it. Called from the
// run epilogue after the gates are released.
func (b *SyncBatch) note(t *Tx) {
	if t.lsn > b.lsn {
		b.lsn = t.lsn
	}
	t.lsn = 0
}

// Pending reports whether the batch holds records not yet known durable.
func (b *SyncBatch) Pending() bool { return b != nil && b.lsn != 0 }

// Wait blocks until every record noted since the last Wait is durable. A
// failed Wait means the acknowledgments gated on it must not be released:
// the log is wedged.
func (b *SyncBatch) Wait() error {
	if !b.Pending() {
		return nil
	}
	err := b.s.awaitDurable(b.lsn)
	b.lsn = 0
	return err
}

// Open builds a store like New, then recovers it from the WAL directory —
// each shard's newest valid snapshot first, then the log suffix past it —
// and attaches the log so subsequent writes are durable. The returned stats
// describe what replay found.
func Open(cfg Config, dcfg DurableConfig) (*Store, *RecoveryStats, error) {
	if dcfg.Dir == "" {
		return nil, nil, errors.New("kv: DurableConfig.Dir is required")
	}
	s := New(cfg)
	opts := wal.Options{
		Dir:           dcfg.Dir,
		FsyncBatch:    dcfg.FsyncBatch,
		FsyncInterval: dcfg.FsyncInterval,
		SegmentBytes:  dcfg.SegmentBytes,
		FS:            dcfg.FS,
		ScrubInterval: dcfg.ScrubInterval,
	}
	m, scan, err := wal.Recover(opts, len(s.shards))
	if err != nil {
		return nil, nil, err
	}
	stats, err := s.replay(m, scan)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Start(stats.LastLSN + 1); err != nil {
		return nil, nil, err
	}
	m.NoteReplay(stats.Records, stats.SnapshotPairs)

	s.wal = m
	s.walIncr = dcfg.IncrementalSnapshots
	s.walFullN = fullSnapshotCadence
	if dcfg.fullSnapshotEvery > 0 {
		s.walFullN = dcfg.fullSnapshotEvery
	}
	if dcfg.SnapshotEvery > 0 {
		s.walStop = make(chan struct{})
		s.walWG.Add(1)
		go s.checkpointLoop(dcfg.SnapshotEvery)
	}
	return s, stats, nil
}

// applyChunk bounds how many recovered pairs or ops apply per replay
// transaction, keeping undo logs and validation sets small.
const applyChunk = 256

// replay loads snapshots and applies the log (s.wal is still nil, so the
// replayed writes are not re-logged). Shards are independent transactional
// memories with independent snapshot files, so both steps run one goroutine
// per shard; the only sequential step is the single pass that partitions the
// log's ops by shard.
func (s *Store) replay(m *wal.Manager, scan *wal.Scan) (*RecoveryStats, error) {
	nshards := len(s.shards)
	stats := &RecoveryStats{TornTail: scan.TornTail, LastLSN: scan.LastLSN}
	snapLSN := make([]uint64, nshards)
	snapPairs := make([]uint64, nshards)
	err := s.eachShard(func(sid int) error {
		var batch [][2][]byte
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			b := batch
			batch = batch[:0]
			return s.runSingle(nil, engine.RunOptions{}, sid, false, nil, func(t *Tx) error {
				for _, kv := range b {
					t.Set(kv[0], kv[1])
				}
				return nil
			})
		}
		covered, pairs, ok, err := wal.LoadSnapshot(m.FS(), wal.ShardDir(m.Dir(), sid), func(k, v []byte) error {
			// The emit slices alias the snapshot file buffer; Set copies
			// them into engine records, but the batch must copy too
			// because the flush runs after emit returns.
			batch = append(batch, [2][]byte{append([]byte(nil), k...), append([]byte(nil), v...)})
			if len(batch) >= applyChunk {
				return flush()
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("kv: shard %d snapshot load: %w", sid, err)
		}
		if err := flush(); err != nil {
			return err
		}
		if ok {
			snapLSN[sid] = covered
			snapPairs[sid] = pairs
			s.shards[sid].snapLSN = covered
			s.shards[sid].coveredLSN = covered
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for sid := range s.shards {
		stats.SnapshotPairs += snapPairs[sid]
		stats.LastLSN = max(stats.LastLSN, snapLSN[sid])
	}

	// Partition the log, in LSN order, into each shard's op suffix past its
	// own snapshot. The ops alias the scan's segment buffers, which outlive
	// the apply below; Set copies them into engine records.
	apply := make([][]wal.Op, nshards)
	for _, rec := range scan.Records {
		replayed := false
		for _, op := range rec.Ops {
			sid := s.KeyShard(op.Key)
			s.shards[sid].lastLSN.Store(rec.LSN)
			if rec.LSN > snapLSN[sid] {
				apply[sid] = append(apply[sid], op)
				replayed = true
			}
		}
		if replayed {
			stats.Records++
		}
	}
	err = s.eachShard(func(sid int) error {
		ops := apply[sid]
		for start := 0; start < len(ops); start += applyChunk {
			chunk := ops[start:min(start+applyChunk, len(ops))]
			err := s.runSingle(nil, engine.RunOptions{}, sid, false, nil, func(t *Tx) error {
				for _, op := range chunk {
					if op.Del {
						t.Delete(op.Key)
					} else {
						t.Set(op.Key, op.Val)
					}
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("kv: shard %d replay: %w", sid, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// eachShard runs fn for every shard on its own goroutine and joins their
// errors.
func (s *Store) eachShard(fn func(sid int) error) error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for sid := range s.shards {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			errs[sid] = fn(sid)
		}(sid)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// WAL returns the attached wal manager (nil for a store built with New). The
// server registers it as a metric source.
func (s *Store) WAL() *wal.Manager { return s.wal }

// checkpointLoop writes periodic snapshot checkpoints until Close.
func (s *Store) checkpointLoop(every time.Duration) {
	defer s.walWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.walStop:
			return
		case <-t.C:
			_ = s.Checkpoint()
		}
	}
}

// snapshotAttempts bounds the optimistic read-only full-scan tries before a
// checkpoint falls back to holding the shard gate exclusively. The scan
// reads every bucket header, so any concurrent commit on the shard dooms it;
// under sustained write load the optimistic path may never win.
const snapshotAttempts = 4

// Checkpoint writes a snapshot checkpoint for every shard, then truncates the
// log segments every shard's snapshot covers. The first error is returned but
// does not stop the remaining shards. A shard whose checkpoint failed pins
// the log at its last successful checkpoint's coverage.
func (s *Store) Checkpoint() error {
	if s.wal == nil {
		return errors.New("kv: store has no WAL attached")
	}
	var firstErr error
	low := uint64(math.MaxUint64)
	for sid := range s.shards {
		cov, err := s.checkpointShard(sid)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		low = min(low, cov)
	}
	if err := s.wal.Log().Truncate(low); err != nil && firstErr == nil {
		firstErr = err
	}
	// A checkpoint that ran out of disk is the same full device the WAL is
	// about to hit; degrade now rather than after a commit diverges.
	s.noteWALErr(firstErr)
	return firstErr
}

// checkpointShard writes one shard's checkpoint: incremental (dirty keys
// merged into the previous snapshot) when the store was opened with
// IncrementalSnapshots and the dirty set is trustworthy, a full scan
// otherwise — including every s.walFullN-th checkpoint (fullSnapshotCadence).
// It returns the LSN through which the shard's durable snapshot now covers
// it: the snapshot's own LSN, or — for an idle shard, one with no record since
// its durable snapshot, which is left alone — the log's current appended LSN,
// so an idle shard never pins truncation. A failed checkpoint returns the last
// successful one's coverage: whatever it wrote may not be durable.
func (s *Store) checkpointShard(sid int) (cov uint64, err error) {
	sh := &s.shards[sid]
	sh.cpmu.Lock()
	defer sh.cpmu.Unlock()
	defer func() {
		if err != nil {
			cov = sh.coveredLSN
		} else {
			sh.coveredLSN = cov
		}
	}()

	// Take the dirty set atomically with the covered LSN, under the same
	// locks every LSN reservation for this shard runs under (shared gate + wmu
	// covers single-shard commits; the RLock excludes cross-shard ones). Any
	// record with LSN <= covered touching the shard therefore either predates
	// a previous take (its key is in an already-written snapshot) or is in
	// this taken set, and lastLSN names the newest of them; keys dirtied after
	// the take stay in sh.dirty for the next checkpoint. covered is fixed
	// before any state is read: the snapshot is then a superset of records <=
	// covered, and replaying the (covered, tail] suffix over it is idempotent
	// because effects are absolute.
	sh.xmu.RLock()
	sh.wmu.Lock()
	sh.dmu.Lock()
	covered := s.wal.Log().AppendedLSN()
	last := sh.lastLSN.Load()
	taken := sh.dirty
	takenOver := sh.dirtyOver
	sh.dirty = nil
	sh.dirtyOver = false
	sh.dmu.Unlock()
	sh.wmu.Unlock()
	sh.xmu.RUnlock()

	// Idle only if the newest snapshot on disk is the durable one: a snapshot
	// the scrubber quarantined, or one a failed checkpoint renamed into place
	// without its directory fsync, must be rewritten.
	if len(taken) == 0 && !takenOver {
		if snap, ok := s.wal.LatestSnapshotLSN(sid); ok && snap == sh.snapLSN && snap >= last {
			return covered, nil
		}
	}

	if s.walIncr && !takenOver && sh.snapSince+1 < s.walFullN {
		// The previous snapshot minus the dirty keys, plus the dirty keys'
		// live values (dirty keys since deleted are dropped).
		pairs, err := s.collectDirtyPairs(sid, taken)
		if err == nil {
			err = s.writeCheckpoint(sid, covered, pairs, func(key []byte) bool {
				_, isDirty := taken[string(key)]
				return isDirty
			})
		}
		if err == nil {
			sh.snapSince++
			sh.snapLSN = covered
			return covered, nil
		}
		if !errors.Is(err, wal.ErrNoPrevSnapshot) {
			sh.mergeDirtyBack(taken, takenOver)
			return 0, err
		}
		// No previous snapshot to merge into — fall through to a full scan.
	}
	pairs, err := s.collectShardPairs(sid)
	if err == nil {
		err = s.writeCheckpoint(sid, covered, pairs, nil)
	}
	if err != nil {
		// The full scan would have covered everything the taken set named;
		// now that it failed, those keys must survive for the next attempt.
		sh.mergeDirtyBack(taken, takenOver)
		return 0, err
	}
	sh.snapSince = 0
	sh.snapLSN = covered
	return covered, nil
}

// writeCheckpoint is the tail both collectors feed: pass the barrier, then
// write pairs as shard sid's snapshot at covered (merged into the previous
// snapshot when skip is non-nil; see wal.Manager.Checkpoint). The pairs were
// read after covered was fixed and may reflect later records — those stay in
// the log and replay idempotently.
func (s *Store) writeCheckpoint(sid int, covered uint64, pairs [][2][]byte, skip func(key []byte) bool) error {
	if err := s.checkpointBarrier(sid); err != nil {
		return err
	}
	return s.wal.Checkpoint(sid, covered, skip, func(emit func(k, v []byte) error) error {
		for _, kv := range pairs {
			if err := emit(kv[0], kv[1]); err != nil {
				return err
			}
		}
		return nil
	})
}

// checkpointBarrier runs after a checkpoint has read shard sid's state and
// before its snapshot may land: it makes the log durable through every record
// the reads could have observed.
//
// The reads can observe effects of records appended *after* covered — and,
// because engines publish before they append, even effects whose append was
// still in flight when the reads validated. Before the snapshot becomes
// durable the log must be durable through every such record, or a crash would
// recover snapshot state (e.g. one shard's half of a cross-shard TRANSFER)
// with no durable record backing it. The barrier: every publish+append on the
// shard runs either under its exclusive gate (cross-shard) or under wmu while
// holding the gate shared (single-shard), so briefly holding the gate shared
// plus wmu waits out any section whose publish the reads observed; the
// AppendedLSN read under both locks then bounds all observed effects, and
// syncing through it before the snapshot's rename restores the recovery
// invariant.
func (s *Store) checkpointBarrier(sid int) error {
	sh := &s.shards[sid]
	l := s.wal.Log()
	sh.xmu.RLock()
	sh.wmu.Lock()
	observed := l.AppendedLSN()
	sh.wmu.Unlock()
	sh.xmu.RUnlock()
	return l.Sync(observed)
}

// collectShard runs a read-only collection body on one shard: a few
// optimistic attempts first, then one attempt under the shard's exclusive
// gate (which no commit can interleave with). The body must tolerate retry.
func (s *Store) collectShard(sid int, body func(t *Tx) error) error {
	err := s.runSingle(nil, engine.RunOptions{MaxAttempts: snapshotAttempts}, sid, true, nil, body)
	if err == nil {
		return nil
	}
	var te *engine.TimeoutError
	if !errors.As(err, &te) {
		return err
	}
	sh := &s.shards[sid]
	sh.xmu.Lock()
	defer sh.xmu.Unlock()
	return s.runSingle(nil, engine.RunOptions{MaxAttempts: 2}, sid, true, nil, body)
}

// collectShardPairs snapshots one shard's full contents.
func (s *Store) collectShardPairs(sid int) ([][2][]byte, error) {
	var pairs [][2][]byte
	err := s.collectShard(sid, func(t *Tx) error {
		pairs = pairs[:0]
		t.scanShard(sid, func(k, v []byte) {
			pairs = append(pairs, [2][]byte{k, v})
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pairs, nil
}

// collectDirtyPairs reads the live value of each taken dirty key in chunked
// read-only transactions. A key that was deleted since it was dirtied simply
// yields no pair — the merge omits it, which is exactly the delete's effect.
// Returned key and value slices are engine records, stable after commit.
func (s *Store) collectDirtyPairs(sid int, dirty map[string]struct{}) ([][2][]byte, error) {
	keys := make([][]byte, 0, len(dirty))
	for k := range dirty {
		keys = append(keys, []byte(k))
	}
	pairs := make([][2][]byte, 0, len(keys))
	for start := 0; start < len(keys); start += applyChunk {
		end := start + applyChunk
		if end > len(keys) {
			end = len(keys)
		}
		chunk := keys[start:end]
		base := len(pairs)
		err := s.collectShard(sid, func(t *Tx) error {
			pairs = pairs[:base]
			for _, k := range chunk {
				if v, ok := t.Get(k); ok {
					pairs = append(pairs, [2][]byte{k, v})
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return pairs, nil
}

// Close stops the checkpointer and flushes, fsyncs, and closes the log. A store built with New closes trivially. The store must be quiescent
// (no in-flight transactions) when Close is called.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	if s.walStop != nil {
		close(s.walStop)
	}
	// Nil the field only after the checkpointer is gone: it still selects on
	// walStop until it observes the close.
	s.walWG.Wait()
	s.walStop = nil
	return s.wal.Close()
}
