package kv

import (
	"errors"
	"fmt"
	"sort"
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
	// snapshots (and truncating covered log segments) on this period.
	// 0 disables periodic checkpoints; Checkpoint can still be called.
	SnapshotEvery time.Duration
	// IncrementalSnapshots makes checkpoints serialize only keys dirtied
	// since the shard's last snapshot, merging them into the previous
	// snapshot file; a full-scan snapshot is still taken periodically (and
	// whenever the dirty set overflows or no previous snapshot exists).
	IncrementalSnapshots bool
	// ScrubInterval starts the WAL's background scrubber, re-verifying sealed
	// segments and snapshots on this period and quarantining anything corrupt.
	// 0 disables scrubbing.
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
	// Records is the number of log records applied (own-log replay).
	Records uint64
	// Rescued is the number of cross-shard records a shard recovered from a
	// peer's log because its own copy was lost in the crash.
	Rescued uint64
	// TornTails is the number of shards whose last segment ended in a torn
	// record (truncated during the scan).
	TornTails int
	// LastLSN is each shard's highest recovered LSN.
	LastLSN []uint64
}

// walEff is one captured write effect: the absolute set/delete the operation
// performed, tagged with the shard the key hashes to. Effects are recorded
// only when a WAL is attached and encode into log records at commit.
type walEff struct {
	sid int
	del bool
	key []byte
	val []byte
}

// walSync names one (shard, LSN) the transaction must make durable before
// the caller is acknowledged.
type walSync struct {
	sid int
	lsn uint64
}

// walScratch pools a transaction's WAL slices (effect capture, encode
// scratch, durability waits, participant table) so the durable hot path does
// not allocate them per commit. Borrowed by the run loops when the store has
// a WAL and the transaction writes; released after the durability wait is
// either done or handed to a SyncBatch.
type walScratch struct {
	effs        []walEff
	encOps      []wal.Op
	syncs       []walSync
	partScratch []wal.Part
}

var walScratchPool = sync.Pool{New: func() any { return new(walScratch) }}

func (t *Tx) borrowWALScratch() *walScratch {
	ws := walScratchPool.Get().(*walScratch)
	t.effs = ws.effs[:0]
	t.encOps = ws.encOps[:0]
	t.syncs = ws.syncs[:0]
	t.partScratch = ws.partScratch[:0]
	return ws
}

// release returns the scratch to the pool. The effect and encode slices are
// cleared first so pooled entries do not pin caller key/value buffers.
func (ws *walScratch) release(t *Tx) {
	clear(t.effs[:cap(t.effs)])
	clear(t.encOps[:cap(t.encOps)])
	ws.effs = t.effs[:0]
	ws.encOps = t.encOps[:0]
	ws.syncs = t.syncs[:0]
	ws.partScratch = t.partScratch[:0]
	t.effs, t.encOps, t.syncs, t.partScratch = nil, nil, nil, nil
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

// encodeEffs renders the captured effects for one shard (or all, sid < 0)
// into the reusable wal.Op scratch.
func (t *Tx) encodeEffs(sid int) []wal.Op {
	t.encOps = t.encOps[:0]
	for _, e := range t.effs {
		if sid >= 0 && e.sid != sid {
			continue
		}
		t.encOps = append(t.encOps, wal.Op{Del: e.del, Key: e.key, Val: e.val})
	}
	return t.encOps
}

// durableCommitSingle is the commit hook for single-shard writers: it couples
// the engine commit and the WAL LSN reservation under the shard's wmu, so the
// log's record order matches the engine's commit order. The record is encoded
// into a pooled buffer *before* wmu is taken, and the append only reserves an
// LSN and enqueues for the shard's appender goroutine — the critical section
// never waits on encoding, checksumming, or file I/O. The caller syncs after
// the gate is released. A commit-entry chaos panic unwinds through here with
// wmu released by the defer.
func (s *Store) durableCommitSingle(sid int, t *Tx, tx engine.Txn) error {
	if len(t.effs) == 0 {
		return tx.Commit()
	}
	// Health gate before the engine commit: a write the WAL can no longer
	// log must be rejected while nothing has published, so memory and log
	// never diverge and the client gets a clean, retriable refusal. The
	// attempt is abandoned, not retried — abort the open transaction.
	if herr := s.walHealthErr(sid); herr != nil {
		tx.Abort()
		return herr
	}
	enc := wal.EncodeCommit(t.encodeEffs(sid))
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
	lsn, err := s.wal.Log(sid).Append(enc)
	if err != nil {
		// The engine commit is already published; a wedged log cannot undo
		// it. Surface the error — the client must not treat the write as
		// durable — and leave the sticky log failure to fail fast from here.
		s.noteWALErr(err)
		return err
	}
	t.syncs = append(t.syncs, walSync{sid: sid, lsn: lsn})
	return nil
}

// dirtyLimit caps a shard's dirty-key set for incremental checkpoints. Past
// it the set is dropped and the next checkpoint falls back to a full scan —
// tracking more keys than a scan would serialize is pure overhead.
const dirtyLimit = 1 << 17

// markDirty records t's effects on shard sid into the shard's dirty set.
// Must be called inside the same critical section that reserves the commit's
// LSN (under wmu for single-shard commits, under the exclusive gate for
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

// walAppendCross logs a committed cross-shard transaction. Called from
// crossAttempt after the publish loop, still under the exclusive gates —
// which also serialize these appends against single-shard writers (they hold
// the gate shared around their whole attempt), so no wmu is needed.
//
// A transaction touching one shard gets a plain commit record. Otherwise the
// full op list plus a participant table of reserved (shard, LSN) pairs is
// appended identically to every participant's log: recovery applies the
// transaction if any participant's durable copy survives, so a crash between
// the appends cannot tear it.
func (t *Tx) walAppendCross() error {
	s := t.s
	t.partScratch = t.partScratch[:0]
	for _, e := range t.effs {
		found := false
		for _, p := range t.partScratch {
			if p.Shard == e.sid {
				found = true
				break
			}
		}
		if !found {
			t.partScratch = append(t.partScratch, wal.Part{Shard: e.sid})
		}
	}
	// The exclusive gates are the cross-shard LSN-reservation critical
	// section, so marking here satisfies markDirty's contract.
	for _, p := range t.partScratch {
		s.markDirty(p.Shard, t)
	}
	if len(t.partScratch) == 1 {
		sid := t.partScratch[0].Shard
		lsn, err := s.wal.Log(sid).AppendCommit(t.encodeEffs(sid))
		if err != nil {
			s.noteWALErr(err)
			return err
		}
		t.syncs = append(t.syncs, walSync{sid: sid, lsn: lsn})
		return nil
	}
	sort.Slice(t.partScratch, func(i, j int) bool { return t.partScratch[i].Shard < t.partScratch[j].Shard })
	xid := s.wal.NextXID()
	for i := range t.partScratch {
		t.partScratch[i].LSN = s.wal.Log(t.partScratch[i].Shard).NextLSN()
	}
	// Register before the first append: once a copy exists a checkpointer
	// could otherwise cover and truncate it while a peer's copy is still
	// buffered, losing the record a rescue would need.
	parts := append([]wal.Part(nil), t.partScratch...)
	s.registerInflight(xid, parts)
	t.xid = xid
	ops := t.encodeEffs(-1)
	var firstErr error
	for _, p := range parts {
		if err := s.wal.Log(p.Shard).AppendXCommit(p.LSN, xid, parts, ops); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		t.syncs = append(t.syncs, walSync{sid: p.Shard, lsn: p.LSN})
	}
	s.noteWALErr(firstErr)
	return firstErr
}

// awaitDurable is the store's one durability wait. It posts a request to every
// (shard, LSN) pair's log before waiting on any, then waits for each in turn
// on the calling goroutine: the shards' appenders run their group commits in
// parallel, so the wait costs the slowest shard's cycle rather than the sum.
// Runs after the gates are released, so a parked wait never holds up other
// transactions' commits. The first error wins.
//
// On success it retires the in-flight registrations xids (0 = a commit that
// registered nothing). A failed wait means some participant's xcommit copy
// may never become durable; leaving the registrations pinned keeps
// minInflightLSN clamping checkpoint truncation on the healthy peers, so the
// surviving durable copies a post-crash rescue needs cannot be deleted. The
// log is sticky-wedged, so the pin is permanent — by design.
func (s *Store) awaitDurable(syncs []walSync, xids ...uint64) error {
	for _, ws := range syncs {
		s.wal.Log(ws.sid).PostSync(ws.lsn)
	}
	var first error
	for _, ws := range syncs {
		if err := s.wal.Log(ws.sid).WaitSync(ws.lsn); err != nil && first == nil {
			first = err
		}
	}
	s.noteWALErr(first)
	if first == nil {
		for _, xid := range xids {
			if xid != 0 {
				s.doneInflight(xid)
			}
		}
	}
	return first
}

// SyncBatch accumulates the durability waits of a pipelined window. Each
// deferred commit notes its appended (shard, LSN) pairs here instead of
// blocking in awaitDurable; Wait then syncs every touched shard's high-water
// LSN once. A window of N same-shard writes pays one group-commit wait
// instead of N sequential ones, and — because the issuing goroutine keeps
// executing instead of parking per command — concurrent windows stack far
// deeper groups onto each fsync.
//
// The durability contract is unchanged: the owner must call Wait (and see it
// succeed) before releasing any acknowledgment for the writes it noted. A
// SyncBatch is not safe for concurrent use.
type SyncBatch struct {
	s       *Store
	lsn     []uint64 // per-shard high-water LSN awaiting sync (0 = none)
	xids    []uint64 // cross-shard commits to retire once durable
	scratch []walSync
	dirty   bool
}

// NewSyncBatch returns a deferred-sync collector for the store, or nil when
// the store has no WAL (every method on a nil SyncBatch is a no-op, so
// callers can hold one unconditionally).
func (s *Store) NewSyncBatch() *SyncBatch {
	if s.wal == nil {
		return nil
	}
	return &SyncBatch{s: s, lsn: make([]uint64, len(s.shards))}
}

// note absorbs t's pending syncs and in-flight registration instead of
// blocking on them. Called from the run epilogue after the gates are
// released.
func (b *SyncBatch) note(t *Tx) {
	for _, ws := range t.syncs {
		if ws.lsn > b.lsn[ws.sid] {
			b.lsn[ws.sid] = ws.lsn
		}
	}
	if len(t.syncs) > 0 || t.xid != 0 {
		b.dirty = true
	}
	t.syncs = t.syncs[:0]
	if t.xid != 0 {
		b.xids = append(b.xids, t.xid)
		t.xid = 0
	}
}

// Pending reports whether the batch holds records not yet known durable.
func (b *SyncBatch) Pending() bool { return b != nil && b.dirty }

// Wait blocks until every record noted since the last Wait is durable, then
// (on success) retires the deferred in-flight registrations — see
// awaitDurable. A failed Wait means the acknowledgments gated on it must not
// be released: the log is wedged.
func (b *SyncBatch) Wait() error {
	if b == nil || !b.dirty {
		return nil
	}
	b.scratch = b.scratch[:0]
	for sid, lsn := range b.lsn {
		if lsn != 0 {
			b.scratch = append(b.scratch, walSync{sid: sid, lsn: lsn})
		}
	}
	err := b.s.awaitDurable(b.scratch, b.xids...)
	b.xids = b.xids[:0]
	for i := range b.lsn {
		b.lsn[i] = 0
	}
	b.dirty = false
	return err
}

// registerInflight records a cross-shard transaction whose log copies are not
// all durable yet; minInflightLSN lets the checkpointer avoid truncating a
// copy a peer might still need for a rescue.
func (s *Store) registerInflight(xid uint64, parts []wal.Part) {
	s.wimu.Lock()
	s.winflight[xid] = parts
	s.wimu.Unlock()
}

func (s *Store) doneInflight(xid uint64) {
	s.wimu.Lock()
	delete(s.winflight, xid)
	s.wimu.Unlock()
}

// minInflightLSN returns the lowest LSN on shard sid belonging to an
// in-flight cross-shard transaction, or 0 when none.
func (s *Store) minInflightLSN(sid int) uint64 {
	s.wimu.Lock()
	defer s.wimu.Unlock()
	min := uint64(0)
	for _, parts := range s.winflight {
		for _, p := range parts {
			if p.Shard == sid && (min == 0 || p.LSN < min) {
				min = p.LSN
			}
		}
	}
	return min
}

// Open builds a store like New, then recovers it from the WAL directory —
// newest valid snapshot first, then the log suffix, rescuing cross-shard
// records whose local copy was lost — and attaches the log so subsequent
// writes are durable. The returned stats describe what replay found.
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
	m, scans, err := wal.Recover(opts, len(s.shards))
	if err != nil {
		return nil, nil, err
	}
	stats, rescues, nextLSN, maxXID, err := s.replay(m, scans)
	if err != nil {
		return nil, nil, err
	}
	if err := m.Start(nextLSN, maxXID); err != nil {
		return nil, nil, err
	}
	// Persist the rescued records into their home logs before serving: a
	// second crash must not depend on the peer's copy again (the peer may
	// checkpoint and truncate it at any time once we are live).
	for sid, recs := range rescues {
		for _, rec := range recs {
			if err := m.Log(sid).AppendRecord(rec); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := m.Flush(); err != nil {
		return nil, nil, err
	}
	m.NoteReplay(stats.Records, stats.Rescued, stats.SnapshotPairs)

	s.wal = m
	s.winflight = make(map[uint64][]wal.Part)
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

// applyChunk bounds how many recovered pairs or records apply per replay
// transaction, keeping undo logs and validation sets small.
const applyChunk = 256

// replay loads snapshots and applies log records (s.wal is still nil, so the
// replayed writes are not re-logged). It returns the rescued records each
// shard must re-append, each shard's next LSN, and the highest xid seen.
func (s *Store) replay(m *wal.Manager, scans []*wal.ShardScan) (*RecoveryStats, map[int][]wal.Record, []uint64, uint64, error) {
	nshards := len(s.shards)
	stats := &RecoveryStats{LastLSN: make([]uint64, nshards)}
	snapLSN := make([]uint64, nshards)

	// Snapshots first: they are the base state the log suffix replays over.
	// Shards are independent transactional memories and their snapshot files
	// are independent, so load them in parallel — boot time is bounded by the
	// largest shard's snapshot, not the sum.
	snapPairs := make([]uint64, nshards)
	loadErrs := make([]error, nshards)
	var wg sync.WaitGroup
	for sid := 0; sid < nshards; sid++ {
		if scans[sid].TornTail {
			stats.TornTails++
		}
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
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
				loadErrs[sid] = fmt.Errorf("kv: shard %d snapshot load: %w", sid, err)
				return
			}
			if err := flush(); err != nil {
				loadErrs[sid] = err
				return
			}
			if ok {
				snapLSN[sid] = covered
				snapPairs[sid] = pairs
			}
		}(sid)
	}
	wg.Wait()
	for _, err := range loadErrs {
		if err != nil {
			return nil, nil, nil, 0, err
		}
	}
	for _, p := range snapPairs {
		stats.SnapshotPairs += p
	}

	// Index the cross-shard records present in any shard's durable log, so
	// lost local copies can be rescued from a peer.
	type xrec struct {
		rec  wal.Record
		have map[int]bool
	}
	xrecs := map[uint64]*xrec{}
	var maxXID uint64
	for sid := 0; sid < nshards; sid++ {
		for _, rec := range scans[sid].Records {
			if rec.Kind != wal.KindXCommit {
				continue
			}
			x := xrecs[rec.XID]
			if x == nil {
				x = &xrec{rec: rec, have: map[int]bool{}}
				xrecs[rec.XID] = x
			}
			x.have[sid] = true
			if rec.XID > maxXID {
				maxXID = rec.XID
			}
		}
	}

	// Build each shard's apply list: its own records past the snapshot, plus
	// rescued cross-shard records (a participant LSN past the shard's
	// snapshot with no local copy — the local tail tore before the crash).
	type applyItem struct {
		lsn uint64
		ops []wal.Op
	}
	apply := make([][]applyItem, nshards)
	rescues := map[int][]wal.Record{}
	for sid := 0; sid < nshards; sid++ {
		for _, rec := range scans[sid].Records {
			if rec.LSN <= snapLSN[sid] {
				continue
			}
			apply[sid] = append(apply[sid], applyItem{lsn: rec.LSN, ops: s.shardOps(rec.Ops, sid)})
			stats.Records++
		}
	}
	for _, x := range xrecs {
		for _, p := range x.rec.Parts {
			if p.Shard >= nshards || x.have[p.Shard] || p.LSN <= snapLSN[p.Shard] {
				continue
			}
			apply[p.Shard] = append(apply[p.Shard], applyItem{lsn: p.LSN, ops: s.shardOps(x.rec.Ops, p.Shard)})
			// The rescued copy is stamped with this shard's LSN when
			// re-appended to its own log.
			rec := x.rec
			rec.LSN = p.LSN
			rescues[p.Shard] = append(rescues[p.Shard], rec)
			stats.Rescued++
		}
	}

	// Apply each shard's sorted record suffix in parallel — the rescue index
	// above is the only cross-shard join, and it is already built. Each
	// goroutine touches only its own shard's engine and its own slots of the
	// result slices.
	nextLSN := make([]uint64, nshards)
	applyErrs := make([]error, nshards)
	for sid := 0; sid < nshards; sid++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			items := apply[sid]
			sort.Slice(items, func(i, j int) bool { return items[i].lsn < items[j].lsn })
			for start := 0; start < len(items); start += applyChunk {
				end := start + applyChunk
				if end > len(items) {
					end = len(items)
				}
				chunk := items[start:end]
				err := s.runSingle(nil, engine.RunOptions{}, sid, false, nil, func(t *Tx) error {
					for _, it := range chunk {
						for _, op := range it.ops {
							if op.Del {
								t.Delete(op.Key)
							} else {
								t.Set(op.Key, op.Val)
							}
						}
					}
					return nil
				})
				if err != nil {
					applyErrs[sid] = fmt.Errorf("kv: shard %d replay: %w", sid, err)
					return
				}
			}
			// The log reopens one past the shard's own durable tail — NOT past
			// the rescued LSNs, which are re-appended through the reopened log
			// (their LSNs always exceed the tail: durability is prefix-shaped,
			// so a lost local copy means everything after it was lost too).
			last := snapLSN[sid]
			if scans[sid].LastLSN > last {
				last = scans[sid].LastLSN
			}
			stats.LastLSN[sid] = last
			nextLSN[sid] = last + 1
		}(sid)
	}
	wg.Wait()
	for _, err := range applyErrs {
		if err != nil {
			return nil, nil, nil, 0, err
		}
	}
	for sid := range rescues {
		recs := rescues[sid]
		sort.Slice(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	}
	return stats, rescues, nextLSN, maxXID, nil
}

// shardOps filters a record's op list to the ops whose keys hash to sid,
// copying the slices out of the scan buffer.
func (s *Store) shardOps(ops []wal.Op, sid int) []wal.Op {
	var out []wal.Op
	for _, op := range ops {
		if s.KeyShard(op.Key) != sid {
			continue
		}
		cp := wal.Op{Del: op.Del, Key: append([]byte(nil), op.Key...)}
		if !op.Del {
			cp.Val = append([]byte(nil), op.Val...)
		}
		out = append(out, cp)
	}
	return out
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

// Checkpoint writes a snapshot checkpoint for every shard and truncates the
// log segments it covers. The first error is returned but does not stop the
// remaining shards; a chaos-skipped shard (wal.ErrSnapshotSkipped) just waits
// for the next period.
func (s *Store) Checkpoint() error {
	if s.wal == nil {
		return errors.New("kv: store has no WAL attached")
	}
	var firstErr error
	for sid := range s.shards {
		err := s.checkpointShard(sid)
		if err != nil && !errors.Is(err, wal.ErrSnapshotSkipped) && firstErr == nil {
			firstErr = err
		}
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
// A shard with nothing appended since the snapshot already on disk is left
// alone.
func (s *Store) checkpointShard(sid int) error {
	sh := &s.shards[sid]
	sh.cpmu.Lock()
	defer sh.cpmu.Unlock()

	// Take the dirty set atomically with the covered LSN, under the same
	// locks every LSN reservation runs under (shared gate + wmu covers
	// single-shard commits; the RLock excludes cross-shard ones). Any record
	// with LSN <= covered therefore either predates a previous take (its key
	// is in an already-written snapshot) or is in this taken set; keys
	// dirtied after the take stay in sh.dirty for the next checkpoint.
	// covered is fixed before any state is read: the snapshot is then a
	// superset of records <= covered, and replaying the (covered, tail] suffix
	// over it is idempotent because effects are absolute.
	sh.xmu.RLock()
	sh.wmu.Lock()
	sh.dmu.Lock()
	covered := s.wal.Log(sid).AppendedLSN()
	taken := sh.dirty
	takenOver := sh.dirtyOver
	sh.dirty = nil
	sh.dirtyOver = false
	sh.dmu.Unlock()
	sh.wmu.Unlock()
	sh.xmu.RUnlock()

	// The snapshot directory, not a remembered LSN, is the authority: a
	// snapshot the scrubber quarantined must be rewritten.
	if len(taken) == 0 && !takenOver {
		if snap, ok := s.wal.LatestSnapshotLSN(sid); ok && snap == covered {
			return nil
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
			return nil
		}
		if !errors.Is(err, wal.ErrNoPrevSnapshot) {
			sh.mergeDirtyBack(taken, takenOver)
			return err
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
		return err
	}
	sh.snapSince = 0
	return nil
}

// writeCheckpoint is the tail both collectors feed: pass the barrier, then
// write pairs as shard sid's snapshot at covered (merged into the previous
// snapshot when skip is non-nil; see wal.Manager.Checkpoint) and truncate the
// log. The pairs were read after covered was fixed and may reflect later
// records — those stay in the log and replay idempotently.
func (s *Store) writeCheckpoint(sid int, covered uint64, pairs [][2][]byte, skip func(key []byte) bool) error {
	truncTo, err := s.checkpointBarrier(sid, covered)
	if err != nil {
		return err
	}
	return s.wal.Checkpoint(sid, covered, truncTo, skip, func(emit func(k, v []byte) error) error {
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
// the reads could have observed, then returns how far the log may be
// truncated for a snapshot covering covered.
//
// The reads can observe effects of records appended *after* covered — and,
// because engines publish before they append, even effects whose append was
// still in flight when the reads validated. Before the snapshot becomes
// durable the log must be durable through every such record, or a crash would
// recover snapshot state (e.g. one shard's half of a cross-shard TRANSFER)
// with no durable record backing it anywhere. The barrier: every
// publish+append runs either under the shard's exclusive gate (cross-shard) or
// under wmu while holding the gate shared (single-shard), so briefly holding
// the gate shared plus wmu waits out any section whose publish the reads
// observed; the AppendedLSN read under both locks then bounds all observed
// effects, and syncing through it before the snapshot's rename restores the
// recovery invariant. The minInflightLSN clamp only protects truncation (a
// peer may still need this shard's copy of an in-flight cross-shard record
// for a rescue), not this.
func (s *Store) checkpointBarrier(sid int, covered uint64) (truncTo uint64, err error) {
	sh := &s.shards[sid]
	l := s.wal.Log(sid)
	sh.xmu.RLock()
	sh.wmu.Lock()
	observed := l.AppendedLSN()
	sh.wmu.Unlock()
	sh.xmu.RUnlock()
	if err := l.Sync(observed); err != nil {
		return 0, err
	}
	truncTo = covered
	if min := s.minInflightLSN(sid); min > 0 && min-1 < truncTo {
		truncTo = min - 1
	}
	return truncTo, nil
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

// Close stops the checkpointer and flushes, fsyncs, and closes every shard
// log. A store built with New closes trivially. The store must be quiescent
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
