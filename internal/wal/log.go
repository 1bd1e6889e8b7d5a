package wal

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memtx/internal/chaos"
	"memtx/internal/wal/walfs"
)

// Options configures a shard log (and, via the Manager, all of them).
type Options struct {
	// Dir is the WAL root; each shard logs under Dir/shard-NNNN/.
	Dir string
	// FsyncBatch is the target group-commit size: a group leader fsyncs as
	// soon as this many records are pending, or FsyncInterval elapses,
	// whichever is first. 1 fsyncs every commit; 0 disables fsync entirely
	// (records are still written, so a clean shutdown loses nothing, but a
	// crash can lose the OS-buffered tail).
	FsyncBatch int
	// FsyncInterval bounds how long a group leader waits for FsyncBatch
	// records to accumulate. 0 flushes immediately, so groups form only from
	// commits that arrive while a previous fsync is in flight.
	FsyncInterval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size.
	// 0 means the 64 MiB default.
	SegmentBytes int64
	// FS is the storage layer all WAL file I/O goes through. Nil selects the
	// OS passthrough; tests substitute walfs.Mem / walfs.Fault for crash-point
	// exploration and disk-fault injection.
	FS walfs.FS
	// ScrubInterval is how often the Manager's background scrubber verifies
	// sealed segments and snapshots (0 disables scrubbing).
	ScrubInterval time.Duration
}

const (
	defaultSegmentBytes = 64 << 20
	// appendQueueCap bounds the records reserved but not yet written per
	// shard; a full queue blocks the appending transaction (back-pressure).
	appendQueueCap = 1024
	// iovMax caps records per vectored write: linux guarantees IOV_MAX >= 1024.
	iovMax = 1024
)

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return defaultSegmentBytes
	}
	return o.SegmentBytes
}

func (o Options) fs() walfs.FS {
	if o.FS == nil {
		return walfs.OS()
	}
	return o.FS
}

const segSuffix = ".seg"

// segName returns the segment file name for a segment whose records all have
// LSN >= first.
func segName(first uint64) string {
	return fmt.Sprintf("%020d%s", first, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	s, ok := strings.CutSuffix(name, segSuffix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Log is one shard's write-ahead log: segmented files fed by an append
// pipeline, with leader-based group commit on top.
//
// An append only reserves the next LSN and enqueues a pre-encoded record
// under a short mutex; a dedicated appender goroutine drains the queue in LSN
// order, seals CRCs, and writes whole batches with one vectored write each.
// The appender owns all file I/O — segment writes,
// rotation, and fsyncs — so group-commit leaders post durability requests
// and wait instead of touching the file themselves. Commit critical sections
// therefore never wait on I/O; only Sync does.
type Log struct {
	dir   string
	opts  Options
	fs    walfs.FS
	shard int

	// mu guards the append state: LSNs, the queue, the rotation decision,
	// and the pipeline's request/progress fields.
	mu       sync.Mutex
	f        walfs.File
	segSize  int64
	nextLSN  uint64 // LSN the next append will take
	appended uint64 // last LSN handed out (0 = none yet)
	pending  int    // records appended but not yet covered by a flush/sync
	failed   error  // sticky first write/fsync error; the log is wedged after

	// Append pipeline state. The appender goroutine is the only writer of
	// written/fsynced and the only party doing file I/O. queueCap is
	// appendQueueCap; it is a field only so in-package tests can shrink it
	// (under mu, before appending) to force back-pressure.
	queueCap     int
	queue        []*Enc     // records reserved but not yet written, LSN order
	qspare       []*Enc     // double-buffer for queue swaps
	acond        *sync.Cond // appender wakeup: work queued, sync request, close
	pcond        *sync.Cond // sync waiters: written/fsynced/failed progressed
	spaceCond    *sync.Cond // enqueuers blocked on a full queue
	written      uint64     // last LSN written to the segment file
	fsynced      uint64     // last LSN covered by a real fsync
	unsynced     int        // records written but not yet covered by a sync
	syncReq      uint64     // highest LSN a leader asked to make durable
	syncForce    bool       // fsync even when FsyncBatch == 0 (Flush/Close)
	closing      bool
	vecs         [][]byte // appender's reusable writev buffer table
	appenderDone chan struct{}

	// batchFull is signalled (capacity 1, non-blocking) when pending reaches
	// FsyncBatch, so a waiting group leader can flush early.
	batchFull chan struct{}

	// Group-commit leadership. synced is the last durable LSN (last written
	// LSN when fsync is disabled).
	gmu     sync.Mutex
	gcond   *sync.Cond
	leading bool
	synced  atomic.Uint64

	appends       atomic.Uint64
	appendBytes   atomic.Uint64
	fsyncs        atomic.Uint64
	flushedRecs   atomic.Uint64
	maxGroup      atomic.Uint64
	rotations     atomic.Uint64
	truncatedSeg  atomic.Uint64
	writevCalls   atomic.Uint64
	writevRecs    atomic.Uint64
	writevMaxRecs atomic.Uint64
}

// openLog opens a shard log for appending. Recovery has already scanned the
// directory; nextLSN is one past the last durable (or rescued) record.
// Appends always go to a fresh segment — existing segments are never
// reopened for writing, which keeps the torn-tail rule simple (only the last
// segment may tear).
func openLog(dir string, shard int, nextLSN uint64, opts Options) (*Log, error) {
	fsys := opts.fs()
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	l := &Log{
		dir:       dir,
		opts:      opts,
		fs:        fsys,
		shard:     shard,
		nextLSN:   nextLSN,
		appended:  nextLSN - 1,
		written:   nextLSN - 1,
		fsynced:   nextLSN - 1,
		queueCap:  appendQueueCap,
		batchFull: make(chan struct{}, 1),
	}
	l.gcond = sync.NewCond(&l.gmu)
	l.synced.Store(nextLSN - 1)
	if err := l.openSegment(nextLSN); err != nil {
		return nil, err
	}
	l.acond = sync.NewCond(&l.mu)
	l.pcond = sync.NewCond(&l.mu)
	l.spaceCond = sync.NewCond(&l.mu)
	l.appenderDone = make(chan struct{})
	go l.appendLoop()
	return l, nil
}

// openSegment creates a new active segment whose records will all have
// LSN >= first. Called with l.mu held (or before the log is shared).
//
// A segment with this exact name can already exist: a shard that saw no
// appends since its last boot reopens at the same nextLSN. Segment names are
// first-LSN lower bounds and nextLSN is one past the highest scanned record,
// so the colliding segment cannot contain any record — it is safe to replace,
// but only when actually empty (anything else is a protocol violation).
func (l *Log) openSegment(first uint64) error {
	path := filepath.Join(l.dir, segName(first))
	f, err := l.fs.Create(path, true)
	if walfs.IsExist(err) {
		var size int64
		size, err = l.fs.Size(path)
		if err != nil {
			return err
		}
		if size != 0 {
			return fmt.Errorf("wal: segment %s already exists with %d bytes at next LSN %d", path, size, first)
		}
		f, err = l.fs.Create(path, false)
	}
	if err != nil {
		return err
	}
	// Make the segment's directory entry durable before any record lands in
	// it: an fsynced record in a file whose entry a crash can drop is not
	// durable at all.
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segSize = 0
	return nil
}

// NextLSN returns the LSN the next append will take. Cross-shard commits
// read this under the shard gates to reserve their participant LSNs.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// AppendedLSN returns the last LSN handed out (0 if none).
func (l *Log) AppendedLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// SyncedLSN returns the last durable LSN.
func (l *Log) SyncedLSN() uint64 { return l.synced.Load() }

// Wedged reports whether the log has hit a write or fsync error and is
// permanently rejecting appends and syncs.
func (l *Log) Wedged() bool { return l.stickyErr() != nil }

// Failed returns the sticky error that wedged the log, or nil.
func (l *Log) Failed() error { return l.stickyErr() }

// QueueDepth returns the number of records reserved but not yet written.
func (l *Log) QueueDepth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue)
}

// Append appends a pre-encoded record at the next LSN and returns it. The
// record is reserved and queued, not yet durable; call Sync(lsn) to wait for
// it. The log owns e afterwards.
func (l *Log) Append(e *Enc) (uint64, error) {
	return l.appendEnc(e, 0, false, false)
}

// AppendAt appends a pre-encoded record at the LSN previously reserved for
// this shard (cross-shard commits reserve via NextLSN under the shard gates,
// so the reservation cannot be stolen; a mismatch is a protocol bug).
func (l *Log) AppendAt(lsn uint64, e *Enc) error {
	_, err := l.appendEnc(e, lsn, true, false)
	return err
}

// appendEnc stamps the record's LSN and queues it for the appender. gapOK
// permits an explicit LSN past nextLSN (recovery re-appending rescued
// records).
func (l *Log) appendEnc(e *Enc, lsn uint64, explicit, gapOK bool) (uint64, error) {
	l.mu.Lock()
	for len(l.queue) >= l.queueCap && l.failed == nil {
		l.spaceCond.Wait()
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		e.Release()
		return 0, err
	}
	switch {
	case !explicit:
		lsn = l.nextLSN
	case gapOK:
		if lsn < l.nextLSN {
			next := l.nextLSN
			l.mu.Unlock()
			e.Release()
			return 0, fmt.Errorf("wal: shard %d append at lsn %d behind next %d", l.shard, lsn, next)
		}
	default:
		if lsn != l.nextLSN {
			next := l.nextLSN
			l.mu.Unlock()
			e.Release()
			panic(fmt.Sprintf("wal: shard %d xcommit at lsn %d but next is %d", l.shard, lsn, next))
		}
	}
	e.stamp(lsn)
	l.queue = append(l.queue, e)
	l.noteAppend(lsn, len(e.buf))
	l.acond.Signal()
	l.mu.Unlock()
	return lsn, nil
}

// AppendCommit appends a single-shard commit record and returns its LSN. The
// record is not yet durable; call Sync(lsn) to wait for it.
func (l *Log) AppendCommit(ops []Op) (uint64, error) {
	lsn, err := l.Append(EncodeCommit(ops))
	if err != nil {
		return 0, err
	}
	l.chaosAppend()
	return lsn, nil
}

// AppendXCommit appends a cross-shard commit record at the LSN previously
// reserved for this shard in parts.
func (l *Log) AppendXCommit(lsn, xid uint64, parts []Part, ops []Op) error {
	if err := l.AppendAt(lsn, EncodeXCommit(xid, parts, ops)); err != nil {
		return err
	}
	l.chaosAppend()
	return nil
}

// AppendRecord re-appends an already-decoded record at an explicit LSN —
// recovery uses it to persist rescued cross-shard records into the shard's
// own log. The LSN may leave a gap; it must not go backwards.
func (l *Log) AppendRecord(rec Record) error {
	var e *Enc
	switch rec.Kind {
	case KindCommit:
		e = EncodeCommit(rec.Ops)
	case KindXCommit:
		e = EncodeXCommit(rec.XID, rec.Parts, rec.Ops)
	default:
		return fmt.Errorf("wal: cannot re-append record kind %d", rec.Kind)
	}
	_, err := l.appendEnc(e, rec.LSN, true, true)
	return err
}

// noteAppend advances the LSN state after an append. Called with l.mu held.
func (l *Log) noteAppend(lsn uint64, nbytes int) {
	l.appended = lsn
	l.nextLSN = lsn + 1
	l.pending++
	l.appends.Add(1)
	l.appendBytes.Add(uint64(nbytes))
	if l.opts.FsyncBatch > 0 && l.pending >= l.opts.FsyncBatch {
		select {
		case l.batchFull <- struct{}{}:
		default:
		}
	}
}

func (l *Log) chaosAppend() {
	if in := chaos.Active(); in != nil {
		if _, delay := in.Decide(chaos.WALAppend); delay > 0 {
			time.Sleep(delay)
		}
	}
}

// Sync blocks until the record at lsn is durable (or written, when fsync is
// disabled). One waiter at a time leads: it forms a group — waiting up to
// FsyncInterval for FsyncBatch records — then posts a durability request to
// the appender and wakes everyone the sync covered.
func (l *Log) Sync(lsn uint64) error {
	for {
		if l.synced.Load() >= lsn {
			return l.stickyErr()
		}
		l.gmu.Lock()
		if l.synced.Load() >= lsn {
			l.gmu.Unlock()
			return l.stickyErr()
		}
		if l.leading {
			l.gcond.Wait()
			l.gmu.Unlock()
			continue
		}
		l.leading = true
		l.gmu.Unlock()

		l.waitGroup(lsn)
		err := l.syncPipelined(false)

		l.gmu.Lock()
		l.leading = false
		l.gcond.Broadcast()
		l.gmu.Unlock()
		if err != nil {
			return err
		}
	}
}

func (l *Log) stickyErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// waitGroup lets the group grow: return early once FsyncBatch records are
// pending, else after FsyncInterval.
func (l *Log) waitGroup(lsn uint64) {
	if l.opts.FsyncBatch <= 1 || l.opts.FsyncInterval <= 0 {
		return
	}
	l.mu.Lock()
	full := l.pending >= l.opts.FsyncBatch
	// Drain a stale signal from a previous group so it cannot cut this
	// group's wait short.
	select {
	case <-l.batchFull:
	default:
	}
	full = full || l.pending >= l.opts.FsyncBatch
	l.mu.Unlock()
	if full {
		return
	}
	timer := time.NewTimer(l.opts.FsyncInterval)
	defer timer.Stop()
	select {
	case <-l.batchFull:
	case <-timer.C:
	}
}

// syncPipelined posts a durability request to the appender and waits until it
// is satisfied. A plain request waits for synced to reach everything appended
// so far (which implies an fsync when fsync is enabled); a forced request
// (Flush/Close) additionally waits for a real fsync covering it, which
// matters when FsyncBatch is 0 and synced advances on write alone.
func (l *Log) syncPipelined(force bool) error {
	l.mu.Lock()
	target := l.appended
	if target > l.syncReq {
		l.syncReq = target
	}
	if force {
		l.syncForce = true
	}
	l.acond.Signal()
	for l.failed == nil && (l.synced.Load() < target || (force && l.fsynced < target)) {
		l.pcond.Wait()
	}
	err := l.failed
	l.mu.Unlock()
	return err
}

// workLocked reports whether the appender has anything to do. l.mu held.
func (l *Log) workLocked() bool {
	return l.failed != nil || l.closing || len(l.queue) > 0 || l.syncForce ||
		l.syncReq > l.synced.Load()
}

// appendLoop is the per-shard appender goroutine: it drains the queue in LSN
// order, writes each drained batch with vectored writes, and fsyncs when a
// group leader asked for durability. It owns all file I/O.
func (l *Log) appendLoop() {
	defer close(l.appenderDone)
	for {
		l.mu.Lock()
		for !l.workLocked() {
			l.acond.Wait()
		}
		if l.failed != nil {
			for i, e := range l.queue {
				e.Release()
				l.queue[i] = nil
			}
			l.queue = l.queue[:0]
			l.pcond.Broadcast()
			l.spaceCond.Broadcast()
			l.mu.Unlock()
			return
		}
		batch := l.queue
		l.queue = l.qspare[:0]
		l.qspare = batch
		req := l.syncReq
		force := l.syncForce
		l.syncForce = false
		done := l.closing && len(batch) == 0 && !force && req <= l.synced.Load()
		if len(batch) > 0 {
			l.spaceCond.Broadcast()
		}
		l.mu.Unlock()
		if done {
			return
		}

		if len(batch) > 0 {
			if err := l.writeBatch(batch); err != nil {
				l.fail(err)
				continue
			}
		}

		l.mu.Lock()
		written := l.written
		needFsync := force || (l.opts.FsyncBatch != 0 && req > l.synced.Load())
		f := l.f
		l.mu.Unlock()
		if needFsync && f != nil {
			if in := chaos.Active(); in != nil {
				if _, delay := in.Decide(chaos.WALFsync); delay > 0 {
					time.Sleep(delay)
				}
			}
			if err := f.Sync(); err != nil {
				l.fail(err)
				continue
			}
			l.fsyncs.Add(1)
		}
		if needFsync || l.opts.FsyncBatch == 0 {
			l.completeSync(written, needFsync)
		}
	}
}

// completeSync advances synced (and fsynced, after a real fsync) to written
// and wakes sync waiters. Appender only.
func (l *Log) completeSync(written uint64, fsynced bool) {
	l.mu.Lock()
	recs := l.unsynced
	l.unsynced = 0
	l.pending -= recs
	if fsynced && written > l.fsynced {
		l.fsynced = written
	}
	if written > l.synced.Load() {
		l.synced.Store(written)
	}
	l.pcond.Broadcast()
	l.mu.Unlock()
	if recs > 0 {
		l.flushedRecs.Add(uint64(recs))
		for {
			max := l.maxGroup.Load()
			if uint64(recs) <= max || l.maxGroup.CompareAndSwap(max, uint64(recs)) {
				break
			}
		}
	}
}

// writeBatch seals and writes a drained batch to the active segment — one
// vectored write per chunk of up to iovMax records — rotating at segment
// boundaries. Appender only, so file I/O never races.
func (l *Log) writeBatch(batch []*Enc) error {
	for _, e := range batch {
		e.seal()
	}
	segMax := l.opts.segmentBytes()
	i := 0
	for i < len(batch) {
		nbytes := 0
		n := 0
		for i+n < len(batch) && n < iovMax {
			sz := len(batch[i+n].buf)
			if n > 0 && l.segSize+int64(nbytes+sz) >= segMax {
				break
			}
			nbytes += sz
			n++
		}
		chunk := batch[i : i+n]
		if err := l.writeChunk(chunk); err != nil {
			return err
		}
		l.noteWritev(n)
		last := chunk[n-1].lsn()
		l.mu.Lock()
		l.segSize += int64(nbytes)
		l.written = last
		l.unsynced += n
		rotate := l.segSize >= segMax
		f := l.f
		l.mu.Unlock()
		if rotate {
			// last+1 (not nextLSN, which may be ahead of what is written) is
			// the correct first-LSN lower bound for the remaining records.
			if err := l.rotate(last+1, f); err != nil {
				return err
			}
		}
		i += n
	}
	for i, e := range batch {
		e.Release()
		batch[i] = nil
	}
	return nil
}

// noteWritev records one vectored write of n records.
func (l *Log) noteWritev(n int) {
	l.writevCalls.Add(1)
	l.writevRecs.Add(uint64(n))
	for {
		max := l.writevMaxRecs.Load()
		if uint64(n) <= max || l.writevMaxRecs.CompareAndSwap(max, uint64(n)) {
			break
		}
	}
}

// rotate fsyncs and closes the full segment, then opens a fresh one whose
// records will all have LSN >= next. The old-segment fsync before the new
// segment exists is what keeps durability prefix-shaped across files.
func (l *Log) rotate(next uint64, old walfs.File) error {
	if err := old.Sync(); err != nil {
		return err
	}
	if err := old.Close(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.openSegment(next); err != nil {
		return err
	}
	l.rotations.Add(1)
	return nil
}

func (l *Log) fail(err error) error {
	l.mu.Lock()
	if l.failed == nil {
		l.failed = fmt.Errorf("wal: shard %d log failed: %w", l.shard, err)
	}
	err = l.failed
	// Wake everyone parked on pipeline conditions so they observe the sticky
	// error instead of sleeping forever.
	l.pcond.Broadcast()
	l.spaceCond.Broadcast()
	l.acond.Signal()
	l.mu.Unlock()
	return err
}

// Flush makes everything appended so far durable (an unconditional fsync,
// even when FsyncBatch is 0). Drain and Close use it so a graceful shutdown
// never loses acknowledged writes.
func (l *Log) Flush() error {
	l.gmu.Lock()
	for l.leading {
		l.gcond.Wait()
	}
	l.leading = true
	l.gmu.Unlock()

	err := l.syncPipelined(true)

	l.gmu.Lock()
	l.leading = false
	l.gcond.Broadcast()
	l.gmu.Unlock()
	return err
}

// Close flushes and fsyncs outstanding records, stops the appender, and
// closes the active segment. The log must not be appended to afterwards.
func (l *Log) Close() error {
	err := l.Flush()
	l.mu.Lock()
	if !l.closing {
		l.closing = true
		l.acond.Signal()
	}
	l.mu.Unlock()
	<-l.appenderDone
	l.mu.Lock()
	f := l.f
	l.f = nil
	l.mu.Unlock()
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Truncate deletes every non-active segment fully covered by a checkpoint at
// covered: segment i can go once the next segment's first LSN is <= covered+1
// (all of i's records are <= covered). A segment the scrubber quarantined
// concurrently is already gone and is skipped.
func (l *Log) Truncate(covered uint64) error {
	names, err := segNames(l.fs, l.dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(names); i++ {
		if names[i+1] > covered+1 {
			break
		}
		if err := l.fs.Remove(filepath.Join(l.dir, segName(names[i]))); err != nil && !walfs.IsNotExist(err) {
			return err
		}
		l.truncatedSeg.Add(1)
	}
	return nil
}

// segNames lists the segment first-LSNs in dir, ascending.
func segNames(fsys walfs.FS, dir string) ([]uint64, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []uint64
	for _, name := range ents {
		if n, ok := parseSegName(name); ok {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names, nil
}

// writeChunk writes every frame in chunk to the active segment with one
// vectored write. Appender only — l.f is stable for the duration (rotation
// happens between chunks, on the same goroutine).
func (l *Log) writeChunk(chunk []*Enc) error {
	vecs := l.vecs[:0]
	for _, e := range chunk {
		if len(e.buf) != 0 {
			vecs = append(vecs, e.buf)
		}
	}
	err := l.f.Writev(vecs)
	// Drop the buffer references so the reused table does not pin pooled
	// record buffers past the write.
	for i := range vecs {
		vecs[i] = nil
	}
	l.vecs = vecs[:0]
	return err
}
