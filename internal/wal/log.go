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

// Options configures the store's log (via the Manager).
type Options struct {
	// Dir is the WAL root: the log's segments live under Dir/log/, each
	// shard's snapshots under Dir/shard-NNNN/.
	Dir string
	// FsyncBatch is the target group-commit size. Once a durability request
	// is outstanding, the appender fsyncs as soon as this many records are
	// appended but not yet durable, or every appended record has been
	// requested (no writer it can see is left to wait for), or FsyncInterval
	// elapses — whichever is first. 1 fsyncs every commit; 0 never fsyncs
	// except in Flush and Close (records are still written, so a clean
	// shutdown loses nothing, but a crash can lose the OS-buffered tail).
	FsyncBatch int
	// FsyncInterval bounds how long the appender holds a group open for a
	// record that was appended but whose durability nobody has requested yet.
	// 0 fsyncs immediately, so groups form only from commits that arrive
	// while a previous fsync is in flight.
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
	// appendQueueCap bounds the records reserved but not yet written; a full
	// queue blocks the appending transaction (back-pressure).
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

// Log is the store's write-ahead log: segmented files fed by an append
// pipeline whose appender goroutine is also the group-commit scheduler.
//
// An append only reserves the next LSN and enqueues a pre-encoded record
// under a short mutex; the appender drains the queue in LSN order, seals
// CRCs, and writes whole batches with one vectored write each. A durability
// wait (Sync) raises the requested LSN and parks until the appender's fsync
// covers it. The appender alone forms the group: it opens a window when an
// unsatisfied request exists, keeps writing arrivals while the window is
// open, and fsyncs once FsyncBatch records are waiting, every appended record
// is requested, or FsyncInterval has passed. It owns all file I/O — segment
// writes, rotation, and fsyncs — so commit critical sections never wait on
// I/O; only Sync does.
type Log struct {
	dir  string
	opts Options
	fs   walfs.FS

	// mu guards everything below up to synced: LSNs, the queue, the rotation
	// decision, and the durability requests and progress.
	mu       sync.Mutex
	f        walfs.File
	segSize  int64
	appended uint64 // last LSN handed out (0 = none yet); the next append takes appended+1
	failed   error  // sticky first write/fsync error; the log is wedged after

	// The appender goroutine is the only writer of written/fsynced/synced and
	// the only party doing file I/O. queueCap is appendQueueCap; it is a field
	// only so in-package tests can shrink it (under mu, before appending) to
	// force back-pressure.
	queueCap     int
	queue        []*Enc      // records reserved but not yet written, LSN order
	qspare       []*Enc      // double-buffer for queue swaps
	acond        *sync.Cond  // appender wakeup: work queued, request posted, window timer, close
	pcond        *sync.Cond  // sync waiters: synced/fsynced/failed progressed
	spaceCond    *sync.Cond  // enqueuers blocked on a full queue
	written      uint64      // last LSN written to the segment file
	fsynced      uint64      // last LSN covered by a real fsync
	syncReq      uint64      // highest LSN a waiter asked to make durable
	syncForce    bool        // fsync now, even when FsyncBatch == 0 (Flush/Close)
	windowEnd    time.Time   // when the open group window closes (zero = no window open)
	timer        *time.Timer // wakes the appender at windowEnd; one per log, re-armed per window
	closing      bool
	appenderDone chan struct{}

	// synced is the last durable LSN (last written LSN when fsync is
	// disabled). Stored under mu; loaded lock-free by SyncedLSN.
	synced atomic.Uint64

	// Appender-private: touched by no other goroutine.
	vecs     [][]byte // reusable writev buffer table
	unsynced int      // records written since the last completed sync

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

// openLog opens the log for appending. Recovery has already scanned the
// directory; nextLSN is one past the last recovered record or snapshot.
// Appends always go to a fresh segment — existing segments are never
// reopened for writing, which keeps the torn-tail rule simple (only the last
// segment may tear).
func openLog(dir string, nextLSN uint64, opts Options) (*Log, error) {
	fsys := opts.fs()
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	l := &Log{
		dir:      dir,
		opts:     opts,
		fs:       fsys,
		appended: nextLSN - 1,
		written:  nextLSN - 1,
		fsynced:  nextLSN - 1,
		queueCap: appendQueueCap,
	}
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
// A segment with this exact name can already exist: a log that saw no
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
	l.appended++
	lsn := l.appended
	e.stamp(lsn)
	l.queue = append(l.queue, e)
	l.appends.Add(1)
	l.appendBytes.Add(uint64(len(e.buf)))
	l.acond.Signal()
	l.mu.Unlock()
	return lsn, nil
}

// AppendCommit appends a commit record and returns its LSN. The record is not
// yet durable; call Sync(lsn) to wait for it.
func (l *Log) AppendCommit(ops []Op) (uint64, error) {
	lsn, err := l.Append(EncodeCommit(ops))
	if err != nil {
		return 0, err
	}
	chaos.Delay(chaos.WALAppend)
	return lsn, nil
}

// Sync blocks until the record at lsn is durable (or written, when fsync is
// disabled) or the log is wedged, and returns the sticky error if any. It
// raises the requested LSN and wakes the appender only when the request is
// new, so re-syncing an lsn that is already durable never opens a group
// window.
func (l *Log) Sync(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn > l.syncReq && lsn > l.synced.Load() {
		l.syncReq = lsn
		l.acond.Signal()
	}
	return l.waitLocked(lsn, false)
}

// waitLocked parks until synced reaches lsn — and, for a flush, until a real
// fsync covers it, which matters when FsyncBatch is 0 and synced advances on
// write alone. l.mu held.
func (l *Log) waitLocked(lsn uint64, flush bool) error {
	for l.failed == nil && (l.synced.Load() < lsn || (flush && l.fsynced < lsn)) {
		l.pcond.Wait()
	}
	return l.failed
}

func (l *Log) stickyErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// syncDueLocked reports whether the appender should fsync now: a flush was
// posted, or a request is unsatisfied and its group window has closed — the
// batch filled, every appended record is requested, the interval ran out, or
// the options rule out lingering. The first unsatisfied request opens the
// window and arms the timer. l.mu held.
//
// A window lingers only for writers it can see: once syncReq reaches
// appended, no record lies past the highest requested LSN, so no appended
// commit is left to join the group and waiting longer only delays the ones
// already in it.
func (l *Log) syncDueLocked() bool {
	if l.syncForce {
		return true
	}
	synced := l.synced.Load()
	if l.syncReq <= synced {
		return false
	}
	if l.opts.FsyncBatch <= 1 || l.opts.FsyncInterval <= 0 || l.closing ||
		l.appended-synced >= uint64(l.opts.FsyncBatch) || l.syncReq >= l.appended {
		return true
	}
	if l.windowEnd.IsZero() {
		l.windowEnd = time.Now().Add(l.opts.FsyncInterval)
		if l.timer == nil {
			l.timer = time.AfterFunc(l.opts.FsyncInterval, l.wakeAppender)
		} else {
			l.timer.Reset(l.opts.FsyncInterval)
		}
		return false
	}
	return !time.Now().Before(l.windowEnd)
}

// wakeAppender is the window timer's callback.
func (l *Log) wakeAppender() {
	l.mu.Lock()
	l.acond.Signal()
	l.mu.Unlock()
}

// appendLoop is the appender goroutine: it drains the queue in LSN order,
// writes each drained batch with vectored writes, and fsyncs when the group
// window closes. It owns all file I/O.
func (l *Log) appendLoop() {
	defer close(l.appenderDone)
	for {
		l.mu.Lock()
		syncNow := l.syncDueLocked()
		for !syncNow && l.failed == nil && !l.closing && len(l.queue) == 0 {
			l.acond.Wait()
			syncNow = l.syncDueLocked()
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
		// The queue is drained in the same critical section that decided to
		// sync, so the fsync below covers every LSN requested so far.
		fsync := syncNow && (l.syncForce || l.opts.FsyncBatch != 0)
		if syncNow {
			l.syncForce = false
			if !l.windowEnd.IsZero() {
				l.windowEnd = time.Time{}
				l.timer.Stop()
			}
		}
		done := l.closing && len(batch) == 0 && !syncNow
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
		if fsync {
			chaos.Delay(chaos.WALFsync)
			if err := l.f.Sync(); err != nil {
				l.fail(err)
				continue
			}
			l.fsyncs.Add(1)
		}
		if fsync || l.opts.FsyncBatch == 0 {
			l.completeSync(fsync)
		}
	}
}

// completeSync advances synced (and fsynced, after a real fsync) to written
// and wakes sync waiters. Appender only.
func (l *Log) completeSync(fsynced bool) {
	recs := l.unsynced
	l.unsynced = 0
	l.mu.Lock()
	if fsynced {
		l.fsynced = l.written
	}
	l.synced.Store(l.written)
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
		l.unsynced += n
		l.mu.Lock()
		l.segSize += int64(nbytes)
		l.written = last
		rotate := l.segSize >= segMax
		f := l.f
		l.mu.Unlock()
		if rotate {
			// last+1 (not appended+1, which may be ahead of what is written)
			// is the correct first-LSN lower bound for the remaining records.
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
		l.failed = fmt.Errorf("wal: log failed: %w", err)
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

// Flush makes everything appended so far durable with an unconditional fsync
// — even when FsyncBatch is 0 — that closes any open group window; when a
// real fsync already covers the last append there is nothing to ask for.
// Drain and Close use it so a graceful shutdown never loses acknowledged
// writes.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.appended
	if l.fsynced < target {
		l.syncReq = target
		l.syncForce = true
		l.acond.Signal()
	}
	return l.waitLocked(target, true)
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

// Truncate deletes every non-active segment whose records are all <= covered,
// which the caller must make the lowest snapshot coverage over every shard:
// segment i can go once the next segment's first LSN is <= covered+1. A
// segment the scrubber quarantined concurrently is already gone and is
// skipped.
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
