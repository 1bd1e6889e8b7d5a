package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"memtx/internal/chaos"
	"memtx/internal/obs"
	"memtx/internal/wal/walfs"
)

// Manager owns every shard's Log plus the WAL-wide state: the cross-shard
// transaction id counter, recovery statistics, and the exported metrics.
//
// Lifecycle: Recover scans the directory tree (read-only, tolerating a torn
// tail per shard); the store applies snapshots and records and computes the
// per-shard next LSNs; Start then opens the logs for appending.
type Manager struct {
	opts    Options
	fs      walfs.FS
	nshards int
	logs    []*Log
	xid     atomic.Uint64

	scrubStop chan struct{}
	scrubWG   sync.WaitGroup

	replayRecords atomic.Uint64
	replayRescued atomic.Uint64
	replayPairs   atomic.Uint64
	tornTails     atomic.Uint64
	snapshots     atomic.Uint64
	snapshotSkips atomic.Uint64
	snapDurNs     atomic.Uint64
	snapLastNs    atomic.Uint64

	snapBytes       atomic.Uint64
	snapIncremental atomic.Uint64
	snapPairsDirty  atomic.Uint64
	snapPairsReused atomic.Uint64

	scrubPasses    atomic.Uint64
	scrubSegments  atomic.Uint64
	scrubSnapshots atomic.Uint64
	scrubCorrupt   atomic.Uint64
	quarantined    atomic.Uint64
	rescues        atomic.Uint64
}

const metaName = "META"

// writeMeta records the layout parameters recovery depends on. The shard
// count is load-bearing: records carry no shard id (a key's shard is derived
// from its hash), so reopening a WAL directory with a different shard count
// would silently misroute every record.
func checkMeta(fsys walfs.FS, dir string, shards int) error {
	path := filepath.Join(dir, metaName)
	want := fmt.Sprintf("memtx-wal v1 shards %d\n", shards)
	b, err := fsys.ReadFile(path)
	if walfs.IsNotExist(err) {
		if err := fsys.WriteFile(path, []byte(want)); err != nil {
			return err
		}
		return fsys.SyncDir(dir)
	}
	if err != nil {
		return err
	}
	if string(b) != want {
		return fmt.Errorf("wal: %s mismatch: dir has %q, store wants %q (shard count must not change across reboots)", path, string(b), want)
	}
	return nil
}

// ShardDir returns shard i's log directory under the WAL root.
func ShardDir(root string, shard int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%04d", shard))
}

// Recover builds a Manager and scans every shard's log directory. The
// returned scans hold each shard's decoded records (torn tails already
// truncated); the logs are not yet open for appending — apply the scans,
// then call Start.
func Recover(opts Options, shards int) (*Manager, []*ShardScan, error) {
	fsys := opts.fs()
	if err := fsys.MkdirAll(opts.Dir); err != nil {
		return nil, nil, err
	}
	if err := checkMeta(fsys, opts.Dir, shards); err != nil {
		return nil, nil, err
	}
	m := &Manager{opts: opts, fs: fsys, nshards: shards, logs: make([]*Log, shards)}
	scans := make([]*ShardScan, shards)
	// Shard logs are independent files, so scan them in parallel — recovery
	// time is bounded by the largest shard log, not the sum.
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc, err := ScanShard(fsys, ShardDir(opts.Dir, i))
			if err != nil {
				errs[i] = err
				return
			}
			if sc.TornTail {
				m.tornTails.Add(1)
			}
			scans[i] = sc
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return m, scans, nil
}

// Start opens every shard log for appending; nextLSN[i] is one past shard
// i's last recovered (or rescued) record. The cross-shard id counter resumes
// past maxXID.
func (m *Manager) Start(nextLSN []uint64, maxXID uint64) error {
	for i := 0; i < m.nshards; i++ {
		l, err := openLog(ShardDir(m.opts.Dir, i), i, nextLSN[i], m.opts)
		if err != nil {
			return err
		}
		m.logs[i] = l
	}
	m.xid.Store(maxXID)
	if m.opts.ScrubInterval > 0 {
		m.StartScrubber(m.opts.ScrubInterval)
	}
	return nil
}

// Log returns shard i's log.
func (m *Manager) Log(i int) *Log { return m.logs[i] }

// Dir returns the WAL root directory.
func (m *Manager) Dir() string { return m.opts.Dir }

// FS returns the storage layer the WAL runs on.
func (m *Manager) FS() walfs.FS { return m.fs }

// NextXID allocates a cross-shard transaction id.
func (m *Manager) NextXID() uint64 { return m.xid.Add(1) }

// NoteReplay accumulates recovery statistics for the metrics export.
func (m *Manager) NoteReplay(records, rescued, pairs uint64) {
	m.replayRecords.Add(records)
	m.replayRescued.Add(rescued)
	m.replayPairs.Add(pairs)
}

// Checkpoint writes a snapshot for shard i covering every record with
// LSN <= covered, then truncates segments up to truncTo (<= covered: the
// store clamps truncation below any cross-shard record whose peer copies are
// not yet durable, since a peer may need this shard's copy for a rescue).
//
// With a nil skip, pairs emits the shard's full contents. With a non-nil skip
// the checkpoint is incremental: the previous snapshot's pairs are carried
// over unchanged — except keys for which skip returns true — and pairs emits
// only the live values of the dirty keys; ErrNoPrevSnapshot (not counted as a
// skip) then reports that there is no valid previous snapshot, and the caller
// falls back to a full checkpoint.
//
// An injected chaos fault — ErrSnapshotSkipped or an InjectedPanic, which is
// recovered here — is counted and returned; nothing was written.
func (m *Manager) Checkpoint(shard int, covered, truncTo uint64, skip func(key []byte) bool, pairs func(emit func(key, val []byte) error) error) (err error) {
	defer m.recoverSnapshotPanic(&err)
	start := time.Now()
	dir := ShardDir(m.opts.Dir, shard)
	var st snapStats
	if skip == nil {
		st, err = writeSnapshotFile(m.fs, dir, covered, pairs)
	} else {
		st, err = writeSnapshotMerge(m.fs, dir, covered, skip, pairs)
	}
	if err != nil {
		if err != ErrNoPrevSnapshot {
			m.snapshotSkips.Add(1)
		}
		return err
	}
	m.noteSnapshot(st, skip != nil, start)
	if truncTo > covered {
		truncTo = covered
	}
	return m.logs[shard].Truncate(truncTo)
}

// recoverSnapshotPanic converts an injected chaos panic into
// ErrSnapshotSkipped; anything else keeps unwinding.
func (m *Manager) recoverSnapshotPanic(err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(*chaos.InjectedPanic); ok {
			m.snapshotSkips.Add(1)
			*err = ErrSnapshotSkipped
			return
		}
		panic(r)
	}
}

// noteSnapshot folds one written snapshot into the metrics.
func (m *Manager) noteSnapshot(st snapStats, incremental bool, start time.Time) {
	d := uint64(time.Since(start).Nanoseconds())
	m.snapshots.Add(1)
	m.snapDurNs.Add(d)
	m.snapLastNs.Store(d)
	m.snapBytes.Add(uint64(st.bytes))
	if incremental {
		m.snapIncremental.Add(1)
		m.snapPairsDirty.Add(st.total - st.reused)
		m.snapPairsReused.Add(st.reused)
	}
}

// LatestSnapshotLSN returns shard i's newest on-disk snapshot LSN, or ok
// false when the shard has none.
func (m *Manager) LatestSnapshotLSN(shard int) (lsn uint64, ok bool) {
	names, err := snapNames(m.fs, ShardDir(m.opts.Dir, shard))
	if err != nil || len(names) == 0 {
		return 0, false
	}
	return names[len(names)-1], true
}

// Flush makes every shard's appended records durable: the flush is posted to
// every log before any is waited on, so the shards' fsyncs overlap.
func (m *Manager) Flush() error {
	targets := make([]uint64, len(m.logs))
	for i, l := range m.logs {
		if l != nil {
			targets[i] = l.postFlush()
		}
	}
	var first error
	for i, l := range m.logs {
		if l == nil {
			continue
		}
		if err := l.wait(targets[i], true); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the scrubber, then flushes and closes every shard log.
func (m *Manager) Close() error {
	m.StopScrubber()
	first := m.Flush()
	for _, l := range m.logs {
		if l == nil {
			continue
		}
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ObsMetrics exports the stmkvd_wal_* family: append/fsync/group counters
// summed across shards, replay and snapshot statistics, and per-shard
// durable LSN gauges.
func (m *Manager) ObsMetrics() []obs.Metric {
	var appends, bytes, fsyncs, flushed, rotations, truncated, maxGroup uint64
	var queueDepth, writevCalls, writevRecs, writevMax uint64
	for _, l := range m.logs {
		if l == nil {
			continue
		}
		appends += l.appends.Load()
		bytes += l.appendBytes.Load()
		fsyncs += l.fsyncs.Load()
		flushed += l.flushedRecs.Load()
		rotations += l.rotations.Load()
		truncated += l.truncatedSeg.Load()
		if g := l.maxGroup.Load(); g > maxGroup {
			maxGroup = g
		}
		queueDepth += uint64(l.QueueDepth())
		writevCalls += l.writevCalls.Load()
		writevRecs += l.writevRecs.Load()
		if w := l.writevMaxRecs.Load(); w > writevMax {
			writevMax = w
		}
	}
	ms := []obs.Metric{
		{Name: "stmkvd_wal_appends_total", Help: "Records appended to the write-ahead log.", Kind: obs.Counter, Value: appends},
		{Name: "stmkvd_wal_append_bytes_total", Help: "Bytes appended to the write-ahead log.", Kind: obs.Counter, Value: bytes},
		{Name: "stmkvd_wal_fsyncs_total", Help: "Group-commit fsyncs issued.", Kind: obs.Counter, Value: fsyncs},
		{Name: "stmkvd_wal_group_records_total", Help: "Records made durable by group-commit flushes.", Kind: obs.Counter, Value: flushed},
		{Name: "stmkvd_wal_group_max", Help: "Largest group-commit flush observed, in records.", Kind: obs.Gauge, Value: maxGroup},
		{Name: "stmkvd_wal_rotations_total", Help: "Log segment rotations.", Kind: obs.Counter, Value: rotations},
		{Name: "stmkvd_wal_truncated_segments_total", Help: "Log segments deleted after a covering checkpoint.", Kind: obs.Counter, Value: truncated},
		{Name: "stmkvd_wal_replay_records_total", Help: "Log records replayed at boot.", Kind: obs.Counter, Value: m.replayRecords.Load()},
		{Name: "stmkvd_wal_replay_rescued_total", Help: "Cross-shard records recovered from a peer shard's log at boot.", Kind: obs.Counter, Value: m.replayRescued.Load()},
		{Name: "stmkvd_wal_replay_snapshot_pairs_total", Help: "Key/value pairs loaded from snapshots at boot.", Kind: obs.Counter, Value: m.replayPairs.Load()},
		{Name: "stmkvd_wal_torn_tails_total", Help: "Torn tail records truncated during recovery.", Kind: obs.Counter, Value: m.tornTails.Load()},
		{Name: "stmkvd_wal_snapshots_total", Help: "Snapshot checkpoints written.", Kind: obs.Counter, Value: m.snapshots.Load()},
		{Name: "stmkvd_wal_snapshot_skips_total", Help: "Snapshot checkpoint attempts skipped or failed.", Kind: obs.Counter, Value: m.snapshotSkips.Load()},
		{Name: "stmkvd_wal_snapshot_duration_ns_total", Help: "Cumulative wall time spent writing snapshots.", Kind: obs.Counter, Value: m.snapDurNs.Load()},
		{Name: "stmkvd_wal_snapshot_last_ns", Help: "Duration of the most recent snapshot write.", Kind: obs.Gauge, Value: m.snapLastNs.Load()},
		{Name: "stmkvd_wal_snapshot_bytes_total", Help: "Bytes written to snapshot files.", Kind: obs.Counter, Value: m.snapBytes.Load()},
		{Name: "stmkvd_wal_snapshots_incremental_total", Help: "Snapshot checkpoints written incrementally (dirty keys merged into the previous snapshot).", Kind: obs.Counter, Value: m.snapIncremental.Load()},
		{Name: "stmkvd_wal_snapshot_dirty_pairs_total", Help: "Key/value pairs serialized from the dirty set by incremental snapshots.", Kind: obs.Counter, Value: m.snapPairsDirty.Load()},
		{Name: "stmkvd_wal_snapshot_reused_pairs_total", Help: "Key/value pairs streamed unchanged from the previous snapshot by incremental snapshots.", Kind: obs.Counter, Value: m.snapPairsReused.Load()},
		{Name: "stmkvd_wal_append_queue_depth", Help: "Records reserved in the append pipeline but not yet written, summed across shards.", Kind: obs.Gauge, Value: queueDepth},
		{Name: "stmkvd_wal_writev_total", Help: "Vectored batch writes issued by shard appenders.", Kind: obs.Counter, Value: writevCalls},
		{Name: "stmkvd_wal_writev_records_total", Help: "Records written by vectored batch writes.", Kind: obs.Counter, Value: writevRecs},
		{Name: "stmkvd_wal_writev_max_records", Help: "Largest vectored batch write observed, in records.", Kind: obs.Gauge, Value: writevMax},
		{Name: "stmkvd_wal_scrub_passes_total", Help: "Background scrub passes completed.", Kind: obs.Counter, Value: m.scrubPasses.Load()},
		{Name: "stmkvd_wal_scrub_segments_total", Help: "Sealed log segments verified by the scrubber.", Kind: obs.Counter, Value: m.scrubSegments.Load()},
		{Name: "stmkvd_wal_scrub_snapshots_total", Help: "Snapshot files verified by the scrubber.", Kind: obs.Counter, Value: m.scrubSnapshots.Load()},
		{Name: "stmkvd_wal_scrub_corrupt_total", Help: "Corrupt files found by the scrubber.", Kind: obs.Counter, Value: m.scrubCorrupt.Load()},
		{Name: "stmkvd_wal_quarantined", Help: "Files moved aside after failing verification.", Kind: obs.Gauge, Value: m.quarantined.Load()},
		{Name: "stmkvd_wal_rescued_segments_total", Help: "Rescue segments rebuilt from peer shards' cross-shard commit copies.", Kind: obs.Counter, Value: m.rescues.Load()},
	}
	for i, l := range m.logs {
		v := uint64(0)
		if l != nil {
			v = l.SyncedLSN()
		}
		ms = append(ms, obs.Metric{
			Name:   "stmkvd_wal_durable_lsn",
			Help:   "Last durable LSN per shard.",
			Kind:   obs.Gauge,
			Labels: []obs.Label{{Key: "shard", Value: strconv.Itoa(i)}},
			Value:  v,
		})
	}
	// Wedge gauges: one series per shard and cause, always present so the
	// series set is stable, 1 on the series matching the shard's sticky error.
	for i, l := range m.logs {
		var ferr error
		if l != nil {
			ferr = l.Failed()
		}
		cause := failCause(ferr)
		for _, c := range failCauses {
			v := uint64(0)
			if ferr != nil && c == cause {
				v = 1
			}
			ms = append(ms, obs.Metric{
				Name:   "stmkvd_wal_failed",
				Help:   "Whether the shard's log is wedged, by failure cause.",
				Kind:   obs.Gauge,
				Labels: []obs.Label{{Key: "shard", Value: strconv.Itoa(i)}, {Key: "cause", Value: c}},
				Value:  v,
			})
		}
	}
	return ms
}

// failCauses is the fixed label set for stmkvd_wal_failed.
var failCauses = []string{"enospc", "eio", "other"}

// failCause classifies a log's sticky error for the metrics export.
func failCause(err error) string {
	switch {
	case err == nil:
		return ""
	case walfs.IsNoSpace(err):
		return "enospc"
	case errors.Is(err, syscall.EIO):
		return "eio"
	default:
		return "other"
	}
}
