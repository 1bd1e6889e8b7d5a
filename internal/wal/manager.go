package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"memtx/internal/obs"
	"memtx/internal/wal/walfs"
)

// Manager owns the store's one Log plus the WAL-wide state: per-shard
// snapshot files, recovery statistics, the scrubber, and the exported
// metrics.
//
// Lifecycle: Recover scans the log (read-only apart from truncating a torn
// tail); the store applies snapshots and records and computes the next LSN;
// Start then opens the log for appending.
type Manager struct {
	opts    Options
	fs      walfs.FS
	nshards int
	log     *Log

	scrubStop chan struct{}
	scrubWG   sync.WaitGroup

	replayRecords atomic.Uint64
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
}

const metaName = "META"

// metaLine is the META content of the current layout: one store-wide log
// under Dir/log/ and per-shard snapshots. The shard count is load-bearing:
// records carry no shard id (a key's shard is derived from its hash), so
// reopening a WAL directory with a different shard count would silently
// misroute every record.
func metaLine(shards int) string { return fmt.Sprintf("memtx-wal v2 shards %d\n", shards) }

// checkMeta verifies the directory's layout parameters. On first boot it
// lays out the log and snapshot directories and then writes META, durable
// before any segment exists: tmp file, write, fsync, close, rename, directory
// fsync — a META whose name survives a crash but whose bytes do not would
// refuse every later boot. That directory fsync also makes the
// subdirectories' entries durable.
func checkMeta(fsys walfs.FS, dir string, shards int) error {
	path := filepath.Join(dir, metaName)
	want := metaLine(shards)
	b, err := fsys.ReadFile(path)
	if walfs.IsNotExist(err) {
		if err := fsys.MkdirAll(LogDir(dir)); err != nil {
			return err
		}
		for i := 0; i < shards; i++ {
			if err := fsys.MkdirAll(ShardDir(dir, i)); err != nil {
				return err
			}
		}
		return writeFileDurable(fsys, path, []byte(want))
	}
	if err != nil {
		return err
	}
	got := string(b)
	if strings.HasPrefix(got, "memtx-wal v1 ") {
		return fmt.Errorf("wal: %s holds layout %q (one log per shard under shard-NNNN/); this build reads only %q (one store-wide log under log/) and does not migrate", path, got, want)
	}
	if got != want {
		return fmt.Errorf("wal: %s mismatch: dir has %q, store wants %q (shard count must not change across reboots)", path, got, want)
	}
	return nil
}

// writeFileDurable lands data at path atomically and durably.
func writeFileDurable(fsys walfs.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp, false)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// LogDir returns the log's segment directory under the WAL root.
func LogDir(root string) string { return filepath.Join(root, "log") }

// ShardDir returns shard i's snapshot directory under the WAL root.
func ShardDir(root string, shard int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%04d", shard))
}

// Recover builds a Manager for a store of the given shard count and scans the
// log. The returned scan holds every decoded record (a torn tail already
// truncated); the log is not yet open for appending — apply the scan, then
// call Start.
func Recover(opts Options, shards int) (*Manager, *Scan, error) {
	fsys := opts.fs()
	if err := fsys.MkdirAll(opts.Dir); err != nil {
		return nil, nil, err
	}
	if err := checkMeta(fsys, opts.Dir, shards); err != nil {
		return nil, nil, err
	}
	sc, err := ScanLog(fsys, LogDir(opts.Dir))
	if err != nil {
		return nil, nil, err
	}
	m := &Manager{opts: opts, fs: fsys, nshards: shards}
	if sc.TornTail {
		m.tornTails.Add(1)
	}
	return m, sc, nil
}

// Start opens the log for appending; nextLSN is one past the highest LSN
// recovery saw in the log or any snapshot.
func (m *Manager) Start(nextLSN uint64) error {
	l, err := openLog(LogDir(m.opts.Dir), nextLSN, m.opts)
	if err != nil {
		return err
	}
	m.log = l
	if m.opts.ScrubInterval > 0 {
		m.StartScrubber(m.opts.ScrubInterval)
	}
	return nil
}

// Log returns the store's log.
func (m *Manager) Log() *Log { return m.log }

// Dir returns the WAL root directory.
func (m *Manager) Dir() string { return m.opts.Dir }

// FS returns the storage layer the WAL runs on.
func (m *Manager) FS() walfs.FS { return m.fs }

// NoteReplay accumulates recovery statistics for the metrics export.
func (m *Manager) NoteReplay(records, pairs uint64) {
	m.replayRecords.Add(records)
	m.replayPairs.Add(pairs)
}

// Checkpoint writes a snapshot for shard i covering every record with
// LSN <= covered. It truncates nothing: segments are shared by every shard,
// so the caller truncates the log (Log.Truncate) to the lowest coverage over
// all shards.
//
// With a nil skip, pairs emits the shard's full contents. With a non-nil skip
// the checkpoint is incremental: the previous snapshot's pairs are carried
// over unchanged — except keys for which skip returns true — and pairs emits
// only the live values of the dirty keys; ErrNoPrevSnapshot (not counted as a
// failure) then reports that there is no valid previous snapshot, and the caller
// falls back to a full checkpoint.
func (m *Manager) Checkpoint(shard int, covered uint64, skip func(key []byte) bool, pairs func(emit func(key, val []byte) error) error) error {
	start := time.Now()
	dir := ShardDir(m.opts.Dir, shard)
	var (
		st  snapStats
		err error
	)
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
	return nil
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

// Close stops the scrubber, then flushes and closes the log.
func (m *Manager) Close() error {
	m.StopScrubber()
	return m.log.Close()
}

// ObsMetrics exports the stmkvd_wal_* family: the log's append, fsync and
// group counters, replay and snapshot statistics, the durable LSN, and the
// wedge gauges.
func (m *Manager) ObsMetrics() []obs.Metric {
	l := m.log
	ms := []obs.Metric{
		{Name: "stmkvd_wal_appends_total", Help: "Records appended to the write-ahead log.", Kind: obs.Counter, Value: l.appends.Load()},
		{Name: "stmkvd_wal_append_bytes_total", Help: "Bytes appended to the write-ahead log.", Kind: obs.Counter, Value: l.appendBytes.Load()},
		{Name: "stmkvd_wal_fsyncs_total", Help: "Group-commit fsyncs issued.", Kind: obs.Counter, Value: l.fsyncs.Load()},
		{Name: "stmkvd_wal_group_records_total", Help: "Records made durable by group-commit flushes.", Kind: obs.Counter, Value: l.flushedRecs.Load()},
		{Name: "stmkvd_wal_group_max", Help: "Largest group-commit flush observed, in records.", Kind: obs.Gauge, Value: l.maxGroup.Load()},
		{Name: "stmkvd_wal_rotations_total", Help: "Log segment rotations.", Kind: obs.Counter, Value: l.rotations.Load()},
		{Name: "stmkvd_wal_truncated_segments_total", Help: "Log segments deleted after a covering checkpoint.", Kind: obs.Counter, Value: l.truncatedSeg.Load()},
		{Name: "stmkvd_wal_replay_records_total", Help: "Log records replayed at boot.", Kind: obs.Counter, Value: m.replayRecords.Load()},
		{Name: "stmkvd_wal_replay_snapshot_pairs_total", Help: "Key/value pairs loaded from snapshots at boot.", Kind: obs.Counter, Value: m.replayPairs.Load()},
		{Name: "stmkvd_wal_torn_tails_total", Help: "Torn tail records truncated during recovery.", Kind: obs.Counter, Value: m.tornTails.Load()},
		{Name: "stmkvd_wal_snapshots_total", Help: "Snapshot checkpoints written.", Kind: obs.Counter, Value: m.snapshots.Load()},
		{Name: "stmkvd_wal_snapshot_skips_total", Help: "Snapshot checkpoint attempts that failed.", Kind: obs.Counter, Value: m.snapshotSkips.Load()},
		{Name: "stmkvd_wal_snapshot_duration_ns_total", Help: "Cumulative wall time spent writing snapshots.", Kind: obs.Counter, Value: m.snapDurNs.Load()},
		{Name: "stmkvd_wal_snapshot_last_ns", Help: "Duration of the most recent snapshot write.", Kind: obs.Gauge, Value: m.snapLastNs.Load()},
		{Name: "stmkvd_wal_snapshot_bytes_total", Help: "Bytes written to snapshot files.", Kind: obs.Counter, Value: m.snapBytes.Load()},
		{Name: "stmkvd_wal_snapshots_incremental_total", Help: "Snapshot checkpoints written incrementally (dirty keys merged into the previous snapshot).", Kind: obs.Counter, Value: m.snapIncremental.Load()},
		{Name: "stmkvd_wal_snapshot_dirty_pairs_total", Help: "Key/value pairs serialized from the dirty set by incremental snapshots.", Kind: obs.Counter, Value: m.snapPairsDirty.Load()},
		{Name: "stmkvd_wal_snapshot_reused_pairs_total", Help: "Key/value pairs streamed unchanged from the previous snapshot by incremental snapshots.", Kind: obs.Counter, Value: m.snapPairsReused.Load()},
		{Name: "stmkvd_wal_append_queue_depth", Help: "Records reserved in the append pipeline but not yet written.", Kind: obs.Gauge, Value: uint64(l.QueueDepth())},
		{Name: "stmkvd_wal_writev_total", Help: "Vectored batch writes issued by the appender.", Kind: obs.Counter, Value: l.writevCalls.Load()},
		{Name: "stmkvd_wal_writev_records_total", Help: "Records written by vectored batch writes.", Kind: obs.Counter, Value: l.writevRecs.Load()},
		{Name: "stmkvd_wal_writev_max_records", Help: "Largest vectored batch write observed, in records.", Kind: obs.Gauge, Value: l.writevMaxRecs.Load()},
		{Name: "stmkvd_wal_scrub_passes_total", Help: "Background scrub passes completed.", Kind: obs.Counter, Value: m.scrubPasses.Load()},
		{Name: "stmkvd_wal_scrub_segments_total", Help: "Sealed log segments verified by the scrubber.", Kind: obs.Counter, Value: m.scrubSegments.Load()},
		{Name: "stmkvd_wal_scrub_snapshots_total", Help: "Snapshot files verified by the scrubber.", Kind: obs.Counter, Value: m.scrubSnapshots.Load()},
		{Name: "stmkvd_wal_scrub_corrupt_total", Help: "Corrupt files found by the scrubber.", Kind: obs.Counter, Value: m.scrubCorrupt.Load()},
		{Name: "stmkvd_wal_quarantined", Help: "Files moved aside after failing verification.", Kind: obs.Gauge, Value: m.quarantined.Load()},
		{Name: "stmkvd_wal_durable_lsn", Help: "Last durable LSN of the log.", Kind: obs.Gauge, Value: l.SyncedLSN()},
	}
	// Wedge gauges: one series per cause, always present so the series set is
	// stable, 1 on the series matching the log's sticky error.
	ferr := l.Failed()
	cause := failCause(ferr)
	for _, c := range failCauses {
		v := uint64(0)
		if ferr != nil && c == cause {
			v = 1
		}
		ms = append(ms, obs.Metric{
			Name:   "stmkvd_wal_failed",
			Help:   "Whether the log is wedged, by failure cause.",
			Kind:   obs.Gauge,
			Labels: []obs.Label{{Key: "cause", Value: c}},
			Value:  v,
		})
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
