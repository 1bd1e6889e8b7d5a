package kv

import (
	"errors"
	"fmt"
	"syscall"
	"testing"

	"memtx/internal/enginetest"
	"memtx/internal/obs"
	"memtx/internal/wal"
	"memtx/internal/wal/walfs"
)

func openFaultStore(t *testing.T, flt walfs.FS) *Store {
	t.Helper()
	s, _, err := Open(Config{Shards: 4, Buckets: 64},
		DurableConfig{Dir: "wal", FS: flt, FsyncBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func trySet(s *Store, key, val string) error {
	return s.AtomicKey([]byte(key), func(t *Tx) error {
		t.Set([]byte(key), []byte(val))
		return nil
	})
}

// TestDiskFullDegradesReadOnly is the ENOSPC drill: when the device fills,
// the first failed write surfaces the raw error (its connection must drop —
// memory and log may have diverged), every later write is refused with the
// typed, retriable ErrDiskFull before any engine commit, reads keep serving,
// and a restart with space available recovers cleanly.
func TestDiskFullDegradesReadOnly(t *testing.T) {
	mem := walfs.NewMem()
	flt := walfs.NewFault(mem)
	s := openFaultStore(t, flt)

	for i := 0; i < 10; i++ {
		if err := trySet(s, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}

	flt.SetWriteBudget(0)
	// The in-flight casualty: a raw out-of-space error, not the typed
	// refusal — this write may have diverged and must not look retriable.
	err := trySet(s, "casualty", "v")
	if err == nil {
		t.Fatal("write with exhausted budget returned nil")
	}
	if !walfs.IsNoSpace(err) {
		t.Fatalf("first failing write error %v does not unwrap to ENOSPC", err)
	}
	if errors.Is(err, ErrDiskFull) {
		t.Fatalf("first failing write got the typed refusal %v; it must get the raw error", err)
	}
	if !s.Degraded() {
		t.Fatal("store not degraded after WAL ENOSPC")
	}

	// Every shard now refuses writes cleanly, before the engine commits.
	for i := 0; i < 8; i++ {
		err := trySet(s, fmt.Sprintf("post-full-%d", i), "v")
		if !errors.Is(err, ErrDiskFull) {
			t.Fatalf("write %d while degraded: %v, want ErrDiskFull", i, err)
		}
	}
	// Cross-shard writes are refused at the same gate.
	keys := [][]byte{[]byte("k0"), []byte("k1"), []byte("k2")}
	err = s.AtomicKeys(keys, func(tx *Tx) error {
		for _, k := range keys {
			tx.Set(k, []byte("w"))
		}
		return nil
	})
	if !errors.Is(err, ErrDiskFull) {
		t.Fatalf("cross-shard write while degraded: %v, want ErrDiskFull", err)
	}

	// Reads are unaffected: every acked key still serves, and the refused
	// writes left no trace in memory (the gate runs before the commit).
	for i := 0; i < 10; i++ {
		if v, ok := s.Get([]byte(fmt.Sprintf("k%d", i))); !ok || string(v) != "v" {
			t.Fatalf("read k%d while degraded: (%q, %v)", i, v, ok)
		}
	}
	if _, ok := s.Get([]byte("post-full-0")); ok {
		t.Fatal("a refused write is visible in memory; the health gate must run before the engine commit")
	}

	// Space coming back does not un-wedge a running store: degraded mode is
	// latched until restart (a wedged log cannot be trusted again in-process).
	flt.ClearWriteBudget()
	if err := trySet(s, "still-degraded", "v"); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("write after budget cleared: %v, want ErrDiskFull until restart", err)
	}
	s.Close()

	// Restart with space: recovery replays every acked write and the store
	// accepts new ones.
	s2 := openFaultStore(t, flt)
	defer s2.Close()
	if s2.Degraded() {
		t.Fatal("reopened store still degraded")
	}
	for i := 0; i < 10; i++ {
		if v, ok := s2.Get([]byte(fmt.Sprintf("k%d", i))); !ok || string(v) != "v" {
			t.Fatalf("recovered k%d: (%q, %v)", i, v, ok)
		}
	}
	if err := trySet(s2, "after-restart", "v"); err != nil {
		t.Fatalf("write after restart: %v", err)
	}
}

// TestFsyncFailureQuarantinesStore is the fsyncgate drill at the store level:
// the log's fsync fails with EIO (pages dropped), which wedges the one log —
// every later write, on any shard and cross-shard, is refused with the typed
// ErrWALQuarantined before the engine commits — while the whole store keeps
// serving reads. EIO is not ENOSPC: degraded mode stays off.
func TestFsyncFailureQuarantinesStore(t *testing.T) {
	mem := walfs.NewMem()
	flt := walfs.NewFault(mem)
	s := openFaultStore(t, flt)
	defer s.Close()

	if err := trySet(s, "pre", "v"); err != nil {
		t.Fatal(err)
	}

	flt.FailNextSync(wal.LogDir("wal"), syscall.EIO, true)
	err := trySet(s, "victim", "v")
	if err == nil {
		t.Fatal("write through failing fsync returned nil")
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("first failing write error %v does not unwrap to EIO", err)
	}
	if s.Degraded() {
		t.Fatal("EIO must quarantine the log, not latch ENOSPC degraded mode")
	}
	if !s.WAL().Log().Wedged() {
		t.Fatal("log not wedged after fsync failure")
	}

	// Probe keys across every shard: each write gets the typed refusal and
	// leaves no trace in memory.
	probed := make([]bool, s.Shards())
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("probe-%d", i)
		if err := trySet(s, key, "v"); !errors.Is(err, ErrWALQuarantined) {
			t.Fatalf("probe %d: %v, want ErrWALQuarantined", i, err)
		}
		if _, ok := s.Get([]byte(key)); ok {
			t.Fatalf("refused probe %d is visible in memory", i)
		}
		probed[s.KeyShard([]byte(key))] = true
	}
	for sid, ok := range probed {
		if !ok {
			t.Fatalf("no probe landed on shard %d", sid)
		}
	}
	keys := [][]byte{[]byte("probe-0"), []byte("probe-1"), []byte("probe-2")}
	err = s.AtomicKeys(keys, func(tx *Tx) error {
		for _, k := range keys {
			tx.Set(k, []byte("w"))
		}
		return nil
	})
	if !errors.Is(err, ErrWALQuarantined) {
		t.Fatalf("multi-key write on a wedged log: %v, want ErrWALQuarantined", err)
	}

	// The failure is visible in the WAL metrics: cause=eio is set.
	eio := 0
	for _, m := range s.WAL().ObsMetrics() {
		if m.Name != "stmkvd_wal_failed" {
			continue
		}
		if len(m.Labels) != 1 || m.Labels[0].Key != "cause" {
			t.Fatalf("stmkvd_wal_failed labels %v, want cause only", m.Labels)
		}
		if m.Labels[0].Value == "eio" && m.Value != 0 {
			eio++
		}
	}
	if eio != 1 {
		t.Fatalf("stmkvd_wal_failed{cause=eio} set on %d series, want 1", eio)
	}

	// Reads still serve.
	if v, ok := s.Get([]byte("pre")); !ok || string(v) != "v" {
		t.Fatalf("read pre: (%q, %v)", v, ok)
	}
}

// TestSnapshotDirSyncFailureKeepsLog is the failed-directory-fsync drill: a
// checkpoint renames shard 1's snapshot into place but the fsync of shard 1's
// directory fails, so the disk may not keep that snapshot. Neither that
// checkpoint nor a later one that finds shard 1 idle may truncate the log past
// shard 1's last durable snapshot: after a crash at either point, every
// acknowledged key recovers.
func TestSnapshotDirSyncFailureKeepsLog(t *testing.T) {
	mem := walfs.NewRecordingMem()
	flt := walfs.NewFault(mem)
	cfg := Config{Shards: 2, Buckets: 64}
	s, _, err := Open(cfg, DurableConfig{Dir: "wal", FS: flt, FsyncBatch: 1, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer closeStore(t, s)

	acked := map[string]string{}
	next := 0
	// write acknowledges n new keys, on shard only when it is >= 0. A
	// 512-byte segment holds about a dozen records, so every call rotates
	// the log and its directory fsync makes earlier truncations durable.
	write := func(n, shard int) {
		t.Helper()
		for n > 0 {
			k := fmt.Sprintf("key-%04d", next)
			next++
			if shard >= 0 && s.KeyShard([]byte(k)) != shard {
				continue
			}
			if err := trySet(s, k, k); err != nil {
				t.Fatal(err)
			}
			acked[k] = k
			n--
		}
	}
	checkCrash := func(when string) {
		t.Helper()
		c, _, err := Open(cfg, DurableConfig{Dir: "wal", FS: walfs.CrashState(mem.Journal()), FsyncBatch: 1})
		if err != nil {
			t.Fatalf("%s: reopen: %v", when, err)
		}
		defer closeStore(t, c)
		for k, want := range acked {
			if v, ok := c.Get([]byte(k)); !ok || string(v) != want {
				t.Fatalf("%s: acknowledged key %s on shard %d = (%q, %v) after a crash", when, k, c.KeyShard([]byte(k)), v, ok)
			}
		}
	}

	write(40, -1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	write(40, -1)
	flt.FailNextSyncDir(wal.ShardDir("wal", 1), syscall.EIO)
	if err := s.Checkpoint(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("checkpoint with shard 1's directory fsync failing: %v, want EIO", err)
	}
	write(40, 0)
	checkCrash("after the failed checkpoint")

	// Shard 1 has had no write since: its next checkpoint must still not
	// count the undurable snapshot as covering it.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	write(40, 0)
	checkCrash("after the next checkpoint")
}

// TestDurableMetricSourceConformance runs the obs conformance suite against a
// durable store (and its WAL manager) while the workload crosses checkpoint,
// scrub, quarantine, and degraded-mode transitions — the series set must stay
// stable through all of them.
func TestDurableMetricSourceConformance(t *testing.T) {
	mem := walfs.NewMem()
	flt := walfs.NewFault(mem)
	s := openFaultStore(t, flt)
	defer s.Close()

	drive := func() {
		for i := 0; i < 64; i++ {
			trySet(s, fmt.Sprintf("k%d", i%16), "v")
		}
		s.Checkpoint()
		s.WAL().ScrubOnce()
		flt.FailNextSync(wal.LogDir("wal"), syscall.EIO, true)
		trySet(s, "eio-casualty", "v")
		flt.SetWriteBudget(0)
		trySet(s, "enospc-casualty", "v") // flips degraded_mode mid-run
		for i := 0; i < 16; i++ {
			trySet(s, fmt.Sprintf("refused-%d", i), "v")
		}
	}
	t.Run("store", func(t *testing.T) {
		mem := walfs.NewMem()
		flt2 := walfs.NewFault(mem)
		s2 := openFaultStore(t, flt2)
		defer s2.Close()
		enginetest.RunMetricSource(t, s2, func() {
			for i := 0; i < 64; i++ {
				trySet(s2, fmt.Sprintf("k%d", i%16), "v")
			}
			s2.Checkpoint()
			flt2.SetWriteBudget(0)
			trySet(s2, "casualty", "v")
			for i := 0; i < 16; i++ {
				trySet(s2, fmt.Sprintf("refused-%d", i), "v")
			}
		})
		var src obs.MetricSource = s2
		found := false
		for _, m := range src.ObsMetrics() {
			if m.Name == "stmkvd_degraded_mode" {
				found = true
				if m.Value != 1 {
					t.Fatalf("stmkvd_degraded_mode = %d after ENOSPC, want 1", m.Value)
				}
			}
		}
		if !found {
			t.Fatal("durable store exports no stmkvd_degraded_mode gauge")
		}
	})
	t.Run("wal-manager", func(t *testing.T) {
		enginetest.RunMetricSource(t, s.WAL(), drive)
		want := map[string]bool{
			"stmkvd_wal_scrub_passes_total":   false,
			"stmkvd_wal_scrub_segments_total": false,
			"stmkvd_wal_quarantined":          false,
			"stmkvd_wal_durable_lsn":          false,
			"stmkvd_wal_failed":               false,
		}
		for _, m := range s.WAL().ObsMetrics() {
			if _, ok := want[m.Name]; ok {
				want[m.Name] = true
			}
			// One store-wide log: no WAL series is per shard.
			for _, l := range m.Labels {
				if l.Key == "shard" {
					t.Fatalf("%s carries a shard label", m.Name)
				}
			}
		}
		for name, ok := range want {
			if !ok {
				t.Fatalf("wal manager exports no %s metric", name)
			}
		}
	})
}
