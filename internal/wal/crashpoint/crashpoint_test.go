package crashpoint

import (
	"fmt"
	"path/filepath"
	"testing"

	"memtx/internal/wal"
	"memtx/internal/wal/walfs"
)

// TestExplore is the full crash-point sweep: record the scripted workload,
// then recover at every filesystem-op prefix (and every sector-torn variant
// of a trailing write) and check the durability contract. This is the
// tentpole drill the CI wal-disk-fault-smoke job runs.
func TestExplore(t *testing.T) {
	st, err := Explore(Config{Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if st.States != st.JournalOps+1 {
		t.Fatalf("explored %d states for %d journal ops; want every prefix", st.States, st.JournalOps)
	}
	if st.TornStates == 0 {
		t.Fatalf("no torn-write states explored; workload writes should span sectors")
	}
	if st.SegmentCreates < 2 || st.SegmentRemoves == 0 {
		t.Fatalf("journal holds %d segment creates and %d removes; rotation and checkpoint truncation must both fall inside it",
			st.SegmentCreates, st.SegmentRemoves)
	}
}

// TestSnapshotHalfRename drives the snapshot commit protocol (tmp + fsync +
// rename + dir fsync) through every crash prefix and asserts recovery always
// loads a complete snapshot: the old one until the new one's rename is
// durable, the new one after — never a half state. It then plants the
// disk-corruption shape the rename protocol cannot produce (a truncated
// renamed snapshot) and asserts loading falls back to the older valid one.
func TestSnapshotHalfRename(t *testing.T) {
	fsys := walfs.NewRecordingMem()
	dir := filepath.Join("wal", "shard-0000")
	if err := fsys.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	writeSnap := func(covered uint64, val string) {
		t.Helper()
		err := wal.WriteSnapshot(fsys, dir, covered, func(emit func(key, val []byte) error) error {
			return emit([]byte("a"), []byte(val))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	writeSnap(5, "v1")
	j1 := fsys.JournalLen()
	writeSnap(9, "v2")
	ops := fsys.Journal()

	check := func(st *walfs.Mem, label string) {
		t.Helper()
		var got string
		covered, _, ok, err := wal.LoadSnapshot(st, dir, func(_, val []byte) error {
			got = string(val)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: LoadSnapshot: %v", label, err)
		}
		if !ok {
			t.Fatalf("%s: no valid snapshot recovered; the previous one must survive until the new one is durable", label)
		}
		switch {
		case covered == 5 && got == "v1":
		case covered == 9 && got == "v2":
		default:
			t.Fatalf("%s: recovered half state: covered=%d pairs=%q", label, covered, got)
		}
	}
	for n := j1; n <= len(ops); n++ {
		check(walfs.CrashState(ops[:n]), fmt.Sprintf("prefix %d/%d", n, len(ops)))
		if n > 0 && ops[n-1].Kind == walfs.OpWrite {
			for keep := walfs.SectorSize; keep < len(ops[n-1].Data); keep += walfs.SectorSize {
				check(walfs.CrashStateTorn(ops[:n], keep),
					fmt.Sprintf("prefix %d/%d torn@%d", n, len(ops), keep))
			}
		}
	}

	// Disk corruption, not crash: the newest snapshot renamed into place but
	// its tail is gone. Loading must skip it for the older valid snapshot.
	st := walfs.CrashState(ops)
	newest := filepath.Join(dir, fmt.Sprintf("%020d.snap", 9))
	size, err := st.Size(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Truncate(newest, size/2); err != nil {
		t.Fatal(err)
	}
	var got string
	covered, _, ok, err := wal.LoadSnapshot(st, dir, func(_, val []byte) error {
		got = string(val)
		return nil
	})
	if err != nil || !ok {
		t.Fatalf("LoadSnapshot with truncated newest: ok=%v err=%v", ok, err)
	}
	if covered != 5 || got != "v1" {
		t.Fatalf("truncated newest snapshot was preferred: covered=%d pairs=%q, want the older valid one", covered, got)
	}
}
