package wal

import (
	"path/filepath"
	"strings"
	"testing"

	"memtx/internal/wal/walfs"
)

// TestMetaSyncedBeforeFirstSegment pins META's durability on first boot: its
// bytes are fsynced under a temporary name, renamed into place, and the WAL
// root fsynced, all before the log's first segment exists. A META whose
// directory entry survives a crash but whose bytes do not would make every
// later boot refuse the directory; one whose rename is lost would be
// rewritten with whatever shard count the next boot passes.
func TestMetaSyncedBeforeFirstSegment(t *testing.T) {
	fsys := walfs.NewRecordingMem()
	m, sc, err := Recover(Options{Dir: "wal", FS: fsys, FsyncBatch: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(sc.LastLSN + 1); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	meta := filepath.Join("wal", metaName)
	synced, renamed, dirSynced := -1, -1, -1
	for i, op := range fsys.Journal() {
		switch {
		case op.Kind == walfs.OpSync && op.Path == meta+".tmp" && synced < 0:
			synced = i
		case op.Kind == walfs.OpRename && op.Path2 == meta && renamed < 0:
			renamed = i
		case op.Kind == walfs.OpSyncDir && op.Path == "wal" && renamed >= 0 && dirSynced < 0:
			dirSynced = i
		case op.Kind == walfs.OpCreate && strings.HasSuffix(op.Path, segSuffix):
			if synced < 0 || renamed < 0 || dirSynced < 0 || synced > renamed {
				t.Fatalf("first segment created at journal op %d before META was fsynced, renamed into place and its directory fsynced (sync at %d, rename at %d, dir sync at %d)", i, synced, renamed, dirSynced)
			}
			return
		}
	}
	t.Fatal("no segment created")
}

// TestMetaRefusesPerShardLayout: a directory written by the per-shard-log
// layout is refused with an error naming both layouts, never misread.
func TestMetaRefusesPerShardLayout(t *testing.T) {
	fsys := walfs.NewMem()
	if err := fsys.MkdirAll("wal"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFile(filepath.Join("wal", metaName), []byte("memtx-wal v1 shards 4\n")); err != nil {
		t.Fatal(err)
	}
	_, _, err := Recover(Options{Dir: "wal", FS: fsys}, 4)
	if err == nil {
		t.Fatal("a v1 directory was accepted")
	}
	for _, want := range []string{"memtx-wal v1 shards 4", metaLine(4)} {
		if !strings.Contains(err.Error(), strings.TrimSpace(want)) {
			t.Fatalf("refusal %q does not name layout %q", err, strings.TrimSpace(want))
		}
	}
}
