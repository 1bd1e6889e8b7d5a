package wal

import (
	"fmt"
	"path/filepath"
	"time"

	"memtx/internal/chaos"
	"memtx/internal/wal/walfs"
)

// quarantineSuffix is appended to a corrupt file's name when the scrubber
// moves it aside. The suffix makes the name unparseable as a segment or
// snapshot, so recovery and truncation no longer see the file, while the
// bytes stay on disk for forensics.
const quarantineSuffix = ".quarantined"

// StartScrubber launches the background verification loop: every interval it
// re-reads the log's sealed segments and every shard's snapshot files,
// validating CRCs, record framing, and LSN order, and quarantines anything
// corrupt. Start calls it when Options.ScrubInterval is set.
func (m *Manager) StartScrubber(interval time.Duration) {
	if m.scrubStop != nil {
		return
	}
	m.scrubStop = make(chan struct{})
	m.scrubWG.Add(1)
	go func() {
		defer m.scrubWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-m.scrubStop:
				return
			case <-t.C:
				m.scrubPass()
			}
		}
	}()
}

// StopScrubber stops the background loop, waiting for an in-flight pass.
func (m *Manager) StopScrubber() {
	if m.scrubStop == nil {
		return
	}
	close(m.scrubStop)
	m.scrubWG.Wait()
	m.scrubStop = nil
}

// scrubPass runs ScrubOnce behind the chaos gate, absorbing injected faults.
func (m *Manager) scrubPass() {
	if in := chaos.Active(); in != nil {
		act, delay := in.Decide(chaos.WALScrub)
		switch act {
		case chaos.ActAbort, chaos.ActPanic:
			return // skip the pass; the next tick retries
		case chaos.ActDelay:
			time.Sleep(delay)
		}
	}
	m.ScrubOnce()
}

// ScrubOnce verifies the log and every shard's snapshots once and returns the
// number of corrupt files found (and quarantined) during this pass.
func (m *Manager) ScrubOnce() int {
	corrupt := m.scrubLog()
	for i := 0; i < m.nshards; i++ {
		corrupt += m.scrubShardSnapshots(ShardDir(m.opts.Dir, i))
	}
	m.scrubPasses.Add(1)
	return corrupt
}

// scrubLog verifies the log's sealed segments. The active (highest-named)
// segment is skipped — the appender owns it and a mid-write read would see a
// legitimate torn tail. A corrupt segment is quarantined: its records have no
// other copy, so those no snapshot covers yet are lost, which the corruption
// metrics surface.
func (m *Manager) scrubLog() int {
	dir := LogDir(m.opts.Dir)
	names, err := segNames(m.fs, dir)
	if err != nil {
		return 0
	}
	corrupt := 0
	for j := 0; j+1 < len(names); j++ {
		// The segment is sealed: its record LSNs are < the next segment's
		// first-LSN lower bound.
		if err := m.verifySegment(dir, names[j], names[j+1]); err != nil {
			corrupt++
			m.scrubCorrupt.Add(1)
			m.quarantine(filepath.Join(dir, segName(names[j])))
		}
		m.scrubSegments.Add(1)
	}
	return corrupt
}

// scrubShardSnapshots verifies the snapshot files in one shard's directory.
func (m *Manager) scrubShardSnapshots(dir string) int {
	snaps, err := snapNames(m.fs, dir)
	if err != nil {
		return 0
	}
	corrupt := 0
	for _, lsn := range snaps {
		path := filepath.Join(dir, snapName(lsn))
		if _, err := readSnapshot(m.fs, path, lsn, func(_, _ []byte) error { return nil }); err != nil {
			if walfs.IsNotExist(err) {
				continue // checkpointer removed it mid-pass
			}
			corrupt++
			m.scrubCorrupt.Add(1)
			m.quarantine(path)
		}
		m.scrubSnapshots.Add(1)
	}
	return corrupt
}

// verifySegment re-reads one sealed segment and checks every frame, record,
// and the LSN range [first, limit). A missing file is fine — checkpoint
// truncation runs concurrently.
func (m *Manager) verifySegment(dir string, first, limit uint64) error {
	path := filepath.Join(dir, segName(first))
	b, err := m.fs.ReadFile(path)
	if err != nil {
		if walfs.IsNotExist(err) {
			return nil
		}
		return err
	}
	last := uint64(0)
	off := 0
	for {
		payload, rest, ok, ferr := NextFrame(b[off:])
		if ferr != nil {
			return fmt.Errorf("%w: %s: bad frame at offset %d: %v", ErrCorrupt, path, off, ferr)
		}
		if !ok {
			return nil
		}
		rec, derr := DecodeRecord(payload)
		if derr != nil {
			return fmt.Errorf("%w: %s: bad record at offset %d: %v", ErrCorrupt, path, off, derr)
		}
		if rec.LSN < first || rec.LSN >= limit || rec.LSN <= last {
			return fmt.Errorf("%w: %s: record lsn %d outside [%d, %d) or out of order", ErrCorrupt, path, rec.LSN, first, limit)
		}
		last = rec.LSN
		off = len(b) - len(rest)
	}
}

// quarantine moves a corrupt file aside (unless concurrent truncation already
// removed it).
func (m *Manager) quarantine(path string) {
	if err := m.fs.Rename(path, path+quarantineSuffix); err != nil {
		return
	}
	m.fs.SyncDir(filepath.Dir(path))
	m.quarantined.Add(1)
}
