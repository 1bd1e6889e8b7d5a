package kv

import (
	"errors"
	"fmt"

	"memtx/internal/wal/walfs"
)

// ErrDiskFull is returned to writers while the store is degraded read-only
// because the WAL hit ENOSPC. It is retriable in the protocol sense: the
// write was rejected before any engine commit, nothing diverged, and a retry
// succeeds once the operator frees space and restarts the store (the wedged
// log cannot be resurrected in-process — a failed fsync's dropped
// pages make "retry and hope" indistinguishable from silent data loss).
var ErrDiskFull = errors.New("kv: wal disk full; store is read-only")

// ErrWALQuarantined is returned to writers once the log is wedged by a
// non-space disk error (EIO and friends). The store serves reads; writes are
// rejected before any engine commit.
var ErrWALQuarantined = errors.New("kv: wal failed; store is read-only")

// Degraded reports whether the store has latched read-only degraded mode
// (WAL ENOSPC). Reads are unaffected; writes fail with ErrDiskFull.
func (s *Store) Degraded() bool { return s.walDegraded.Load() }

// noteWALErr latches degraded mode when a surfaced WAL error is an
// out-of-space condition. Called on every append/sync error path; the error
// itself is returned to that caller unchanged (its write may have diverged —
// committed in memory, not on disk — so it must NOT look retriable), while
// every subsequent write fails cleanly at the health gate below.
func (s *Store) noteWALErr(err error) {
	if err != nil && walfs.IsNoSpace(err) {
		s.walDegraded.Store(true)
	}
}

// walHealthErr is the pre-commit health gate: writers call it before
// publishing an engine commit so a store whose WAL can no longer accept the
// record rejects the write cleanly — memory and log never diverge, and the
// client sees a typed, retriable error instead of a dropped connection.
func (s *Store) walHealthErr() error {
	if s.wal == nil {
		return nil
	}
	if s.walDegraded.Load() {
		return ErrDiskFull
	}
	if ferr := s.wal.Log().Failed(); ferr != nil {
		if walfs.IsNoSpace(ferr) {
			s.walDegraded.Store(true)
			return ErrDiskFull
		}
		return fmt.Errorf("%w: %v", ErrWALQuarantined, ferr)
	}
	return nil
}
