package walfs

import (
	"path/filepath"
	"strings"
	"sync"
	"syscall"
)

// Fault wraps an FS with deterministic fault injection. Faults are armed by
// the test, fire on the first matching operation, and model the three disk
// failure classes the WAL must survive:
//
//   - Write budget: once the budget is spent, writes fail with ENOSPC. A
//     failing write still lands a sector-aligned prefix (a torn write), the
//     same partial state a full device leaves behind.
//   - Sync failure: the next fsync of a matching file fails, optionally
//     dropping the unsynced pages (fsyncgate). The WAL must wedge the log —
//     never re-sync and report durable. A directory fsync can fail alone
//     too, leaving that directory's renames and removes undurable.
//   - Path fault: every write-side operation on matching paths fails
//     persistently (a dying device under the log), driving quarantine.
type Fault struct {
	inner FS

	mu            sync.Mutex
	budget        int64 // remaining write bytes; <0 = unlimited
	syncFaults    []syncFault
	pathFaults    []pathFault
	dirSyncFaults map[string]error // one-shot SyncDir failures, by directory
}

type syncFault struct {
	substr string
	err    error
	drop   bool
}

type pathFault struct {
	substr string
	err    error
}

// NewFault wraps inner (typically a *Mem) with no faults armed.
func NewFault(inner FS) *Fault {
	return &Fault{inner: inner, budget: -1}
}

// SetWriteBudget arms the ENOSPC fault: after n more bytes of file writes,
// writes fail with syscall.ENOSPC, the failing write landing only a
// sector-aligned prefix of whatever budget remained.
func (f *Fault) SetWriteBudget(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budget = n
}

// ClearWriteBudget removes the write budget — the disk has space again.
func (f *Fault) ClearWriteBudget() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budget = -1
}

// FailNextSync arms a one-shot fsync failure for the next Sync of a file
// whose path contains substr. With dropPages set the file's unsynced writes
// are discarded first, modeling a kernel that invalidated the dirty pages.
func (f *Fault) FailNextSync(substr string, err error, dropPages bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncFaults = append(f.syncFaults, syncFault{substr: substr, err: err, drop: dropPages})
}

// FailNextSyncDir arms a one-shot failure for the next SyncDir of exactly
// dir. The entry operations that fsync would have committed stay undurable;
// writes, creates and renames inside dir still succeed.
func (f *Fault) FailNextSyncDir(dir string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dirSyncFaults == nil {
		f.dirSyncFaults = map[string]error{}
	}
	f.dirSyncFaults[filepath.Clean(dir)] = err
}

// FailPath arms a persistent fault: every write, sync, create, rename,
// remove, or truncate touching a path that contains substr fails with err.
func (f *Fault) FailPath(substr string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pathFaults = append(f.pathFaults, pathFault{substr: substr, err: err})
}

// ClearPathFaults disarms all persistent path faults.
func (f *Fault) ClearPathFaults() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pathFaults = nil
}

func (f *Fault) pathErr(path string) error {
	for _, pf := range f.pathFaults {
		if strings.Contains(path, pf.substr) {
			return pf.err
		}
	}
	return nil
}

// takeSyncFault consumes and returns the first armed sync fault matching
// path, or nil.
func (f *Fault) takeSyncFault(path string) *syncFault {
	for i := range f.syncFaults {
		if strings.Contains(path, f.syncFaults[i].substr) {
			sf := f.syncFaults[i]
			f.syncFaults = append(f.syncFaults[:i], f.syncFaults[i+1:]...)
			return &sf
		}
	}
	return nil
}

// charge deducts n write bytes from the budget. It returns how many bytes
// may land (sector-aligned once the budget is exceeded) and whether the
// write must fail with ENOSPC.
func (f *Fault) charge(n int) (allowed int, full bool) {
	if f.budget < 0 {
		return n, false
	}
	if int64(n) <= f.budget {
		f.budget -= int64(n)
		return n, false
	}
	allowed = int(f.budget) / SectorSize * SectorSize
	f.budget = 0
	return allowed, true
}

func (f *Fault) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

func (f *Fault) Create(path string, excl bool) (File, error) {
	f.mu.Lock()
	err := f.pathErr(path)
	f.mu.Unlock()
	if err != nil {
		return nil, err
	}
	inner, err := f.inner.Create(path, excl)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, path: path, inner: inner}, nil
}

func (f *Fault) ReadFile(path string) ([]byte, error) { return f.inner.ReadFile(path) }

func (f *Fault) WriteFile(path string, data []byte) error {
	f.mu.Lock()
	err := f.pathErr(path)
	if err == nil {
		if _, full := f.charge(len(data)); full {
			err = syscall.ENOSPC
		}
	}
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.inner.WriteFile(path, data)
}

func (f *Fault) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

func (f *Fault) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	err := f.pathErr(oldpath)
	if err == nil {
		err = f.pathErr(newpath)
	}
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Fault) Remove(path string) error {
	f.mu.Lock()
	err := f.pathErr(path)
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.inner.Remove(path)
}

func (f *Fault) Truncate(path string, size int64) error {
	f.mu.Lock()
	err := f.pathErr(path)
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.inner.Truncate(path, size)
}

func (f *Fault) Size(path string) (int64, error) { return f.inner.Size(path) }

func (f *Fault) SyncDir(dir string) error {
	f.mu.Lock()
	err := f.pathErr(dir)
	if derr, ok := f.dirSyncFaults[filepath.Clean(dir)]; ok && err == nil {
		delete(f.dirSyncFaults, filepath.Clean(dir))
		err = derr
	}
	f.mu.Unlock()
	if err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultFile applies the write budget and armed faults to one open file.
type faultFile struct {
	fs    *Fault
	path  string
	inner File
	joinb []byte // scratch for torn Writev
}

func (h *faultFile) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	err := h.fs.pathErr(h.path)
	var allowed int
	var full bool
	if err == nil {
		allowed, full = h.fs.charge(len(p))
	}
	h.fs.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if full {
		if allowed > 0 {
			if _, werr := h.inner.Write(p[:allowed]); werr != nil {
				return 0, werr
			}
		}
		return allowed, syscall.ENOSPC
	}
	return h.inner.Write(p)
}

func (h *faultFile) Writev(bufs [][]byte) error {
	h.fs.mu.Lock()
	err := h.fs.pathErr(h.path)
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	var allowed int
	var full bool
	if err == nil {
		allowed, full = h.fs.charge(total)
	}
	h.fs.mu.Unlock()
	if err != nil {
		return err
	}
	if full {
		if allowed > 0 {
			// Land the sector-aligned prefix: gather and write allowed bytes.
			b := h.joinb[:0]
			for _, p := range bufs {
				if len(b)+len(p) > allowed {
					p = p[:allowed-len(b)]
				}
				b = append(b, p...)
				if len(b) == allowed {
					break
				}
			}
			h.joinb = b
			if _, werr := h.inner.Write(b); werr != nil {
				return werr
			}
		}
		return syscall.ENOSPC
	}
	return h.inner.Writev(bufs)
}

func (h *faultFile) Sync() error {
	h.fs.mu.Lock()
	err := h.fs.pathErr(h.path)
	var sf *syncFault
	if err == nil {
		sf = h.fs.takeSyncFault(h.path)
	}
	h.fs.mu.Unlock()
	if err != nil {
		return err
	}
	if sf != nil {
		if sf.drop {
			if d, ok := h.inner.(pageDropper); ok {
				d.dropUnsynced()
			}
		}
		return sf.err
	}
	return h.inner.Sync()
}

func (h *faultFile) Close() error { return h.inner.Close() }
