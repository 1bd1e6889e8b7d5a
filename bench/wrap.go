package main

import (
	"net"
	"sync/atomic"
	"time"

	"memtx/internal/wal/walfs"
)

// The benchmark hands the server its listener and the WAL its filesystem, and
// these wrappers are where it counts and times what crosses those two
// boundaries. Measured runs use them with counting off: the listener then
// hands accepted connections over untouched and the WAL gets the OS
// filesystem itself.

// listenersOpened counts listeners the benchmark created, for the assertion
// that stm.txds and til.kernels bypass the server.
var listenersOpened atomic.Int64

// ioCounts accumulates what the server did on its connections. tr, when set,
// also receives a span per call.
type ioCounts struct {
	tr                               atomic.Pointer[tracer]
	reads, writes, bytesIn, bytesOut atomic.Int64
}

type ioSnapshot struct{ reads, writes, bytesIn, bytesOut int64 }

func (c *ioCounts) snapshot() ioSnapshot {
	return ioSnapshot{c.reads.Load(), c.writes.Load(), c.bytesIn.Load(), c.bytesOut.Load()}
}

func (a ioSnapshot) sub(b ioSnapshot) ioSnapshot {
	return ioSnapshot{a.reads - b.reads, a.writes - b.writes, a.bytesIn - b.bytesIn, a.bytesOut - b.bytesOut}
}

type listener struct {
	net.Listener
	accepted atomic.Int64
	io       *ioCounts // nil: connections are not wrapped
}

func listen(io *ioCounts) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	listenersOpened.Add(1)
	return &listener{Listener: ln, io: io}, nil
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted.Add(1)
	if l.io != nil {
		c = &countedConn{Conn: c, io: l.io}
	}
	return c, nil
}

// countedConn is the server's side of a connection. Each Read and Write is
// one system call on the socket.
type countedConn struct {
	net.Conn
	io *ioCounts
}

func (c *countedConn) Read(p []byte) (int, error) {
	tr := c.io.tr.Load()
	var start int64
	if tr != nil {
		start = tr.now()
	}
	n, err := c.Conn.Read(p)
	c.io.reads.Add(1)
	c.io.bytesIn.Add(int64(n))
	if tr != nil && n > 0 {
		tr.under("server.read", start, tr.now())
	}
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	tr := c.io.tr.Load()
	var start int64
	if tr != nil {
		start = tr.now()
	}
	// Counted before the bytes leave: the client may read the answer and
	// take a snapshot of the counters before this goroutine runs again.
	c.io.writes.Add(1)
	c.io.bytesOut.Add(int64(len(p)))
	n, err := c.Conn.Write(p)
	if tr != nil {
		tr.under("server.write", start, tr.now())
	}
	return n, err
}

// timingFS wraps the filesystem the WAL runs on and times every content write
// and every flush: the device-side work of the wal layer.
type timingFS struct {
	walfs.FS
	tr                        atomic.Pointer[tracer]
	writes, writeBytes, syncs atomic.Int64
	writeNs, syncNs           atomic.Int64
}

type fsSnapshot struct{ writes, writeBytes, syncs, writeNs, syncNs int64 }

func (f *timingFS) snapshot() fsSnapshot {
	return fsSnapshot{f.writes.Load(), f.writeBytes.Load(), f.syncs.Load(), f.writeNs.Load(), f.syncNs.Load()}
}

func (a fsSnapshot) sub(b fsSnapshot) fsSnapshot {
	return fsSnapshot{a.writes - b.writes, a.writeBytes - b.writeBytes, a.syncs - b.syncs, a.writeNs - b.writeNs, a.syncNs - b.syncNs}
}

func (f *timingFS) timed(name string, ns *atomic.Int64, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	ns.Add(int64(d))
	if tr := f.tr.Load(); tr != nil {
		end := tr.now()
		tr.under(name, end-int64(d), end)
	}
	return err
}

func (f *timingFS) Create(path string, excl bool) (walfs.File, error) {
	file, err := f.FS.Create(path, excl)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

func (f *timingFS) WriteFile(path string, data []byte) error {
	f.writes.Add(1)
	f.writeBytes.Add(int64(len(data)))
	return f.timed("wal.fs.write", &f.writeNs, func() error { return f.FS.WriteFile(path, data) })
}

func (f *timingFS) SyncDir(dir string) error {
	f.syncs.Add(1)
	return f.timed("wal.fs.sync", &f.syncNs, func() error { return f.FS.SyncDir(dir) })
}

type timingFile struct {
	walfs.File
	fs *timingFS
}

func (t *timingFile) Write(p []byte) (n int, err error) {
	t.fs.writes.Add(1)
	t.fs.writeBytes.Add(int64(len(p)))
	err = t.fs.timed("wal.fs.write", &t.fs.writeNs, func() error {
		n, err = t.File.Write(p)
		return err
	})
	return n, err
}

func (t *timingFile) Writev(bufs [][]byte) error {
	t.fs.writes.Add(1)
	for _, b := range bufs {
		t.fs.writeBytes.Add(int64(len(b)))
	}
	return t.fs.timed("wal.fs.write", &t.fs.writeNs, func() error { return t.File.Writev(bufs) })
}

func (t *timingFile) Sync() error {
	t.fs.syncs.Add(1)
	return t.fs.timed("wal.fs.sync", &t.fs.syncNs, t.File.Sync)
}
