// Package server is stmkvd's TCP front end: it speaks the length-prefixed
// wire protocol (internal/server/wire) and executes commands against a
// sharded transactional store (internal/kv).
//
// Each accepted connection is served by one goroutine that reads request
// frames, executes them in order, and writes response frames in the same
// order — so clients may pipeline arbitrarily many requests. Responses are
// buffered and flushed only when the input buffer drains, which keeps
// syscall counts low under pipelining without adding latency to lone
// requests.
//
// Read-only commands (GET, MGET, PING) take a batched fast path: when a
// pipelining client has left several of them sitting in the connection's
// input buffer, up to Config.MaxBatch consecutive ones are coalesced into a
// single read-only snapshot transaction — one begin/validate/commit covers
// the whole batch instead of one per command. Responses are assembled
// directly into per-connection scratch buffers (reused frame, body, and
// output buffers plus a bound kv.Reader), so the steady-state read path does
// not allocate. If the snapshot fails commit-time validation the batch's
// partial output is discarded and every command re-runs through the
// per-command path, so per-command semantics are unchanged. A write command
// or malformed body ends the batch and executes after it, in arrival order,
// preserving strict response ordering.
//
// Write commands get the mirror-image treatment: up to Config.MaxWriteBatch
// consecutive buffered SET/INCR commands whose keys hash to the same shard
// coalesce into a single shard-local write transaction — the shape a hot-key
// pipelined increment burst takes under a skewed workload, where per-command
// execution would pay one begin/acquire/commit per increment on the same
// contended object. Strict in-order pipelining makes the coalescing
// invisible: no other command from this connection can interleave with the
// burst, so executing it as one atomic step produces byte-identical
// responses. The transaction body rebuilds the batch's responses from
// scratch on every attempt, and if the transaction fails outright (deadline,
// injected panic) the batch's output is discarded and every command re-runs
// through the per-command path, each succeeding or failing on its own.
//
// Commands that run transactions pass through a semaphore bounding the
// number of in-flight store transactions across all connections
// (Config.MaxInflight): past the bound, connections queue — visible as the
// stmkvd_txns_queued gauge — instead of piling more conflicting
// transactions onto the engine. Shutdown performs a graceful drain: stop
// accepting, let every connection finish the requests it has already
// received, flush, then close.
//
// # Robustness
//
// Under overload or faults the server degrades instead of wedging:
//
//   - Load shedding: with Config.QueueTimeout set, a command that cannot
//     get a transaction slot in time is answered with a retriable BUSY
//     frame — the command did not execute, and the connection stays usable.
//   - Command deadlines: with Config.CmdDeadline set, each command's
//     transactional execution is bounded; a command that exhausts its
//     deadline (e.g. stuck behind a contended object) gets an ERR response
//     instead of holding its connection forever. The batched read path is a
//     single optimistic attempt by construction and is not affected.
//   - Slow clients: Config.ReadTimeout bounds how long a client may sit
//     mid-frame (idle connections are never evicted); Config.WriteTimeout
//     bounds each response write. Either expiring evicts the connection.
//   - Panic containment: a panicking command handler (including injected
//     chaos panics) is recovered, its transaction slot released, and the
//     client answered with ERR on a still-usable connection.
//
// # Commands
//
//	PING                       → PONG
//	GET k                      → VAL $n:v | NIL
//	SET k v                    → OK
//	DEL k                      → :1 | :0
//	CAS k old new              → :1 | :0
//	INCR k delta               → :new            (decimal integer values)
//	TRANSFER src dst amount    → :1 | :0         (:0 = insufficient funds)
//	MGET k1 … kn               → VALS a1 … an    (ai = $n:v | NIL)
//	MSET k1 v1 … kn vn         → OK
//
// Every multi-key command is one atomic transaction. Malformed command
// bodies get an ERR $n:msg response on a still-usable connection; framing
// errors are unrecoverable and close it.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memtx"
	"memtx/internal/chaos"
	"memtx/internal/engine"
	"memtx/internal/kv"
	"memtx/internal/obs"
	"memtx/internal/server/wire"
)

// Cmd identifies one protocol command in the per-type counters.
type Cmd int

const (
	CmdPing Cmd = iota
	CmdGet
	CmdSet
	CmdDel
	CmdCAS
	CmdIncr
	CmdTransfer
	CmdMGet
	CmdMSet
	CmdUnknown
	NumCmds
)

var cmdNames = [NumCmds]string{
	"ping", "get", "set", "del", "cas", "incr", "transfer", "mget", "mset", "unknown",
}

// String returns the label used in metric export.
func (c Cmd) String() string { return cmdNames[c] }

// DefaultMaxBatch is the read-batching bound used when Config.MaxBatch is 0.
// A batch's read set grows with its size, and a larger read set is both more
// likely to overlap a concurrent write and more expensive to re-run on
// fallback, so the default stays well below what a 32 KiB input buffer could
// physically hold.
const DefaultMaxBatch = 64

// DefaultMaxWriteBatch is the write-batching bound used when
// Config.MaxWriteBatch is 0. A write batch holds object ownership for the
// whole burst and its write set is re-executed wholesale on conflict, so the
// default stays well below the read-batch bound.
const DefaultMaxWriteBatch = 16

// Config tunes a Server; the zero value is usable.
type Config struct {
	// MaxInflight bounds concurrently executing store transactions across
	// all connections (default 128).
	MaxInflight int
	// MaxFrame bounds accepted request frame bodies (default
	// wire.DefaultMaxFrame).
	MaxFrame int
	// MaxBatch bounds how many consecutive buffered read-only commands
	// (GET/MGET/PING) are coalesced into one read-only snapshot
	// transaction. 0 selects DefaultMaxBatch; negative values disable
	// batching and route every command through the per-command path.
	MaxBatch int
	// MaxWriteBatch bounds how many consecutive buffered same-shard write
	// commands (SET/INCR) are coalesced into one shard-local write
	// transaction. 0 selects DefaultMaxWriteBatch; negative values disable
	// write batching.
	MaxWriteBatch int
	// ErrorLog receives accept and per-connection I/O errors (default: the
	// log package's standard logger).
	ErrorLog *log.Logger
	// CmdDeadline bounds each command's transactional execution; past it the
	// transaction is abandoned and the client gets an ERR response. The
	// batched read path is a single optimistic attempt by construction, so
	// only the per-command path is bounded. 0 disables.
	CmdDeadline time.Duration
	// QueueTimeout bounds how long a command waits for an in-flight
	// transaction slot before it is shed with a retriable BUSY response.
	// 0 means wait indefinitely.
	QueueTimeout time.Duration
	// ReadTimeout bounds how long a client may take to deliver the rest of a
	// frame once its first byte has arrived. Idle connections — nothing
	// buffered, no partial frame — are never evicted. 0 disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response buffer write; a client that stops
	// reading past it is evicted. 0 disables.
	WriteTimeout time.Duration
}

// ErrServerClosed is returned by Serve after Shutdown begins.
var ErrServerClosed = errors.New("server: closed")

// Server serves the stmkvd protocol over TCP. Create with New, start with
// Serve or ListenAndServe, stop with Shutdown.
type Server struct {
	store        *kv.Store
	maxFrame     int
	read, write  batchMode // the two ways pipelined commands coalesce
	errorLog     *log.Logger
	sem          chan struct{}
	txOpts       memtx.TxOptions // per-command bound: MaxElapsed = CmdDeadline
	queueTimeout time.Duration
	readTimeout  time.Duration
	writeTimeout time.Duration

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	wg sync.WaitGroup

	connsTotal  atomic.Uint64
	protoErrors atomic.Uint64
	cmds        [NumCmds]atomic.Uint64
	shed        atomic.Uint64
	panics      atomic.Uint64
	deadlines   atomic.Uint64
	evictions   atomic.Uint64
	diskFull    atomic.Uint64
	readOnly    atomic.Uint64
	active      atomic.Int64
	queued      atomic.Int64
	inflight    atomic.Int64
}

// batchMode is one of the two ways consecutive pipelined commands coalesce
// into a single transaction: read-only commands into one snapshot, same-shard
// SET/INCRs into one shard-local write transaction. Collection and execution
// are shared (collectAndRun, execBatch); a mode supplies only what differs.
type batchMode struct {
	max int // most commands per batch; below min this kind of batching is off
	min int // fewest commands worth a batch transaction; fewer run per command
	// admit reports whether e — already known to be of this mode — may join
	// the batch that first started.
	admit func(first, e *batchEntry) bool
	// run executes c.batch[:c.n] as the mode's one transaction, appending the
	// response frames to c.out; false means the batch must fall back to
	// per-command execution.
	run func(c *conn) bool

	batches, cmds, fallbacks atomic.Uint64
}

// New builds a server over store.
func New(store *kv.Store, cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 128
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = wire.DefaultMaxFrame
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBatch < 0 {
		cfg.MaxBatch = 0 // read batching off
	}
	if cfg.MaxWriteBatch == 0 {
		cfg.MaxWriteBatch = DefaultMaxWriteBatch
	}
	if cfg.MaxWriteBatch < 0 {
		cfg.MaxWriteBatch = 0 // write batching off
	}
	if cfg.ErrorLog == nil {
		cfg.ErrorLog = log.Default()
	}
	s := &Server{
		store:        store,
		maxFrame:     cfg.MaxFrame,
		errorLog:     cfg.ErrorLog,
		sem:          make(chan struct{}, cfg.MaxInflight),
		queueTimeout: cfg.QueueTimeout,
		readTimeout:  cfg.ReadTimeout,
		writeTimeout: cfg.WriteTimeout,
		conns:        map[net.Conn]struct{}{},
	}
	if cfg.CmdDeadline > 0 {
		s.txOpts.MaxElapsed = cfg.CmdDeadline
	}
	// Reads coalesce across shards, and even a lone read takes the batch path
	// (the bound Reader answers it without allocating). Writes coalesce only
	// within slot 0's shard, and a lone write gains nothing from the batch
	// machinery.
	s.read.max, s.read.min = cfg.MaxBatch, 1
	s.read.admit = func(_, _ *batchEntry) bool { return true }
	s.read.run = func(c *conn) bool {
		committed, _ := c.reader.RunOnce()
		return committed
	}
	s.write.max, s.write.min = cfg.MaxWriteBatch, 2
	s.write.admit = func(first, e *batchEntry) bool { return e.shard == first.shard }
	s.write.run = func(c *conn) bool {
		return s.runAtomicKey(c, c.batch[0].cmd.Args[0].B, c.wbody) == nil
	}
	return s
}

// Store returns the server's store.
func (s *Server) Store() *kv.Store { return s.store }

// CmdCount returns the number of completed commands of one type.
func (s *Server) CmdCount(c Cmd) uint64 { return s.cmds[c].Load() }

// BatchStats returns the read-batching counters: snapshot batches executed
// and how many of them failed validation and re-ran per command.
func (s *Server) BatchStats() (batches, fallbacks uint64) {
	return s.read.batches.Load(), s.read.fallbacks.Load()
}

// WriteBatchStats returns the write-batching counters: shard-local write
// batches executed, commands answered through them, and batches whose
// transaction failed and re-ran per command.
func (s *Server) WriteBatchStats() (batches, cmds, fallbacks uint64) {
	return s.write.batches.Load(), s.write.cmds.Load(), s.write.fallbacks.Load()
}

// RobustStats returns the degradation counters: commands shed with BUSY,
// handler panics recovered, command-deadline errors returned, and slow
// clients evicted.
func (s *Server) RobustStats() (shed, panics, deadlines, evictions uint64) {
	return s.shed.Load(), s.panics.Load(), s.deadlines.Load(), s.evictions.Load()
}

// ObsMetrics exports the server's connection, queueing, and read-batching
// figures for the obs registry.
func (s *Server) ObsMetrics() []obs.Metric {
	gauge := func(v int64) uint64 {
		if v < 0 {
			return 0
		}
		return uint64(v)
	}
	ms := []obs.Metric{
		{Name: "stmkvd_connections_active", Help: "Currently open client connections.", Kind: obs.Gauge, Value: gauge(s.active.Load())},
		{Name: "stmkvd_connections_total", Help: "Client connections accepted.", Kind: obs.Counter, Value: s.connsTotal.Load()},
		{Name: "stmkvd_protocol_errors_total", Help: "Malformed frames and command bodies received.", Kind: obs.Counter, Value: s.protoErrors.Load()},
		{Name: "stmkvd_read_batches_total", Help: "Read-only snapshot batches executed.", Kind: obs.Counter, Value: s.read.batches.Load()},
		{Name: "stmkvd_read_batched_commands_total", Help: "Commands answered through read-only snapshot batches.", Kind: obs.Counter, Value: s.read.cmds.Load()},
		{Name: "stmkvd_read_batch_fallbacks_total", Help: "Batches whose snapshot failed validation and re-ran per command.", Kind: obs.Counter, Value: s.read.fallbacks.Load()},
		{Name: "stmkvd_write_batches_total", Help: "Shard-local write batches executed.", Kind: obs.Counter, Value: s.write.batches.Load()},
		{Name: "stmkvd_write_batched_commands_total", Help: "Commands answered through shard-local write batches.", Kind: obs.Counter, Value: s.write.cmds.Load()},
		{Name: "stmkvd_write_batch_fallbacks_total", Help: "Write batches whose transaction failed and re-ran per command.", Kind: obs.Counter, Value: s.write.fallbacks.Load()},
		{Name: "stmkvd_txns_queued", Help: "Commands waiting for an in-flight transaction slot.", Kind: obs.Gauge, Value: gauge(s.queued.Load())},
		{Name: "stmkvd_txns_inflight", Help: "Store transactions currently executing.", Kind: obs.Gauge, Value: gauge(s.inflight.Load())},
		{Name: "stmkvd_shed_total", Help: "Commands shed with BUSY after waiting QueueTimeout for a transaction slot.", Kind: obs.Counter, Value: s.shed.Load()},
		{Name: "stmkvd_panics_recovered_total", Help: "Command handler panics recovered and answered with ERR.", Kind: obs.Counter, Value: s.panics.Load()},
		{Name: "stmkvd_cmd_deadline_total", Help: "Commands that exhausted CmdDeadline and were answered with ERR.", Kind: obs.Counter, Value: s.deadlines.Load()},
		{Name: "stmkvd_slow_client_evictions_total", Help: "Connections evicted for overrunning a read or write timeout.", Kind: obs.Counter, Value: s.evictions.Load()},
		{Name: "stmkvd_diskfull_total", Help: "Writes refused with DISKFULL while the store is degraded read-only.", Kind: obs.Counter, Value: s.diskFull.Load()},
		{Name: "stmkvd_readonly_total", Help: "Writes refused with READONLY because the key's shard quarantined its log.", Kind: obs.Counter, Value: s.readOnly.Load()},
	}
	for c := Cmd(0); c < NumCmds; c++ {
		ms = append(ms, obs.Metric{
			Name:   "stmkvd_commands_total",
			Help:   "Completed protocol commands, by type.",
			Kind:   obs.Counter,
			Labels: []obs.Label{{Key: "cmd", Value: c.String()}},
			Value:  s.cmds[c].Load(),
		})
	}
	return ms
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown; it returns
// ErrServerClosed after a graceful stop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		c, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connsTotal.Add(1)
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// drainWriteGrace bounds how long a draining connection may spend writing
// its final responses to a client that has stopped reading. Without it a
// stalled client mid-write would hold Shutdown until its context expired.
const drainWriteGrace = 1 * time.Second

// Shutdown gracefully drains the server: stop accepting, let every
// connection finish the frames it has already received, then close. If ctx
// expires first the remaining connections are closed hard and ctx's error
// is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	// Poke while still holding s.mu so a connection that observes
	// draining==false cannot clear its read deadline after we set it here —
	// serveConn only touches deadlines under the same lock.
	//
	// The read poke unblocks readers parked in ReadFrame; their loops notice
	// the drain, finish buffered requests, flush, and exit. The write
	// deadline bounds that final flush, so a client that has stopped reading
	// cannot hold the drain past drainWriteGrace.
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Unix(0, 1))
		_ = c.SetWriteDeadline(time.Now().Add(drainWriteGrace))
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// batchEntry is one parsed command held during batch collection. Its frame
// buffer and Args backing array are reused across batches, so steady-state
// collection reads and parses without allocating.
type batchEntry struct {
	frame []byte
	cmd   wire.Command
	id    Cmd
	mode  *batchMode // how the command may coalesce; nil = per-command only
	shard int        // the key's shard (write mode only)
	delta int64      // parsed INCR delta (write mode only)
}

// conn is one connection's reusable execution state: response scratch
// buffers, parsed-command slots for batch collection, and a snapshot reader
// bound once so repeated batches run without allocating.
type conn struct {
	out      []byte       // response frames accumulated this iteration
	body     []byte       // response body scratch
	batch    []batchEntry // command slots; len == max(1, read.max, write.max)
	n        int          // commands collected into the current batch
	mark     int          // c.out length at batch start (attempt reset point)
	keys     [][]byte     // multi-key command scratch (shard routing)
	reader   *kv.Reader
	wbody    func(t *kv.Tx) error // bound writeBatchBody, reused across batches
	slotHeld bool                 // this connection holds a transaction slot
	qt       *time.Timer          // queue-timeout timer, reused across sheds
	sb       *kv.SyncBatch        // deferred WAL syncs (nil without durability)
}

func (s *Server) newConn() *conn {
	slots := s.read.max
	if s.write.max > slots {
		slots = s.write.max
	}
	if slots < 1 {
		slots = 1
	}
	c := &conn{batch: make([]batchEntry, slots)}
	c.reader = s.store.NewReader(c.snapshotBody)
	c.wbody = c.writeBatchBody
	c.sb = s.store.NewSyncBatch()
	return c
}

// serveConn runs one connection's read-execute-respond loop.
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	s.active.Add(1)
	defer s.active.Add(-1)
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()

	br := bufio.NewReaderSize(nc, 32<<10)
	bw := bufio.NewWriterSize(nc, 32<<10)
	c := s.newConn()
	// Retire deferred durability waits even on an abrupt exit (write error,
	// injected connection kill): the records are already appended, and a
	// successfully-synced cross-shard registration left behind would pin log
	// truncation for no reason. No response rides on this Wait — the client
	// saw no ACK. (On a failed Wait the registrations deliberately stay
	// pinned; see kv.SyncBatch.Wait.)
	defer func() { _ = c.sb.Wait() }()
	for {
		// During a drain, serve the requests already buffered (they were
		// received before the drain) and stop once the buffer is empty.
		if s.isDraining() && br.Buffered() == 0 {
			break
		}
		c.out = c.out[:0]
		e := &c.batch[0]
		if s.readTimeout > 0 && br.Buffered() == 0 {
			// Idle between frames: wait for the first byte with no deadline
			// (idle clients are never evicted), then bound delivery of the
			// rest of the frame. Deadlines move only under s.mu so a drain
			// poke cannot be overwritten after it was set.
			s.mu.Lock()
			if s.draining {
				s.mu.Unlock()
				break
			}
			_ = nc.SetReadDeadline(time.Time{})
			s.mu.Unlock()
			if _, err := br.Peek(1); err != nil {
				break // EOF, drain poke, or a dead peer: nothing to answer
			}
			s.mu.Lock()
			if !s.draining {
				_ = nc.SetReadDeadline(time.Now().Add(s.readTimeout))
			}
			s.mu.Unlock()
		}
		frame, err := wire.ReadFrameInto(br, s.maxFrame, e.frame)
		if err != nil {
			if err == io.EOF {
				break // clean disconnect between frames
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if s.isDraining() {
					break // drain poke
				}
				// Mid-frame past ReadTimeout: a stalled or byte-dribbling
				// client; evict it.
				s.evictions.Add(1)
				s.errorLog.Printf("server: evicting slow client %s: %v", nc.RemoteAddr(), err)
				break
			}
			// Framing is lost: report once, then close.
			s.protoErrors.Add(1)
			c.out = wire.AppendFrame(c.out, c.errBody(err))
			_, _ = bw.Write(c.out)
			break
		}
		if connChaos(chaos.FrameRead) {
			return // injected connection kill after a read
		}
		e.frame = frame
		fatal := false
		if perr := s.parseEntry(e); perr != nil {
			// The frame was well-formed, so the connection is still usable.
			s.protoErrors.Add(1)
			c.out = wire.AppendFrame(c.out, c.errBody(perr))
		} else {
			// The command that ends a batch comes back in slot 0: it may begin
			// a batch of its own (a write after a read burst, a read after a
			// write burst, a write on another shard), so dispatch repeats.
			for handoff := true; handoff; {
				if e.mode == nil {
					s.executeOne(c, e)
					break
				}
				fatal, handoff = s.collectAndRun(c, br, e.mode)
			}
		}
		if connChaos(chaos.RespWrite) {
			return // injected connection kill before a write
		}
		s.armWriteDeadline(nc)
		// No response byte may reach the client before the WAL records backing
		// it are durable. Deferred syncs drain at the flush boundary below; a
		// response that would overflow the write buffer (forcing bufio to
		// flush mid-window) must drain them first.
		if c.sb.Pending() && bw.Available() < len(c.out) {
			if err := c.sb.Wait(); err != nil {
				s.writeErr(nc, err)
				return
			}
		}
		if _, err := bw.Write(c.out); err != nil {
			s.writeErr(nc, err)
			return
		}
		if fatal {
			break
		}
		// Flush only when no further pipelined request is already buffered.
		if br.Buffered() == 0 {
			if err := c.sb.Wait(); err != nil {
				s.writeErr(nc, err)
				return
			}
			if err := bw.Flush(); err != nil {
				s.writeErr(nc, err)
				return
			}
		}
	}
	s.armWriteDeadline(nc)
	// A wedged log means the buffered responses' records never became
	// durable: drop the connection without flushing them (an unacknowledged
	// write may be retried; an acknowledged-then-lost one is corruption).
	if err := c.sb.Wait(); err != nil {
		s.writeErr(nc, err)
		return
	}
	_ = bw.Flush()
}

// connChaos runs one chaos injection point on the connection's I/O path.
// Delays sleep in place; aborts and panics both report kill — at the
// transport layer the only meaningful fault is dropping the connection.
func connChaos(p chaos.Point) (kill bool) {
	in := chaos.Active()
	if in == nil {
		return false
	}
	act, d := in.Decide(p)
	switch act {
	case chaos.ActDelay:
		time.Sleep(d)
	case chaos.ActAbort, chaos.ActPanic:
		return true
	}
	return false
}

// armWriteDeadline bounds the next buffered write when WriteTimeout is
// configured. During a drain the Shutdown poke's drainWriteGrace deadline
// stays in force.
func (s *Server) armWriteDeadline(nc net.Conn) {
	if s.writeTimeout <= 0 {
		return
	}
	s.mu.Lock()
	if !s.draining {
		_ = nc.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	}
	s.mu.Unlock()
}

// writeErr classifies a response-write failure: a timeout outside a drain
// means the client stopped reading and was evicted; anything else is a
// plain disconnect and stays quiet.
func (s *Server) writeErr(nc net.Conn, err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() && !s.isDraining() {
		s.evictions.Add(1)
		s.errorLog.Printf("server: evicting slow client %s: write stalled: %v", nc.RemoteAddr(), err)
	}
}

// parseEntry parses e.frame into e.cmd and classifies the command once: its
// id and the batch mode, if any, it may coalesce under — for a write also its
// key's shard and (via writeBatchable) the INCR delta, so neither the
// collector nor the dispatcher ever re-derives them.
func (s *Server) parseEntry(e *batchEntry) error {
	if err := wire.ParseCommandInto(e.frame, &e.cmd); err != nil {
		return err
	}
	e.id = classify(e.cmd.Name)
	e.mode = nil
	switch {
	case s.read.max >= s.read.min && batchable(e):
		e.mode = &s.read
	case s.write.max >= s.write.min && writeBatchable(e):
		e.mode = &s.write
		e.shard = s.store.KeyShard(e.cmd.Args[0].B)
	}
	return nil
}

// executeOne runs e through the per-command path and answers it.
func (s *Server) executeOne(c *conn, e *batchEntry) {
	resp := s.execute(c, &e.cmd, e.id)
	s.cmds[e.id].Add(1)
	c.out = wire.AppendFrame(c.out, resp)
}

// collectAndRun is the one batch collector. Slot 0 holds a parsed command of
// mode m; it gathers further commands already sitting in br's buffer that m
// admits into c.batch, executes the batch, then deals with whatever ended
// collection — always after the batch, preserving arrival order: a command m
// did not admit is swapped into slot 0 and handed back to the dispatcher
// (handoff true), a malformed body gets its ERR, and a framing error gets its
// ERR and closes the connection (fatal true). It never reads from the
// network: FrameBuffered only admits frames that are fully buffered, so
// collection cannot block mid-batch.
func (s *Server) collectAndRun(c *conn, br *bufio.Reader, m *batchMode) (fatal, handoff bool) {
	c.n = 1
	var endErr error // parse or framing error that ended collection
	for c.n < m.max && wire.FrameBuffered(br) {
		e := &c.batch[c.n]
		frame, err := wire.ReadFrameInto(br, s.maxFrame, e.frame)
		if err != nil {
			endErr, fatal = err, true
			break
		}
		e.frame = frame
		if endErr = s.parseEntry(e); endErr != nil {
			break
		}
		if e.mode != m || !m.admit(&c.batch[0], e) {
			handoff = true
			break
		}
		c.n++
	}
	pendIdx := c.n
	s.execBatch(c, m)
	switch {
	case handoff:
		c.batch[0], c.batch[pendIdx] = c.batch[pendIdx], c.batch[0]
	case endErr != nil:
		s.protoErrors.Add(1)
		c.out = wire.AppendFrame(c.out, c.errBody(endErr))
	}
	return fatal, handoff
}

// execBatch answers c.batch[:c.n] — commands of mode m — appending one
// response frame per command to c.out. The batch runs as m's one
// transaction, so a pipelined burst pays one begin/validate/commit instead of
// one per command. If that transaction fails (a read snapshot's commit-time
// validation, a write's deadline, a panic) the batch's partial output is
// discarded and every command re-runs through the per-command path, each
// succeeding or failing on its own. A batch of only PINGs skips the store
// entirely; a batch smaller than m.min skips the batch machinery.
func (s *Server) execBatch(c *conn, m *batchMode) {
	n := c.n
	if n < m.min {
		for i := 0; i < n; i++ {
			s.executeOne(c, &c.batch[i])
		}
		c.n = 0
		return
	}
	m.batches.Add(1)
	m.cmds.Add(uint64(n))
	needsTxn := false
	for i := 0; i < n; i++ {
		if c.batch[i].id != CmdPing {
			needsTxn = true
			break
		}
	}
	if !needsTxn {
		for i := 0; i < n; i++ {
			c.out = wire.AppendFrame(c.out, bodyPong)
		}
	} else if !s.acquire(c) {
		// Shed: every command in the batch gets a retriable BUSY; none ran.
		for i := 0; i < n; i++ {
			c.out = wire.AppendFrame(c.out, bodyBusy)
		}
	} else {
		c.mark = len(c.out)
		if !s.runBatchTxn(c, m) {
			m.fallbacks.Add(1)
			c.out = c.out[:c.mark]
			for i := 0; i < n; i++ {
				e := &c.batch[i]
				c.out = wire.AppendFrame(c.out, s.execute(c, &e.cmd, e.id))
			}
		}
	}
	for i := 0; i < n; i++ {
		s.cmds[c.batch[i].id].Add(1)
	}
	c.n = 0
}

// runBatchTxn runs the batch's transaction in the slot acquire claimed, with
// panic containment: a panic inside it (chaos-injected or real) is counted
// and reports not-committed, so the batch falls back to per-command execution
// — where each command gets its own containment — like a validation failure
// would. The slot is released on every path.
func (s *Server) runBatchTxn(c *conn, m *batchMode) (committed bool) {
	defer func() {
		s.release(c)
		if r := recover(); r != nil {
			s.panics.Add(1)
			committed = false
		}
	}()
	return m.run(c)
}

// snapshotBody answers the collected batch against one read-only snapshot,
// appending response frames to c.out. The snapshot may be doomed when this
// runs — RunOnce discards the output on validation failure — but it can
// never tear a value: published byte records are immutable.
func (c *conn) snapshotBody(t *kv.Tx) error {
	for i := 0; i < c.n; i++ {
		e := &c.batch[i]
		switch e.id {
		case CmdPing:
			c.out = wire.AppendFrame(c.out, bodyPong)
		case CmdGet:
			c.body = append(c.body[:0], "VAL "...)
			if b, ok := t.AppendGetBlob(c.body, e.cmd.Args[0].B); ok {
				c.body = b
				c.out = wire.AppendFrame(c.out, c.body)
			} else {
				c.out = wire.AppendFrame(c.out, bodyNil)
			}
		case CmdMGet:
			c.body = append(c.body[:0], "VALS"...)
			for _, a := range e.cmd.Args {
				c.body = append(c.body, ' ')
				if b, ok := t.AppendGetBlob(c.body, a.B); ok {
					c.body = b
				} else {
					c.body = append(c.body, "NIL"...)
				}
			}
			c.out = wire.AppendFrame(c.out, c.body)
		}
	}
	return nil
}

// batchable reports whether e may join a read-only snapshot batch: a
// read-only command with valid arity. Wrong-arity spellings go through the
// per-command path for their ERR.
func batchable(e *batchEntry) bool {
	switch e.id {
	case CmdPing:
		return len(e.cmd.Args) == 0
	case CmdGet:
		return len(e.cmd.Args) == 1
	case CmdMGet:
		return len(e.cmd.Args) >= 1
	}
	return false
}

// writeBatchable reports whether e may join a shard-local write batch: a
// single-key unconditional write with valid arity and, for INCR, a parseable
// delta (stashed in e.delta). Everything else — including a malformed delta,
// which earns its ERR without touching the store — goes through the
// per-command path.
func writeBatchable(e *batchEntry) bool {
	switch e.id {
	case CmdSet:
		return len(e.cmd.Args) == 2
	case CmdIncr:
		if len(e.cmd.Args) != 2 {
			return false
		}
		d, err := kv.ParseInt(e.cmd.Args[1].B)
		if err != nil {
			return false
		}
		e.delta = d
		return true
	}
	return false
}

// writeBatchBody applies the collected batch inside one write transaction,
// appending response frames to c.out. The body may re-run on conflict, so it
// truncates c.out back to the batch's start each attempt — output from a
// doomed attempt is never visible to the client. An INCR over a non-integer
// value aborts the whole transaction; the fallback then re-runs each command
// alone, so the SETs land and the INCR earns its ERR exactly as an unbatched
// pipeline would.
func (c *conn) writeBatchBody(t *kv.Tx) error {
	c.out = c.out[:c.mark]
	for i := 0; i < c.n; i++ {
		e := &c.batch[i]
		switch e.id {
		case CmdSet:
			t.Set(e.cmd.Args[0].B, e.cmd.Args[1].B)
			c.out = wire.AppendFrame(c.out, bodyOK)
		case CmdIncr:
			after, err := t.Add(e.cmd.Args[0].B, e.delta)
			if err != nil {
				return err
			}
			c.out = wire.AppendFrame(c.out, c.intBody(after))
		}
	}
	return nil
}

// classify maps a command name to its Cmd. The canonical upper- and
// lowercase spellings match without allocating (their names are interned by
// the parser); mixed-case spellings pay one ToUpper allocation.
func classify(name string) Cmd {
	switch name {
	case "PING", "ping":
		return CmdPing
	case "GET", "get":
		return CmdGet
	case "SET", "set":
		return CmdSet
	case "DEL", "del":
		return CmdDel
	case "CAS", "cas":
		return CmdCAS
	case "INCR", "incr":
		return CmdIncr
	case "TRANSFER", "transfer":
		return CmdTransfer
	case "MGET", "mget":
		return CmdMGet
	case "MSET", "mset":
		return CmdMSet
	default:
		if up := strings.ToUpper(name); up != name {
			return classify(up)
		}
		return CmdUnknown
	}
}

// Response bodies reused across commands. BUSY is the retriable shed
// response: the command did not execute and may be resent as-is.
var (
	bodyPong = []byte("PONG")
	bodyOK   = []byte("OK")
	bodyNil  = []byte("NIL")
	bodyInt0 = []byte(":0")
	bodyInt1 = []byte(":1")
	bodyBusy = []byte("BUSY")
	// DISKFULL and READONLY are retriable like BUSY: the write was rejected
	// before any state changed. DISKFULL means the store is degraded
	// read-only on a full disk; READONLY means the key's shard quarantined
	// its log after a disk error. Reads keep working under both.
	bodyDiskFull = []byte("DISKFULL")
	bodyReadOnly = []byte("READONLY")
)

// errBody renders err as an "ERR $n:msg" body (the encoding AppendCommand
// would produce) into c's scratch.
func (c *conn) errBody(err error) []byte {
	msg := err.Error()
	c.body = append(c.body[:0], "ERR $"...)
	c.body = strconv.AppendInt(c.body, int64(len(msg)), 10)
	c.body = append(c.body, ':')
	c.body = append(c.body, msg...)
	return c.body
}

// intBody renders ":v" into c's scratch; 0 and 1 — the booleans of the
// protocol — come from static bodies.
func (c *conn) intBody(v int64) []byte {
	if v == 0 {
		return bodyInt0
	}
	if v == 1 {
		return bodyInt1
	}
	c.body = append(c.body[:0], ':')
	c.body = strconv.AppendInt(c.body, v, 10)
	return c.body
}

var errArity = errors.New("server: wrong number of arguments")

// acquire claims an in-flight transaction slot for c, waiting at most
// QueueTimeout when the server is saturated. It reports false when the
// command must be shed: the caller answers BUSY without executing. The
// uncontended path is one nonblocking channel send — no gauge churn, no
// timer — so an unsaturated server pays nothing for shedding support.
func (s *Server) acquire(c *conn) bool {
	select {
	case s.sem <- struct{}{}:
	default:
		s.queued.Add(1)
		if s.queueTimeout <= 0 {
			s.sem <- struct{}{}
		} else {
			if c.qt == nil {
				c.qt = time.NewTimer(s.queueTimeout)
			} else {
				c.qt.Reset(s.queueTimeout)
			}
			select {
			case s.sem <- struct{}{}:
				if !c.qt.Stop() {
					<-c.qt.C
				}
			case <-c.qt.C:
				s.queued.Add(-1)
				s.shed.Add(1)
				return false
			}
		}
		s.queued.Add(-1)
	}
	s.inflight.Add(1)
	c.slotHeld = true
	return true
}

// release returns c's transaction slot if held. It is idempotent so the
// panic-recovery paths can release unconditionally without tracking whether
// the normal path already did.
func (s *Server) release(c *conn) {
	if !c.slotHeld {
		return
	}
	c.slotHeld = false
	s.inflight.Add(-1)
	<-s.sem
}

// runAtomicKey runs body as one write transaction pinned to key's shard,
// bounded by CmdDeadline when one is configured. Single-key commands never
// touch any state outside that shard. On a durable store the commit's fsync
// wait is deferred into c's SyncBatch — serveConn syncs before any response
// reaches the wire, so pipelined writes in one window share one group-commit
// wait per shard instead of parking per command.
func (s *Server) runAtomicKey(c *conn, key []byte, body func(t *kv.Tx) error) error {
	return s.store.AtomicKeyDefer(nil, s.txOpts, key, c.sb, body)
}

// runViewKey is runAtomicKey's read-only twin.
func (s *Server) runViewKey(key []byte, body func(t *kv.Tx) error) error {
	return s.store.ViewKeyCtx(nil, s.txOpts, key, body)
}

// runAtomicKeys runs body atomically over the shards keys hash to: locally
// when they co-locate, through the cross-shard commit path otherwise. Like
// runAtomicKey it defers the durability wait into c's SyncBatch.
func (s *Server) runAtomicKeys(c *conn, keys [][]byte, body func(t *kv.Tx) error) error {
	return s.store.AtomicKeysDefer(nil, s.txOpts, keys, c.sb, body)
}

// runViewKeys is runAtomicKeys' read-only twin.
func (s *Server) runViewKeys(keys [][]byte, body func(t *kv.Tx) error) error {
	return s.store.ViewKeysCtx(nil, s.txOpts, keys, body)
}

// cmdErr renders a command error, counting deadline/budget exhaustion on
// the way through. Disk-health refusals from the store become the typed
// retriable bodies DISKFULL and READONLY instead of generic ERR, so clients
// can tell "back off and retry later" from a programming error.
func (s *Server) cmdErr(c *conn, err error) []byte {
	if errors.Is(err, kv.ErrDiskFull) {
		s.diskFull.Add(1)
		return bodyDiskFull
	}
	if errors.Is(err, kv.ErrWALQuarantined) {
		s.readOnly.Add(1)
		return bodyReadOnly
	}
	var te *engine.TimeoutError
	if errors.As(err, &te) {
		s.deadlines.Add(1)
	}
	return c.errBody(err)
}

// execute runs one command through the per-command path — the only path for
// writes, and the fallback for reads whose batch failed validation. It
// contains handler panics: the transaction slot is released, the panic
// counted, and the client answered with ERR on a still-usable connection.
// The returned body may be backed by c's scratch and is valid only until
// c's next use.
func (s *Server) execute(c *conn, cmd *wire.Command, id Cmd) (resp []byte) {
	defer func() {
		if r := recover(); r != nil {
			s.release(c)
			s.panics.Add(1)
			resp = c.errBody(fmt.Errorf("server: handler panic: %v", r))
		}
	}()
	if in := chaos.Active(); in != nil {
		in.Step(chaos.Handler)
	}
	return s.executeCmd(c, cmd, id)
}

func (s *Server) executeCmd(c *conn, cmd *wire.Command, id Cmd) []byte {
	args := cmd.Args
	switch id {
	case CmdPing:
		if len(args) != 0 {
			return c.errBody(errArity)
		}
		return bodyPong

	case CmdGet:
		if len(args) != 1 {
			return c.errBody(errArity)
		}
		if !s.acquire(c) {
			return bodyBusy
		}
		var v []byte
		var ok bool
		err := s.runViewKey(args[0].B, func(t *kv.Tx) error {
			v, ok = t.Get(args[0].B)
			return nil
		})
		s.release(c)
		if err != nil {
			return s.cmdErr(c, err)
		}
		if !ok {
			return bodyNil
		}
		c.body = wire.AppendCommand(c.body[:0], "VAL", wire.Blob(v))
		return c.body

	case CmdSet:
		if len(args) != 2 {
			return c.errBody(errArity)
		}
		if !s.acquire(c) {
			return bodyBusy
		}
		err := s.runAtomicKey(c, args[0].B, func(t *kv.Tx) error {
			t.Set(args[0].B, args[1].B)
			return nil
		})
		s.release(c)
		if err != nil {
			return s.cmdErr(c, err)
		}
		return bodyOK

	case CmdDel:
		if len(args) != 1 {
			return c.errBody(errArity)
		}
		if !s.acquire(c) {
			return bodyBusy
		}
		removed := false
		err := s.runAtomicKey(c, args[0].B, func(t *kv.Tx) error {
			removed = t.Delete(args[0].B)
			return nil
		})
		s.release(c)
		if err != nil {
			return s.cmdErr(c, err)
		}
		if removed {
			return bodyInt1
		}
		return bodyInt0

	case CmdCAS:
		if len(args) != 3 {
			return c.errBody(errArity)
		}
		if !s.acquire(c) {
			return bodyBusy
		}
		swapped := false
		err := s.runAtomicKey(c, args[0].B, func(t *kv.Tx) error {
			swapped = t.CompareAndSet(args[0].B, args[1].B, args[2].B)
			return nil
		})
		s.release(c)
		if err != nil {
			return s.cmdErr(c, err)
		}
		if swapped {
			return bodyInt1
		}
		return bodyInt0

	case CmdIncr:
		if len(args) != 2 {
			return c.errBody(errArity)
		}
		delta, err := kv.ParseInt(args[1].B)
		if err != nil {
			return c.errBody(err)
		}
		if !s.acquire(c) {
			return bodyBusy
		}
		var after int64
		err = s.runAtomicKey(c, args[0].B, func(t *kv.Tx) error {
			var err error
			after, err = t.Add(args[0].B, delta)
			return err
		})
		s.release(c)
		if err != nil {
			return s.cmdErr(c, err)
		}
		return c.intBody(after)

	case CmdTransfer:
		if len(args) != 3 {
			return c.errBody(errArity)
		}
		amount, err := kv.ParseInt(args[2].B)
		if err != nil {
			return c.errBody(err)
		}
		if amount < 0 {
			return c.errBody(errors.New("server: negative transfer amount"))
		}
		if !s.acquire(c) {
			return bodyBusy
		}
		ok := false
		c.keys = append(c.keys[:0], args[0].B, args[1].B)
		err = s.runAtomicKeys(c, c.keys, func(t *kv.Tx) error {
			ok = false
			src, err := t.Int(args[0].B)
			if err != nil {
				return err
			}
			if src < amount {
				return nil // insufficient funds: commit unchanged
			}
			t.SetInt(args[0].B, src-amount)
			dst, err := t.Int(args[1].B)
			if err != nil {
				return err
			}
			t.SetInt(args[1].B, dst+amount)
			ok = true
			return nil
		})
		s.release(c)
		if err != nil {
			return s.cmdErr(c, err)
		}
		if ok {
			return bodyInt1
		}
		return bodyInt0

	case CmdMGet:
		if len(args) == 0 {
			return c.errBody(errArity)
		}
		if !s.acquire(c) {
			return bodyBusy
		}
		vals := make([]wire.Arg, len(args))
		c.keys = c.keys[:0]
		for _, a := range args {
			c.keys = append(c.keys, a.B)
		}
		err := s.runViewKeys(c.keys, func(t *kv.Tx) error {
			for i, a := range args {
				if v, ok := t.Get(a.B); ok {
					vals[i] = wire.Blob(v)
				} else {
					vals[i] = wire.Bare("NIL")
				}
			}
			return nil
		})
		s.release(c)
		if err != nil {
			return s.cmdErr(c, err)
		}
		c.body = wire.AppendCommand(c.body[:0], "VALS", vals...)
		return c.body

	case CmdMSet:
		if len(args) == 0 || len(args)%2 != 0 {
			return c.errBody(errArity)
		}
		if !s.acquire(c) {
			return bodyBusy
		}
		c.keys = c.keys[:0]
		for i := 0; i < len(args); i += 2 {
			c.keys = append(c.keys, args[i].B)
		}
		err := s.runAtomicKeys(c, c.keys, func(t *kv.Tx) error {
			for i := 0; i < len(args); i += 2 {
				t.Set(args[i].B, args[i+1].B)
			}
			return nil
		})
		s.release(c)
		if err != nil {
			return s.cmdErr(c, err)
		}
		return bodyOK

	default:
		return c.errBody(errors.New("server: unknown command " + cmd.Name))
	}
}
