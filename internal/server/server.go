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
// # Dispatch
//
// Every command is defined once, as an entry of the commands table: its
// arity, a prep step that validates and parses numeric arguments once, the
// keys it touches, and one apply function that performs the store operations
// inside whatever transaction it is handed and appends the response frame.
// The server never re-states what a command does; it only chooses where the
// transaction around a run of commands begins and commits. There are three
// such boundaries, and all of them run the same connection body (applyRun)
// through the one runner (runTxn):
//
//   - A read batch: up to Config.MaxBatch consecutive read-only commands (GET,
//     MGET, PING) already sitting in the connection's input buffer run in one
//     read-only snapshot (kv.Reader.RunOnce) — one begin/validate/commit for
//     the whole burst, assembled into per-connection scratch buffers, so the
//     steady-state read path does not allocate.
//   - A write batch: up to Config.MaxWriteBatch consecutive buffered SET/INCR
//     commands whose keys hash to the same shard run in one shard-local write
//     transaction — the shape a hot-key pipelined increment burst takes under
//     a skewed workload. Strict in-order pipelining makes the coalescing
//     invisible: no other command from this connection can interleave with
//     the burst, so the responses are byte-identical.
//   - A batch of one: everything else — lone commands, commands that never
//     coalesce (DEL, CAS, TRANSFER, MSET), batching disabled — is the same
//     body over a single command, in a transaction over exactly its keys.
//
// The body rebuilds its responses from scratch on every attempt. If a batch's
// transaction fails (a snapshot's commit-time validation, a deadline, an
// injected panic, an INCR over a non-integer value) its output is discarded
// and every command re-runs as a batch of one, each succeeding or failing on
// its own. A command of another kind or a malformed body ends the batch and
// executes after it, in arrival order, preserving strict response ordering.
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
//     instead of holding its connection forever. A read batch is a single
//     optimistic attempt by construction and is not affected.
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

// String returns the label used in metric export.
func (c Cmd) String() string { return commands[c].name }

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
	// transaction. 0 selects DefaultMaxBatch; negative values disable read
	// batching: every read runs as a batch of one.
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
	// transaction is abandoned and the client gets an ERR response. A read
	// batch is a single optimistic attempt by construction, so only retrying
	// transactions are bounded. 0 disables.
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
// are shared (collectAndRun, execBatch); a mode supplies only its bounds and
// its admission rule.
type batchMode struct {
	max int // most commands per batch; below min this kind of batching is off
	min int // fewest commands worth a batch transaction; fewer run one by one
	// admit reports whether e — already known to be of this mode — may join
	// the batch that first started.
	admit func(first, e *batchEntry) bool

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
	s.write.max, s.write.min = cfg.MaxWriteBatch, 2
	s.write.admit = func(first, e *batchEntry) bool { return e.shard == first.shard }
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
	err   error      // refusal decided at parse time (arity, malformed integer); the store is never touched
	num   int64      // the command's parsed integer argument (INCR delta, TRANSFER amount)
	mode  *batchMode // how the command may coalesce; nil = always a batch of one
	shard int        // the key's shard (write mode only)
}

// conn is one connection's reusable execution state: response scratch
// buffers, parsed-command slots for batch collection, and the transaction
// body bound once so repeated runs execute without allocating.
type conn struct {
	out      []byte               // response frames accumulated this iteration
	body     []byte               // response body scratch
	batch    []batchEntry         // command slots; len == max(1, read.max, write.max)
	n        int                  // commands collected into the current batch
	run      []batchEntry         // the commands the current transaction covers
	mark     int                  // c.out length at the run's start (attempt reset point)
	keys     [][]byte             // the run's key set (shard routing)
	txBody   func(t *kv.Tx) error // bound applyRun, reused across runs
	reader   *kv.Reader           // txBody as a single-attempt snapshot
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
	c.txBody = c.applyRun
	c.reader = s.store.NewReader(c.txBody)
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
					c.n = 1
					s.execBatch(c, nil)
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

// parseEntry parses e.frame into e.cmd and classifies the command once
// against its table entry: its id, any refusal the arguments alone decide
// (arity, a malformed integer — e.err, answered later in arrival order), its
// parsed integer argument, and the batch mode, if any, it may coalesce under —
// for a write also its key's shard. Neither the collector nor the runner ever
// re-derives them. The returned error is a malformed body only.
func (s *Server) parseEntry(e *batchEntry) error {
	if err := wire.ParseCommandInto(e.frame, &e.cmd); err != nil {
		return err
	}
	e.id = classify(e.cmd.Name)
	cmd := &commands[e.id]
	e.mode, e.err = nil, nil
	switch {
	case !cmd.arity(len(e.cmd.Args)):
		e.err = errArity
	case cmd.prep != nil:
		e.err = cmd.prep(e)
	}
	if e.err != nil {
		return nil
	}
	switch {
	case cmd.batch == batchRead && s.read.max >= s.read.min:
		e.mode = &s.read
	case cmd.batch == batchWrite && s.write.max >= s.write.min:
		e.mode = &s.write
		e.shard = s.store.KeyShard(e.cmd.Args[0].B)
	}
	return nil
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

// execBatch answers c.batch[:c.n], appending one response frame per command
// to c.out. Given a mode and at least its minimum of commands, they run as one
// transaction, so a pipelined burst pays one begin/validate/commit instead of
// one per command. If that transaction fails (a read snapshot's commit-time
// validation, a write's deadline, a panic) the batch's output is discarded and
// the batch falls back: like a run too small to batch, or a command that never
// batches (m nil), every command runs as a batch of one, each succeeding or
// failing on its own.
func (s *Server) execBatch(c *conn, m *batchMode) {
	run := c.batch[:c.n]
	c.n = 0
	batched := m != nil && len(run) >= m.min
	if batched {
		m.batches.Add(1)
		m.cmds.Add(uint64(len(run)))
	}
	if !batched || !s.answer(c, run, true) {
		if batched {
			m.fallbacks.Add(1)
		}
		for i := range run {
			s.answer(c, run[i:i+1], false)
		}
	}
	for i := range run {
		s.cmds[run[i].id].Add(1)
	}
}

// answer runs the commands of run as one transaction and leaves exactly their
// response frames appended to c.out. A shed run answers every command with a
// retriable BUSY; none ran. Any other failure of a batch of one is that
// command's own ERR (or typed refusal); of a batched run it reports false with
// nothing appended, and the caller falls back.
func (s *Server) answer(c *conn, run []batchEntry, batched bool) bool {
	err := s.runTxn(c, run, batched)
	if err == nil {
		return true
	}
	c.out = c.out[:c.mark]
	switch {
	case err == errShed:
		for range run {
			c.out = wire.AppendFrame(c.out, bodyBusy)
		}
	case batched:
		return false
	default:
		c.out = wire.AppendFrame(c.out, s.cmdErr(c, err))
	}
	return true
}

var (
	errShed     = errors.New("server: no transaction slot within QueueTimeout")
	errSnapshot = errors.New("server: batch snapshot did not validate")
)

// runTxn is the one place the server runs commands: c.applyRun over run
// inside one transaction, choosing only where that transaction begins and
// commits. A batched read-only run is a single optimistic snapshot attempt on
// the connection's bound Reader; everything else is a transaction over exactly
// the run's keys — shard-local when they co-locate, the cross-shard commit
// path otherwise; read-only when every command is — retried until CmdDeadline.
// On a durable store a write's fsync wait is deferred into c's SyncBatch:
// serveConn syncs before any response reaches the wire, so pipelined writes in
// one window share one group-commit wait. A run that touches no key
// (PINGs, refused commands) needs neither a slot nor a transaction.
//
// A panic inside it (chaos-injected or real) is counted and returned as the
// run's error on a still-usable connection; the slot is released on every path.
func (s *Server) runTxn(c *conn, run []batchEntry, batched bool) (err error) {
	c.run, c.mark = run, len(c.out)
	defer func() {
		s.release(c)
		if r := recover(); r != nil {
			s.panics.Add(1)
			err = fmt.Errorf("server: handler panic: %v", r)
		}
	}()
	// The handler point fires once per command run on its own; a batched
	// command meets it only if its batch falls back.
	if in := chaos.Active(); in != nil && !batched {
		in.Step(chaos.Handler)
	}
	c.keys = c.keys[:0]
	readonly := true
	for i := range run {
		if e := &run[i]; e.err == nil {
			cmd := &commands[e.id]
			c.keys = cmd.keys(e.cmd.Args, c.keys)
			readonly = readonly && cmd.readonly
		}
	}
	if len(c.keys) == 0 {
		return c.applyRun(nil)
	}
	if !s.acquire(c) {
		return errShed
	}
	switch {
	case batched && readonly:
		if committed, _ := c.reader.RunOnce(); !committed {
			return errSnapshot
		}
		return nil
	case readonly:
		return s.store.ViewKeysCtx(nil, s.txOpts, c.keys, c.txBody)
	default:
		return s.store.AtomicKeysDefer(nil, s.txOpts, c.keys, c.sb, c.txBody)
	}
}

// applyRun is the transaction body of every execution form: it applies each
// command of c.run through its table entry, appending response frames to
// c.out. It may re-run on conflict, and a snapshot may be doomed when it runs,
// so each attempt truncates c.out back to the run's start — a failed attempt's
// output never reaches the client (nor can it tear a value: published byte
// records are immutable). A command's error aborts the whole transaction.
func (c *conn) applyRun(t *kv.Tx) error {
	c.out = c.out[:c.mark]
	for i := range c.run {
		e := &c.run[i]
		if e.err != nil {
			c.out = wire.AppendFrame(c.out, c.errBody(e.err))
		} else if err := commands[e.id].apply(c, t, e); err != nil {
			return err
		}
	}
	return nil
}

// batchKind names the pipelined neighbours a command may share one
// transaction with.
type batchKind uint8

const (
	batchNone  batchKind = iota // always a transaction of its own
	batchRead                   // other reads, in one read-only snapshot
	batchWrite                  // same-shard writes, in one shard-local transaction
)

// command is the single definition of one protocol command. Everything the
// server knows about what a command means is here; parseEntry, runTxn and
// applyRun only interpret the table.
type command struct {
	name string // the wire name, matched in any letter case; lowercase, it is the metric label
	// arity reports whether a command with nargs arguments is well-formed.
	arity func(nargs int) bool
	// prep validates the arguments beyond their count and parses the integer
	// one into e.num, once; nil when there is nothing to parse. Its error is
	// the command's ERR response, given without touching the store.
	prep func(e *batchEntry) error
	// keys appends the arguments that are keys to dst: the transaction is
	// declared over exactly their shards.
	keys     func(args []wire.Arg, dst [][]byte) [][]byte
	readonly bool
	batch    batchKind
	// apply performs the command's store operations inside t — whichever
	// transaction the runner chose — and appends its response frame to c.out.
	// It may run more than once (conflict retries, batch fallback), so it keeps
	// no state outside c.out and c.body. A returned error aborts t. t is nil
	// for a command with no keys.
	apply func(c *conn, t *kv.Tx, e *batchEntry) error
}

// exactly is the arity rule of a fixed-argument command.
func exactly(k int) func(int) bool { return func(nargs int) bool { return nargs == k } }

// keyArgs selects every step-th argument among the first n as keys; n < 0
// means among all of them.
func keyArgs(n, step int) func([]wire.Arg, [][]byte) [][]byte {
	return func(args []wire.Arg, dst [][]byte) [][]byte {
		if n >= 0 {
			args = args[:n]
		}
		for i := 0; i < len(args); i += step {
			dst = append(dst, args[i].B)
		}
		return dst
	}
}

var (
	errArity    = errors.New("server: wrong number of arguments")
	errNegative = errors.New("server: negative transfer amount")
)

var commands = [NumCmds]command{
	CmdPing: {
		name: "ping", arity: exactly(0), keys: keyArgs(0, 1), readonly: true, batch: batchRead,
		apply: func(c *conn, _ *kv.Tx, _ *batchEntry) error {
			c.out = wire.AppendFrame(c.out, bodyPong)
			return nil
		},
	},
	CmdGet: {
		name: "get", arity: exactly(1), keys: keyArgs(1, 1), readonly: true, batch: batchRead,
		apply: func(c *conn, t *kv.Tx, e *batchEntry) error {
			c.body = append(c.body[:0], "VAL "...)
			if b, ok := t.AppendGetBlob(c.body, e.cmd.Args[0].B); ok {
				c.body = b
				c.out = wire.AppendFrame(c.out, c.body)
			} else {
				c.out = wire.AppendFrame(c.out, bodyNil)
			}
			return nil
		},
	},
	CmdSet: {
		name: "set", arity: exactly(2), keys: keyArgs(1, 1), batch: batchWrite,
		apply: func(c *conn, t *kv.Tx, e *batchEntry) error {
			t.Set(e.cmd.Args[0].B, e.cmd.Args[1].B)
			c.out = wire.AppendFrame(c.out, bodyOK)
			return nil
		},
	},
	CmdDel: {
		name: "del", arity: exactly(1), keys: keyArgs(1, 1),
		apply: func(c *conn, t *kv.Tx, e *batchEntry) error {
			c.out = wire.AppendFrame(c.out, boolBody(t.Delete(e.cmd.Args[0].B)))
			return nil
		},
	},
	CmdCAS: {
		name: "cas", arity: exactly(3), keys: keyArgs(1, 1),
		apply: func(c *conn, t *kv.Tx, e *batchEntry) error {
			swapped := t.CompareAndSet(e.cmd.Args[0].B, e.cmd.Args[1].B, e.cmd.Args[2].B)
			c.out = wire.AppendFrame(c.out, boolBody(swapped))
			return nil
		},
	},
	CmdIncr: {
		name: "incr", arity: exactly(2), keys: keyArgs(1, 1), batch: batchWrite,
		prep: func(e *batchEntry) (err error) {
			e.num, err = kv.ParseInt(e.cmd.Args[1].B)
			return err
		},
		// An INCR over a non-integer value aborts the transaction: alone that
		// is its ERR; in a write batch the fallback re-runs each command alone,
		// so the batch's SETs land and the INCR earns its ERR exactly as an
		// unbatched pipeline would.
		apply: func(c *conn, t *kv.Tx, e *batchEntry) error {
			after, err := t.Add(e.cmd.Args[0].B, e.num)
			if err != nil {
				return err
			}
			c.out = wire.AppendFrame(c.out, c.intBody(after))
			return nil
		},
	},
	CmdTransfer: {
		name: "transfer", arity: exactly(3), keys: keyArgs(2, 1),
		prep: func(e *batchEntry) (err error) {
			if e.num, err = kv.ParseInt(e.cmd.Args[2].B); err == nil && e.num < 0 {
				err = errNegative
			}
			return err
		},
		apply: func(c *conn, t *kv.Tx, e *batchEntry) error {
			src, dst, amount := e.cmd.Args[0].B, e.cmd.Args[1].B, e.num
			have, err := t.Int(src)
			if err != nil {
				return err
			}
			if have >= amount { // else insufficient funds: commit unchanged
				t.SetInt(src, have-amount)
				if _, err := t.Add(dst, amount); err != nil {
					return err
				}
			}
			c.out = wire.AppendFrame(c.out, boolBody(have >= amount))
			return nil
		},
	},
	CmdMGet: {
		name: "mget", arity: func(nargs int) bool { return nargs >= 1 }, keys: keyArgs(-1, 1), readonly: true, batch: batchRead,
		apply: func(c *conn, t *kv.Tx, e *batchEntry) error {
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
			return nil
		},
	},
	CmdMSet: {
		name: "mset", arity: func(nargs int) bool { return nargs >= 2 && nargs%2 == 0 }, keys: keyArgs(-1, 2),
		apply: func(c *conn, t *kv.Tx, e *batchEntry) error {
			for i := 0; i < len(e.cmd.Args); i += 2 {
				t.Set(e.cmd.Args[i].B, e.cmd.Args[i+1].B)
			}
			c.out = wire.AppendFrame(c.out, bodyOK)
			return nil
		},
	},
	// A name classify does not know is refused at parse time; apply never runs.
	CmdUnknown: {
		name: "unknown", arity: func(int) bool { return true }, keys: keyArgs(0, 1),
		prep: func(e *batchEntry) error { return errors.New("server: unknown command " + e.cmd.Name) },
	},
}

// classify maps a command name, in any letter case, to its Cmd by looking it
// up in the table. It never allocates.
func classify(name string) Cmd {
	for id := range commands[:CmdUnknown] {
		if strings.EqualFold(name, commands[id].name) {
			return Cmd(id)
		}
	}
	return CmdUnknown
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

// boolBody is the protocol's boolean: ":1" or ":0".
func boolBody(ok bool) []byte {
	if ok {
		return bodyInt1
	}
	return bodyInt0
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
