package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// tally is what one connection saw. Tallies of the connections are added up
// when a phase ends.
type tally struct {
	attempted uint64 // requests sent
	failed    uint64 // answered ERR/BUSY/DISKFULL/READONLY, malformed, lost, or carrying a bad value
	byKind    [numOpKinds]uint64
	incrSum   uint64 // sum of the deltas of acknowledged INCRs
	declined  uint64 // TRANSFERs answered :0 (insufficient funds), which is not a failure
	firstErr  string
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for i := range t.byKind {
		t.byKind[i] += o.byKind[i]
	}
	t.incrSum += o.incrSum
	t.declined += o.declined
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

// client is one connection of the load generator.
type client struct {
	spec    *kvSpec
	nc      net.Conn
	br      *bufio.Reader
	out     []byte
	scratch []byte
	resp    []byte
	tally   tally
}

func dial(spec *kvSpec, addr string) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{spec: spec, nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

// readResponse reads one response frame and returns its body, which is valid
// until the next call.
func (c *client) readResponse() ([]byte, error) {
	n := 0
	for digits := 0; ; digits++ {
		b, err := c.br.ReadByte()
		if err != nil {
			return nil, err
		}
		if b == ' ' && digits > 0 {
			break
		}
		if b < '0' || b > '9' || digits >= 8 {
			return nil, errors.New("malformed frame size")
		}
		n = n*10 + int(b-'0')
	}
	if cap(c.resp) < n+1 {
		c.resp = make([]byte, n+1)
	}
	buf := c.resp[:n+1]
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return nil, err
	}
	if buf[n] != '\n' {
		return nil, errors.New("frame not terminated by LF")
	}
	return buf[:n], nil
}

// check counts the response to o, as a failure unless it is the answer a
// correct server gives.
func (t *tally) check(spec *kvSpec, o op, body []byte) {
	t.byKind[o.kind]++
	switch o.kind {
	case opGet:
		// Every key is preloaded and never deleted, so NIL is wrong too.
		v, ok := blobOf(body, "VAL ")
		if !ok || !checkValue(v, o.a, spec.valueSize) {
			t.fail("GET k%07d answered %q", o.a, clip(body))
		}
	case opSet:
		if string(body) != "OK" {
			t.fail("SET k%07d answered %q", o.a, clip(body))
		}
	case opIncr:
		if len(body) < 2 || body[0] != ':' {
			t.fail("INCR c%07d answered %q", o.a, clip(body))
			return
		}
		t.incrSum += o.arg
	case opTransfer:
		switch string(body) {
		case ":1":
		case ":0":
			t.declined++
		default:
			t.fail("TRANSFER a%07d a%07d answered %q", o.a, o.b, clip(body))
		}
	}
}

// blobOf parses "<prefix>$<len>:<bytes>".
func blobOf(body []byte, prefix string) ([]byte, bool) {
	if !bytes.HasPrefix(body, []byte(prefix)) || len(body) <= len(prefix) || body[len(prefix)] != '$' {
		return nil, false
	}
	rest := body[len(prefix)+1:]
	colon := bytes.IndexByte(rest, ':')
	if colon < 1 {
		return nil, false
	}
	n, err := strconv.Atoi(string(rest[:colon]))
	if err != nil || n != len(rest)-colon-1 {
		return nil, false
	}
	return rest[colon+1:], true
}

func clip(b []byte) []byte {
	if len(b) > 48 {
		return b[:48]
	}
	return b
}

// roundTrip sends the ops as one write and reads their responses in order.
func (c *client) roundTrip(ops []op) error {
	c.out = c.out[:0]
	for _, o := range ops {
		c.out = c.spec.appendRequest(c.out, &c.scratch, o)
	}
	c.tally.attempted += uint64(len(ops))
	if _, err := c.nc.Write(c.out); err != nil {
		c.tally.failed += uint64(len(ops))
		return err
	}
	for i, o := range ops {
		body, err := c.readResponse()
		if err != nil {
			c.tally.failed += uint64(len(ops) - i)
			return err
		}
		c.tally.check(c.spec, o, body)
	}
	return nil
}

// closedLoop keeps depth requests in flight on the connection for d: it sends
// a window, reads every answer, and only then sends the next, so a slower
// server is offered less load. It returns the operations completed and how
// long that took.
func (c *client) closedLoop(g *gen, depth int, d time.Duration) (uint64, time.Duration, error) {
	ops := make([]op, depth)
	done := uint64(0)
	start := time.Now()
	for {
		for i := range ops {
			ops[i] = g.next()
		}
		if err := c.roundTrip(ops); err != nil {
			return done, time.Since(start), err
		}
		done += uint64(depth)
		if el := time.Since(start); el >= d {
			return done, el, nil
		}
	}
}

// sent is a request on its way: what was asked and when it fell due.
type sent struct {
	o   op
	due time.Duration
}

// Bounds of the open loop. A generator that falls behind sends what is due in
// flushes of at most openMaxFlush requests per connection; openInFlight
// requests may be unanswered per connection before the generator waits for the
// receiver, which then shows as generator lateness and a backlog.
const (
	openMaxFlush = 256
	openInFlight = 1 << 14
)

// openResult is what an open-loop phase measured.
type openResult struct {
	lat     hist // per request, from when it was due to when its answer was read
	byKind  [numOpKinds]hist
	late    hist // how long after it was due each request was written
	backlog int  // requests due but unsent when the phase ended
}

// openLoop sends requests on a fixed schedule: request i falls due at
// i*interval after start and goes to connection i mod len(clients), whether or
// not earlier ones were answered. Everything due when the generator looks goes
// out in one write per connection; one goroutine per connection reads the
// answers and times each from when its request was due, so the wait a stall
// imposes on later requests is counted.
//
// One generator goroutine paces all connections; it sleeps until the next
// request is due (see pause) and how late it then is, is reported.
func openLoop(clients []*client, gens []*gen, interval time.Duration, d time.Duration) (*openResult, error) {
	n := len(clients)
	res := new(openResult)
	parts := make([]*openResult, n) // what each receiver measured
	inflight := make([]chan sent, n)
	recvErr := make(chan error, n)
	recvTally := make([]tally, n)
	start := time.Now()
	for i, c := range clients {
		parts[i] = new(openResult)
		inflight[i] = make(chan sent, openInFlight)
		go func() {
			// The receiver owns the connection's response buffer and its own
			// tally; the generator owns the request buffers and c.tally.
			var err error
			t, part := &recvTally[i], parts[i]
			for s := range inflight[i] {
				var body []byte
				if err == nil {
					body, err = c.readResponse()
				}
				if err != nil {
					t.failed++
					continue
				}
				el := time.Since(start)
				part.lat.record(int64(el - s.due))
				part.byKind[s.o.kind].record(int64(el - s.due))
				t.check(c.spec, s.o, body)
			}
			recvErr <- err
		}()
	}

	batches := make([][]sent, n)
	var sendErr error
	next := 0 // index of the next request to generate
	for sendErr == nil {
		el := time.Since(start)
		if el >= d {
			break
		}
		due := int(el / interval) // requests 0..due have fallen due
		if next > due {
			pause(time.Duration(next)*interval - el)
			continue
		}
		for i, c := range clients {
			batches[i] = batches[i][:0]
			c.out = c.out[:0]
		}
		for ; next <= due && len(batches[next%n]) < openMaxFlush; next++ {
			i := next % n
			o := gens[i].next()
			batches[i] = append(batches[i], sent{o, time.Duration(next) * interval})
			clients[i].out = clients[i].spec.appendRequest(clients[i].out, &clients[i].scratch, o)
		}
		for i, c := range clients {
			if len(batches[i]) == 0 {
				continue
			}
			now := time.Since(start)
			c.tally.attempted += uint64(len(batches[i]))
			if _, sendErr = c.nc.Write(c.out); sendErr != nil {
				c.tally.failed += uint64(len(batches[i]))
				break
			}
			for _, s := range batches[i] {
				res.late.record(int64(now - s.due))
				inflight[i] <- s
			}
		}
	}
	if left := int(d/interval) - next; left > 0 {
		res.backlog = left
	}
	err := sendErr
	for i := range clients {
		close(inflight[i])
	}
	for range clients {
		if e := <-recvErr; e != nil && err == nil {
			err = e
		}
	}
	for i, c := range clients {
		c.tally.add(&recvTally[i])
	}
	for _, part := range parts {
		res.lat.merge(&part.lat)
		for k := range res.byKind {
			res.byKind[k].merge(&part.byKind[k])
		}
	}
	return res, err
}
