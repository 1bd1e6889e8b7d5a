// Package kvload is the client side of the stmkvd protocol: a pipelining
// client plus the closed-loop load driver behind `stmbench -kvload`, which
// seeds a live server (Preload), drives it (Run) and audits the account
// sum (VerifySum). It is what the daemon drills and the server tests use;
// the benchmark under bench/ has its own client and imports nothing here.
package kvload

import (
	"bufio"
	"errors"
	"fmt"
	"net"

	"memtx/internal/kv"
	"memtx/internal/server/wire"
)

// RemoteError is an ERR response from the server.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "kvload: server error: " + e.Msg }

// BusyError is a BUSY response: the server shed the command under overload
// without executing it, and it may be retried as-is.
type BusyError struct{}

func (*BusyError) Error() string { return "kvload: server busy, command shed" }

var errBusy = &BusyError{}

// Client is a connection to an stmkvd server. It is not safe for concurrent
// use; the load generator opens one per worker.
type Client struct {
	c   net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	buf []byte
}

// Dial connects to an stmkvd server.
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(c), nil
}

// NewClient wraps an established connection.
func NewClient(c net.Conn) *Client {
	return &Client{
		c:  c,
		br: bufio.NewReaderSize(c, 32<<10),
		bw: bufio.NewWriterSize(c, 32<<10),
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.c.Close() }

// Send queues one request frame without flushing — the pipelining path.
func (c *Client) Send(name string, args ...wire.Arg) error {
	c.buf = wire.AppendFrame(c.buf[:0], wire.AppendCommand(nil, name, args...))
	_, err := c.bw.Write(c.buf)
	return err
}

// Flush writes all queued frames to the connection.
func (c *Client) Flush() error { return c.bw.Flush() }

// Recv reads one response frame. An ERR response is returned as a
// *RemoteError and a BUSY response as a *BusyError; transport errors are
// returned as-is.
func (c *Client) Recv() (wire.Command, error) {
	body, err := wire.ReadFrame(c.br, wire.DefaultMaxFrame)
	if err != nil {
		return wire.Command{}, err
	}
	resp, err := wire.ParseCommand(body)
	if err != nil {
		return wire.Command{}, err
	}
	if resp.Name == "ERR" {
		msg := "unspecified"
		if len(resp.Args) == 1 {
			msg = string(resp.Args[0].B)
		}
		return resp, &RemoteError{Msg: msg}
	}
	if resp.Name == "BUSY" {
		return resp, errBusy
	}
	return resp, nil
}

// Do sends one request and waits for its response.
func (c *Client) Do(name string, args ...wire.Arg) (wire.Command, error) {
	if err := c.Send(name, args...); err != nil {
		return wire.Command{}, err
	}
	if err := c.Flush(); err != nil {
		return wire.Command{}, err
	}
	return c.Recv()
}

func (c *Client) expect(resp wire.Command, err error, want string) error {
	if err != nil {
		return err
	}
	if resp.Name != want {
		return fmt.Errorf("kvload: unexpected response %q, want %q", resp.Name, want)
	}
	return nil
}

// parseIntReply decodes a ":<n>" response.
func parseIntReply(resp wire.Command, err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	if len(resp.Name) < 2 || resp.Name[0] != ':' {
		return 0, fmt.Errorf("kvload: unexpected response %q, want :<int>", resp.Name)
	}
	return kv.ParseInt([]byte(resp.Name[1:]))
}

// Ping round-trips a PING.
func (c *Client) Ping() error {
	resp, err := c.Do("PING")
	return c.expect(resp, err, "PONG")
}

// Get fetches one key (ok=false when missing).
func (c *Client) Get(key []byte) (val []byte, ok bool, err error) {
	resp, err := c.Do("GET", wire.Blob(key))
	if err != nil {
		return nil, false, err
	}
	switch resp.Name {
	case "NIL":
		return nil, false, nil
	case "VAL":
		if len(resp.Args) != 1 {
			return nil, false, errors.New("kvload: malformed VAL response")
		}
		return resp.Args[0].B, true, nil
	}
	return nil, false, fmt.Errorf("kvload: unexpected response %q to GET", resp.Name)
}

// Set stores one key.
func (c *Client) Set(key, val []byte) error {
	resp, err := c.Do("SET", wire.Blob(key), wire.Blob(val))
	return c.expect(resp, err, "OK")
}

// Del deletes one key, reporting whether it existed.
func (c *Client) Del(key []byte) (bool, error) {
	v, err := parseIntReply(c.Do("DEL", wire.Blob(key)))
	return v == 1, err
}

// CAS swaps key from old to new, reporting whether it matched.
func (c *Client) CAS(key, old, new []byte) (bool, error) {
	v, err := parseIntReply(c.Do("CAS", wire.Blob(key), wire.Blob(old), wire.Blob(new)))
	return v == 1, err
}

// Incr adds delta to key's integer value and returns the new value.
func (c *Client) Incr(key []byte, delta int64) (int64, error) {
	return parseIntReply(c.Do("INCR", wire.Blob(key), wire.Bare(string(kv.FormatInt(delta)))))
}

// Transfer atomically moves amount from src to dst; ok=false means
// insufficient funds.
func (c *Client) Transfer(src, dst []byte, amount int64) (bool, error) {
	v, err := parseIntReply(c.Do("TRANSFER", wire.Blob(src), wire.Blob(dst), wire.Bare(string(kv.FormatInt(amount)))))
	return v == 1, err
}

// MGet fetches keys in one atomic snapshot; missing keys yield nil entries.
func (c *Client) MGet(keys ...[]byte) ([][]byte, error) {
	args := make([]wire.Arg, len(keys))
	for i, k := range keys {
		args[i] = wire.Blob(k)
	}
	resp, err := c.Do("MGET", args...)
	if err != nil {
		return nil, err
	}
	if resp.Name != "VALS" || len(resp.Args) != len(keys) {
		return nil, fmt.Errorf("kvload: malformed MGET response %q/%d", resp.Name, len(resp.Args))
	}
	vals := make([][]byte, len(keys))
	for i, a := range resp.Args {
		if a.Blob {
			vals[i] = a.B
		} else if string(a.B) != "NIL" {
			return nil, fmt.Errorf("kvload: unexpected MGET marker %q", a.B)
		}
	}
	return vals, nil
}

// MSet stores the given pairs in one atomic transaction.
func (c *Client) MSet(pairs ...[]byte) error {
	if len(pairs)%2 != 0 {
		return errors.New("kvload: MSet needs key/value pairs")
	}
	args := make([]wire.Arg, len(pairs))
	for i, p := range pairs {
		args[i] = wire.Blob(p)
	}
	resp, err := c.Do("MSET", args...)
	return c.expect(resp, err, "OK")
}
