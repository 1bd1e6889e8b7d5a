package server

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"testing"
	"time"

	"memtx/internal/kv"
	"memtx/internal/server/wire"
)

// pathKeys are the keys the command rows speak of by alias. k, k2, padA, padB
// and junk co-locate on one shard — so write pads coalesce with a write on k
// and a transfer k→k2 stays shard-local — and x lives on another, so any
// command over k and x is cross-shard.
type pathKeys map[string][]byte

func newPathKeys(t *testing.T, s *kv.Store) pathKeys {
	t.Helper()
	keys := pathKeys{}
	same := []string{"k", "k2", "padA", "padB", "padR", "junk"}
	home := s.KeyShard([]byte("path-0"))
	for i := 0; len(same) > 0 || keys["x"] == nil; i++ {
		if i > 10000 {
			t.Fatal("could not place the test keys")
		}
		key := []byte(fmt.Sprintf("path-%d", i))
		switch onHome := s.KeyShard(key) == home; {
		case onHome && len(same) > 0:
			keys[same[0]], same = key, same[1:]
		case !onHome && keys["x"] == nil:
			keys["x"] = key
		}
	}
	return keys
}

// body renders a row's command text as a request body. The first word is the
// command name; a word that is a key alias becomes that key as a blob, a word
// starting with '#' a bare token (how clients send integers), anything else a
// literal blob.
func (keys pathKeys) body(text string) []byte {
	words := strings.Fields(text)
	var args []wire.Arg
	for _, w := range words[1:] {
		switch key, ok := keys[w]; {
		case ok:
			args = append(args, wire.Blob(key))
		case w[0] == '#':
			args = append(args, wire.Bare(w[1:]))
		default:
			args = append(args, wire.Blob([]byte(w)))
		}
	}
	return wire.AppendCommand(nil, words[0], args...)
}

func errResp(msg string) string { return fmt.Sprintf("ERR $%d:%s", len(msg), msg) }

var (
	respArity  = errResp("server: wrong number of arguments")
	notInteger = func(v string) string { return errResp(fmt.Sprintf("kv: value %q is not an integer", v)) }
)

// TestCommandPathsAgree pins that a command means the same thing wherever its
// transaction happens to begin and commit. Every row — at least one per
// commands table entry, so adding a command means adding a row here — states a
// command, the store it meets, the exact response it must earn and the store
// it must leave. The command is then delivered four ways, between two pad
// commands of the kind it coalesces with:
//
//   - alone: each command its own round trip, so nothing coalesces;
//   - batched: one pipelined burst, so the command shares its neighbours'
//     batch transaction when its table entry allows one;
//   - fallback: the same burst with its batch made to fail — a write batch by
//     carrying an INCR over a non-integer value, a read batch by holding a
//     store-wide transaction open so the snapshot cannot take its gates — so
//     every command re-runs as a batch of one;
//   - unbatched: the same burst with both kinds of batching disabled.
//
// All four must produce the row's response bytes, the row's final store, and
// exactly one count per command.
func TestCommandPathsAgree(t *testing.T) {
	type kvs = map[string]string
	rows := []struct {
		name  string
		id    Cmd
		seed  kvs    // by key alias
		req   string // see pathKeys.body
		want  string // the response body
		after kvs    // k, k2 and x afterwards; an alias not listed is absent
	}{
		{"ping", CmdPing, nil, "PING", "PONG", nil},
		{"ping/arity", CmdPing, nil, "PING k", respArity, nil},

		{"get/hit", CmdGet, kvs{"k": "v"}, "GET k", "VAL $1:v", kvs{"k": "v"}},
		{"get/miss", CmdGet, nil, "GET k", "NIL", nil},
		{"get/arity", CmdGet, nil, "GET", respArity, nil},
		{"get/arity2", CmdGet, kvs{"k": "v"}, "GET k k2", respArity, kvs{"k": "v"}},
		{"get/mixed-case", CmdGet, kvs{"k": "v"}, "gEt k", "VAL $1:v", kvs{"k": "v"}},

		{"set/hit", CmdSet, kvs{"k": "old"}, "SET k new", "OK", kvs{"k": "new"}},
		{"set/miss", CmdSet, nil, "SET k new", "OK", kvs{"k": "new"}},
		{"set/arity", CmdSet, kvs{"k": "old"}, "SET k", respArity, kvs{"k": "old"}},

		{"del/hit", CmdDel, kvs{"k": "v"}, "DEL k", ":1", nil},
		{"del/miss", CmdDel, nil, "DEL k", ":0", nil},
		{"del/arity", CmdDel, kvs{"k": "v"}, "DEL", respArity, kvs{"k": "v"}},

		{"cas/hit", CmdCAS, kvs{"k": "old"}, "CAS k old new", ":1", kvs{"k": "new"}},
		{"cas/mismatch", CmdCAS, kvs{"k": "other"}, "CAS k old new", ":0", kvs{"k": "other"}},
		{"cas/miss", CmdCAS, nil, "CAS k old new", ":0", nil},
		{"cas/arity", CmdCAS, kvs{"k": "old"}, "CAS k old", respArity, kvs{"k": "old"}},

		{"incr/hit", CmdIncr, kvs{"k": "5"}, "INCR k #3", ":8", kvs{"k": "8"}},
		{"incr/miss", CmdIncr, nil, "INCR k #3", ":3", kvs{"k": "3"}},
		{"incr/negative", CmdIncr, kvs{"k": "5"}, "INCR k #-8", ":-3", kvs{"k": "-3"}},
		{"incr/to-one", CmdIncr, nil, "INCR k #1", ":1", kvs{"k": "1"}},
		{"incr/arity", CmdIncr, kvs{"k": "5"}, "INCR k", respArity, kvs{"k": "5"}},
		{"incr/malformed", CmdIncr, kvs{"k": "5"}, "INCR k #xyz", notInteger("xyz"), kvs{"k": "5"}},
		{"incr/non-integer-value", CmdIncr, kvs{"k": "abc"}, "INCR k #1", notInteger("abc"), kvs{"k": "abc"}},

		{"transfer/hit", CmdTransfer, kvs{"k": "100", "k2": "1"}, "TRANSFER k k2 #60", ":1", kvs{"k": "40", "k2": "61"}},
		{"transfer/insufficient", CmdTransfer, kvs{"k": "40", "k2": "1"}, "TRANSFER k k2 #60", ":0", kvs{"k": "40", "k2": "1"}},
		{"transfer/miss", CmdTransfer, nil, "TRANSFER k k2 #60", ":0", nil},
		{"transfer/new-dst", CmdTransfer, kvs{"k": "9"}, "TRANSFER k k2 #9", ":1", kvs{"k": "0", "k2": "9"}},
		{"transfer/self", CmdTransfer, kvs{"k": "9"}, "TRANSFER k k #4", ":1", kvs{"k": "9"}},
		{"transfer/arity", CmdTransfer, kvs{"k": "9"}, "TRANSFER k k2", respArity, kvs{"k": "9"}},
		{"transfer/malformed", CmdTransfer, kvs{"k": "9"}, "TRANSFER k k2 #abc", notInteger("abc"), kvs{"k": "9"}},
		{"transfer/negative", CmdTransfer, kvs{"k": "9"}, "TRANSFER k k2 #-1", errResp("server: negative transfer amount"), kvs{"k": "9"}},
		{"transfer/non-integer-src", CmdTransfer, kvs{"k": "abc", "k2": "1"}, "TRANSFER k k2 #1", notInteger("abc"), kvs{"k": "abc", "k2": "1"}},
		{"transfer/non-integer-dst", CmdTransfer, kvs{"k": "9", "k2": "abc"}, "TRANSFER k k2 #1", notInteger("abc"), kvs{"k": "9", "k2": "abc"}},
		{"transfer/cross-shard", CmdTransfer, kvs{"k": "100", "x": "1"}, "TRANSFER k x #60", ":1", kvs{"k": "40", "x": "61"}},
		{"transfer/cross-shard-insufficient", CmdTransfer, kvs{"x": "1"}, "TRANSFER x k #60", ":0", kvs{"x": "1"}},

		{"mget/hit-and-miss", CmdMGet, kvs{"k": "v"}, "MGET k k2", "VALS $1:v NIL", kvs{"k": "v"}},
		{"mget/arity", CmdMGet, nil, "MGET", respArity, nil},
		{"mget/cross-shard", CmdMGet, kvs{"k": "v", "x": "w"}, "MGET x k2 k", "VALS $1:w NIL $1:v", kvs{"k": "v", "x": "w"}},

		{"mset/hit-and-miss", CmdMSet, kvs{"k": "old"}, "MSET k v k2 v2", "OK", kvs{"k": "v", "k2": "v2"}},
		{"mset/arity-odd", CmdMSet, kvs{"k": "old"}, "MSET k v k2", respArity, kvs{"k": "old"}},
		{"mset/arity-none", CmdMSet, nil, "MSET", respArity, nil},
		{"mset/cross-shard", CmdMSet, kvs{"x": "old"}, "MSET k v x w", "OK", kvs{"k": "v", "x": "w"}},

		{"unknown", CmdUnknown, nil, "NOSUCH", errResp("server: unknown command NOSUCH"), nil},
		{"unknown/args", CmdUnknown, kvs{"k": "v"}, "NOSUCH k", errResp("server: unknown command NOSUCH"), kvs{"k": "v"}},
	}

	forms := []struct {
		name  string
		cfg   Config
		burst bool // deliver the commands as one pipelined write
		fail  bool // make the burst's batch transaction fail
	}{
		{"alone", Config{}, false, false},
		{"batched", Config{}, true, false},
		{"fallback", Config{}, true, true},
		{"unbatched", Config{MaxBatch: -1, MaxWriteBatch: -1}, true, false},
	}

	const shards = 4
	keys := newPathKeys(t, kv.New(kv.Config{Shards: shards, Buckets: 16}))
	covered := [NumCmds]bool{}
	for _, row := range rows {
		covered[row.id] = true
		for _, form := range forms {
			t.Run(row.name+"/"+form.name, func(t *testing.T) {
				store := kv.New(kv.Config{Shards: shards, Buckets: 16})
				wantStore := kvs{"padR": "pad", "junk": "not-a-number"}
				for alias, v := range row.seed {
					wantStore[alias] = v
				}
				for alias, v := range wantStore {
					store.Set(keys[alias], []byte(v))
				}
				for _, alias := range []string{"k", "k2", "x"} {
					delete(wantStore, alias)
				}
				for alias, v := range row.after {
					wantStore[alias] = v
				}

				form.cfg.ErrorLog = log.New(io.Discard, "", 0)
				s := New(store, form.cfg)
				probe := batchEntry{frame: keys.body(row.req)}
				if err := s.parseEntry(&probe); err != nil || probe.id != row.id {
					t.Fatalf("row parses as %v (%v), want %v", probe.id, err, row.id)
				}

				// The pads are of the kind the command coalesces with, so the
				// burst forms are one batch around it whenever it is batchable.
				seq := []string{"GET padR", row.req, "GET padR"}
				wantResp := []string{"VAL $3:pad", row.want, "VAL $3:pad"}
				wantCount := [NumCmds]uint64{CmdGet: 2}
				writePads := commands[row.id].batch == batchWrite
				holdGates := form.fail && !writePads
				if writePads {
					seq = []string{"SET padA 1", row.req, "SET padB 2"}
					wantResp = []string{"OK", row.want, "OK"}
					wantCount = [NumCmds]uint64{CmdSet: 2}
					wantStore["padA"], wantStore["padB"] = "1", "2"
					if form.fail {
						seq = append(seq, "INCR junk #1")
						wantResp = append(wantResp, notInteger("not-a-number"))
						wantCount[CmdIncr]++
					}
				}
				wantCount[row.id]++

				client, srvEnd := net.Pipe()
				s.wg.Add(1)
				go s.serveConn(srvEnd)
				defer s.wg.Wait()
				defer client.Close()
				br := bufio.NewReader(client)
				read := func(i int) {
					t.Helper()
					body, err := wire.ReadFrame(br, 0)
					if err != nil {
						t.Fatalf("response %d (%s): %v", i, seq[i], err)
					}
					if string(body) != wantResp[i] {
						t.Errorf("response %d (%s) = %q, want %q", i, seq[i], body, wantResp[i])
					}
				}
				if !form.burst {
					for i, text := range seq {
						if _, err := client.Write(wire.AppendFrame(nil, keys.body(text))); err != nil {
							t.Fatal(err)
						}
						read(i)
					}
				} else {
					release := make(chan struct{})
					if holdGates {
						held := make(chan struct{})
						go store.Atomic(func(*kv.Tx) error {
							close(held)
							<-release
							return nil
						})
						<-held
					}
					var burst []byte
					for _, text := range seq {
						burst = wire.AppendFrame(burst, keys.body(text))
					}
					// The pipe is synchronous: once Write returns, the whole burst
					// sits in the server's input buffer.
					if _, err := client.Write(burst); err != nil {
						t.Fatal(err)
					}
					if holdGates {
						// The first pad's snapshot fails at the held gates and falls
						// back gate-free; commands that need a gate wait for release.
						for deadline := time.Now().Add(10 * time.Second); s.read.fallbacks.Load() == 0; {
							if time.Now().After(deadline) {
								close(release)
								t.Fatal("no read batch fell back while the gates were held")
							}
							time.Sleep(50 * time.Microsecond)
						}
					}
					close(release)
					for i := range seq {
						read(i)
					}
				}

				for c := Cmd(0); c < NumCmds; c++ {
					if got := s.CmdCount(c); got != wantCount[c] {
						t.Errorf("CmdCount(%v) = %d, want %d", c, got, wantCount[c])
					}
				}
				if n := store.Len(); n != len(wantStore) {
					t.Errorf("store holds %d keys, want %d", n, len(wantStore))
				}
				for alias, key := range keys {
					v, ok := store.Get(key)
					if want, present := wantStore[alias]; ok != present || string(v) != want {
						t.Errorf("final %s = %q (present %v), want %q (present %v)", alias, v, ok, want, present)
					}
				}

				// The form must have exercised what it claims to.
				rb, rc, rf := s.read.batches.Load(), s.read.cmds.Load(), s.read.fallbacks.Load()
				wb, wc, wf := s.write.batches.Load(), s.write.cmds.Load(), s.write.fallbacks.Load()
				counters := fmt.Sprintf("read %d/%d/%d write %d/%d/%d", rb, rc, rf, wb, wc, wf)
				switch {
				case !form.burst:
					if wb != 0 || rc != rb || rf != 0 {
						t.Errorf("separate round trips coalesced: %s", counters)
					}
				case form.cfg.MaxBatch < 0:
					if rb+rc+rf+wb+wc+wf != 0 {
						t.Errorf("batch counters moved with batching disabled: %s", counters)
					}
				case form.fail:
					if rf+wf == 0 {
						t.Errorf("no batch fell back: %s", counters)
					}
				case probe.mode != nil:
					if m := probe.mode; m.batches.Load() != 1 || m.cmds.Load() != 3 {
						t.Errorf("command did not share its pads' batch: %s", counters)
					}
				}
			})
		}
	}
	for id := range commands {
		if !covered[id] {
			t.Errorf("commands[%v] has no row in this test", Cmd(id))
		}
	}
}
