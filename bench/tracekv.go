package main

import (
	"bufio"
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"memtx"
	"memtx/internal/engine"
	"memtx/internal/kv"
	"memtx/internal/obs"
	"memtx/internal/server/wire"
	"memtx/internal/wal/walfs"
)

// counters adds up exported samples by family name.
func counters(ms []obs.Metric) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range ms {
		out[m.Name] += float64(m.Value)
	}
	return out
}

func walCounters(st *kv.Store) map[string]float64 {
	if st.WAL() == nil {
		return map[string]float64{}
	}
	return counters(st.WAL().ObsMetrics())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (cfg *runConfig) spanFile(workload string) string {
	if cfg.traceOut != "" {
		return cfg.traceOut
	}
	return filepath.Join(cfg.scratch, "trace-"+workload+".json")
}

// traceKV is the traced run of a kv.* workload. It is separate from the
// measured run and no end-to-end metric is taken from it. One client at
// pipeline 1 sends a fixed number of operations from the seed, with no timer
// anywhere (the checkpointer is off and checkpoints are taken at fixed
// points), so that counts repeat exactly from run to run:
//
//	pass U  the operations over loopback with tracing off — the base the
//	        tracing overhead is measured against;
//	pass A  the same operations again with spans on: a "request" root span per
//	        operation, "server.read"/"server.write" children from the wrapping
//	        listener and "wal.fs.write"/"wal.fs.sync" children from the
//	        wrapping filesystem;
//	pass B  the same operations by direct calls under a "direct" root span:
//	        "wire.codec", "kv.exec.<kind>", "wal.wait" and "engine.txn.<kind>";
//	pass P  both connections at the closed loop's pipeline depth for the same
//	        number of operations each, for what only shows under pipelining
//	        and concurrency: batch sizes, system calls per operation, group
//	        commit, aborts. These counts are not exact.
//
// The durable workload adds pass C on a recording in-memory filesystem for
// exact device counts and the durability check (see traceDurability).
func traceKV(spec *kvSpec, cfg *runConfig) (*result, error) {
	res := newResult(spec.name)
	n := int(float64(spec.traceOps) * cfg.traceCut)
	io := &ioCounts{}
	var fs *timingFS
	if spec.durable {
		fs = &timingFS{FS: walfs.OS()}
	}
	heap0 := heapAfterGC()
	e, err := setupKV(spec, cfg, io, fs, 0)
	if err != nil {
		return nil, err
	}
	defer e.close()
	heap := heapAfterGC() - heap0
	walSetup := walCounters(e.store)
	c := e.clients[0]
	c.nc.SetDeadline(time.Now().Add(170 * time.Second))
	e.clients[1].nc.SetDeadline(time.Now().Add(170 * time.Second))

	// Pass U.
	g := newGen(spec, cfg.seed, 0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := c.roundTrip([]op{g.next()}); err != nil {
			return nil, fmt.Errorf("pass U: %w", err)
		}
	}
	untraced := float64(n) / time.Since(t0).Seconds()

	// Pass A.
	tr := newTracer()
	io.tr.Store(tr)
	if fs != nil {
		fs.tr.Store(tr)
	}
	g = newGen(spec, cfg.seed, 0)
	ioA, statsA, crossA, mallocsA := io.snapshot(), e.store.Stats(), e.store.CrossCommits(), mallocs()
	var fsA fsSnapshot
	if fs != nil {
		fsA = fs.snapshot()
	}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		o := g.next()
		root := tr.begin("request", -1, int32(i))
		tr.setCurrent(root, int32(i))
		err := c.roundTrip([]op{o})
		tr.clearCurrent()
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("pass A: %w", err)
		}
	}
	traced := float64(n) / time.Since(t0).Seconds()
	io.tr.Store(nil)
	ioA = io.snapshot().sub(ioA)
	statsA = e.store.Stats().Sub(statsA)
	crossA = e.store.CrossCommits() - crossA
	mallocsA = mallocs() - mallocsA
	if fs != nil {
		fsA = fs.snapshot().sub(fsA)
		// The first checkpoint after a recovery scans the whole shard.
		if err := e.store.Checkpoint(); err != nil {
			return nil, err
		}
	}

	// Pass B.
	directIncr, err := replayDirect(spec, e.store, tr, newGen(spec, cfg.seed, 0), n)
	if err != nil {
		return nil, fmt.Errorf("pass B: %w", err)
	}
	if fs != nil {
		fs.tr.Store(nil)
		// This one merges only the keys passes B dirtied.
		if err := e.store.Checkpoint(); err != nil {
			return nil, err
		}
	}

	// Pass P.
	ioP, statsP, walP, srvP := io.snapshot(), e.store.Stats(), walCounters(e.store), counters(e.srv.ObsMetrics())
	abortsP := e.abortsByCause()
	err = e.perConn(func(i int, c *client) error {
		g := newGen(spec, cfg.seed, i)
		ops := make([]op, pipeline)
		for sent := 0; sent < n; sent += pipeline {
			for j := range ops {
				ops[j] = g.next()
			}
			if err := c.roundTrip(ops); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pass P: %w", err)
	}
	opsP := float64(conns * ((n + pipeline - 1) / pipeline) * pipeline)
	ioP = io.snapshot().sub(ioP)
	statsP = e.store.Stats().Sub(statsP)
	walEnd, srvEnd := walCounters(e.store), counters(e.srv.ObsMetrics())
	diff := func(end, start map[string]float64, name string) float64 { return end[name] - start[name] }

	t := e.tally()
	res.Attempted += t.attempted
	res.fail(t.failed, "%d requests failed; first: %s", t.failed, t.firstErr)
	verifyKV(res, spec, e.store, t.incrSum+directIncr)
	assertBypass(res, spec, e)

	lts := tr.analyse()
	printLayers(res, lts)
	if err := tr.write(cfg.spanFile(spec.name)); err != nil {
		return nil, err
	}
	med := func(name string) float64 { return medianNs(lts, name) }
	exec := mergedMedian(lts, "kv.exec.")
	vals := map[string]float64{
		"wire_codec_ns_per_op": med("wire.codec"),
		"wire_bytes_per_op":    float64(ioA.bytesIn+ioA.bytesOut) / float64(n),
		// What is left of a request's time once the store, the codec and the
		// group-commit wait are taken out: the server's own work, the
		// loopback system calls on both sides and the client's turnaround.
		"server_self_us":      (med("request") - exec - med("wire.codec") - med("wal.wait")) / 1e3,
		"syscalls_per_op":     float64(ioP.reads+ioP.writes) / opsP,
		"read_batch_size":     ratio(diff(srvEnd, srvP, "stmkvd_read_batched_commands_total"), diff(srvEnd, srvP, "stmkvd_read_batches_total")),
		"write_batch_size":    ratio(diff(srvEnd, srvP, "stmkvd_write_batched_commands_total"), diff(srvEnd, srvP, "stmkvd_write_batches_total")),
		"batch_fallback_frac": ratio(diff(srvEnd, srvP, "stmkvd_read_batch_fallbacks_total")+diff(srvEnd, srvP, "stmkvd_write_batch_fallbacks_total"), diff(srvEnd, srvP, "stmkvd_read_batches_total")+diff(srvEnd, srvP, "stmkvd_write_batches_total")),
		"shed_frac":           diff(srvEnd, srvP, "stmkvd_shed_total") / opsP,

		"kv_exec_get_ns":              med("kv.exec.get"),
		"kv_exec_set_ns":              med("kv.exec.set"),
		"kv_exec_incr_ns":             med("kv.exec.incr"),
		"kv_exec_transfer_ns":         med("kv.exec.transfer"),
		"cross_shard_frac":            ratio(crossA, statsA.Commits),
		"kv_heap_bytes_per_user_byte": float64(heap) / float64(spec.userBytes()),

		"commit_ratio":             ratio(statsP.Commits, statsP.Starts),
		"aborts":                   float64(statsP.Aborts),
		"cm_waits_per_commit":      ratio(statsP.CMWaits, statsP.Commits),
		"ro_fast_commit_frac":      ratio(statsA.ROFastCommits, statsA.Commits),
		"txn_overhead_update_ns":   med("engine.txn.update"),
		"txn_overhead_readonly_ns": med("engine.txn.readonly"),
		"allocs_per_op":            float64(mallocsA) / float64(n),
		"barriers_dynamic":         float64(statsA.OpenForRead + statsA.OpenForUpdate + statsA.UndoLogged),
		"filter_hit_frac":          ratio(statsA.FilterHits, statsA.FilterHits+statsA.ReadLogEntries+statsA.UndoLogged),

		"trace_overhead_frac": 1 - traced/untraced,
	}
	res.info("trace_ops", float64(n), "count", 0)
	res.info("untraced_ops_per_s", untraced, "ops/s", uint64(n))
	res.info("traced_ops_per_s", traced, "ops/s", uint64(n))
	res.info("pass_a_commits", float64(statsA.Commits), "count", 0)
	res.info("pass_a_syscalls_per_op", float64(ioA.reads+ioA.writes)/float64(n), "count", 0)
	for cause, v := range e.abortsByCause() {
		res.info("pass_p_aborts_"+cause, v-abortsP[cause], "count", 0)
	}
	if spec.durable {
		vals["records_per_fsync"] = ratio(diff(walEnd, walP, "stmkvd_wal_appends_total"), diff(walEnd, walP, "stmkvd_wal_fsyncs_total"))
		vals["fs_write_ms"] = float64(fsA.writeNs) / 1e6
		vals["fs_sync_ms"] = float64(fsA.syncNs) / 1e6
		vals["sync_wait_us"] = med("wal.wait") / 1e3
		vals["checkpoints"] = diff(walEnd, walSetup, "stmkvd_wal_snapshots_total")
		vals["checkpoint_ms"] = diff(walEnd, walSetup, "stmkvd_wal_snapshot_duration_ns_total") / 1e6
		vals["recovery_s"] = e.recoveryS
		vals["replay_records_per_s"] = float64(e.recovery.Records) / e.recoveryS
		res.info("pass_a_fs_writes", float64(fsA.writes), "count", 0)
		res.info("pass_a_fs_syncs", float64(fsA.syncs), "count", 0)
		res.info("recovered_records", float64(e.recovery.Records), "count", 0)
		res.info("recovered_snapshot_pairs", float64(e.recovery.SnapshotPairs), "count", 0)
		res.info("checkpoints_incremental", diff(walEnd, walSetup, "stmkvd_wal_snapshots_incremental_total"), "count", 0)
		if err := traceDurability(spec, cfg, n, res, vals); err != nil {
			return nil, fmt.Errorf("pass C: %w", err)
		}
	} else {
		// The WAL layer must have done nothing at all.
		res.check(len(walEnd) == 0, "a workload without durability has WAL counters")
	}
	res.putLayers(vals)
	return res, nil
}

// abortsByCause adds up the shards' abort counters by cause.
func (e *kvEnv) abortsByCause() map[string]float64 {
	out := make(map[string]float64)
	for i := 0; i < e.store.Shards(); i++ {
		m := e.store.ShardTM(i).Metrics()
		for _, cause := range engine.AbortCauses {
			out[cause.String()] += float64(m.Aborts(cause))
		}
	}
	return out
}

// mergedMedian is the median duration over all spans whose name has the
// prefix.
func mergedMedian(lts []*layerTimes, prefix string) float64 {
	var h hist
	for _, lt := range lts {
		if len(lt.name) >= len(prefix) && lt.name[:len(prefix)] == prefix {
			h.merge(&lt.dur)
		}
	}
	return h.quantile(0.5)
}

// printLayers reports, per span name, how many there were, their busy time
// (sum of durations), self time (busy minus what child spans cover) and median.
// A span that waits for something else — a blocked read, the group commit — is
// waiting time of the layer that owns it.
func printLayers(res *result, lts []*layerTimes) {
	for _, lt := range lts {
		res.info("span_count:"+lt.name, float64(lt.count), "count", 0)
		res.info("span_busy_ms:"+lt.name, float64(lt.busyNs)/1e6, "ms", 0)
		res.info("span_self_ms:"+lt.name, float64(lt.selfNs)/1e6, "ms", 0)
		res.info("span_median_us:"+lt.name, lt.dur.quantile(0.5)/1e3, "us", uint64(lt.count))
	}
}

// direct executes operations by direct calls on a store, the way the server's
// handlers do, deferring the group-commit wait into a SyncBatch.
type direct struct {
	st       *kv.Store
	sb       *kv.SyncBatch
	spec     *kvSpec
	key, val []byte
	key2     []byte
	keys     [][]byte
}

func newDirect(spec *kvSpec, st *kv.Store) *direct {
	return &direct{st: st, sb: st.NewSyncBatch(), spec: spec}
}

// exec runs o and returns the key it routed by.
func (d *direct) exec(o op) (key []byte, err error) {
	switch o.kind {
	case opGet:
		d.key = appendKey(d.key[:0], 'k', o.a)
		err = d.st.ViewKey(d.key, func(t *kv.Tx) error {
			d.val, _ = t.AppendGetBlob(d.val[:0], d.key)
			return nil
		})
	case opSet:
		d.key = appendKey(d.key[:0], 'k', o.a)
		d.val = appendValue(d.val[:0], o.a, o.arg, d.spec.valueSize)
		err = d.st.AtomicKeyDefer(nil, memtx.TxOptions{}, d.key, d.sb, func(t *kv.Tx) error {
			t.Set(d.key, d.val)
			return nil
		})
	case opIncr:
		d.key = appendKey(d.key[:0], 'c', o.a)
		err = d.st.AtomicKeyDefer(nil, memtx.TxOptions{}, d.key, d.sb, func(t *kv.Tx) error {
			_, err := t.Add(d.key, int64(o.arg))
			return err
		})
	case opTransfer:
		d.key = appendKey(d.key[:0], 'a', o.a)
		d.key2 = appendKey(d.key2[:0], 'a', o.b)
		d.keys = append(d.keys[:0], d.key, d.key2)
		amount := int64(o.arg)
		err = d.st.AtomicKeysDefer(nil, memtx.TxOptions{}, d.keys, d.sb, func(t *kv.Tx) error {
			src, err := t.Int(d.key)
			if err != nil || src < amount {
				return err
			}
			dst, err := t.Int(d.key2)
			if err != nil {
				return err
			}
			t.SetInt(d.key, src-amount)
			t.SetInt(d.key2, dst+amount)
			return nil
		})
	}
	return d.key, err
}

// codec does the wire layer's share of one request on its own: encode the
// request, read and parse it as the server does, and encode the answer.
type codec struct {
	frame, body, resp []byte
	value             []byte
	rd                bytes.Reader
	br                *bufio.Reader
	cmd               wire.Command
}

func newCodec(spec *kvSpec) *codec {
	return &codec{br: bufio.NewReaderSize(nil, 4096), value: appendValue(nil, 0, 0, spec.valueSize)}
}

func (c *codec) run(spec *kvSpec, o op) error {
	var scratch [keyLen]byte
	k := func(class byte, id uint32) wire.Arg { return wire.Blob(appendKey(scratch[:0], class, id)) }
	var answer []byte
	switch o.kind {
	case opGet:
		c.body = wire.AppendCommand(c.body[:0], "GET", k('k', o.a))
		answer = wire.AppendCommand(c.resp[:0], "VAL", wire.Blob(c.value))
	case opSet:
		c.body = wire.AppendCommand(c.body[:0], "SET", k('k', o.a), wire.Blob(c.value))
		answer = append(c.resp[:0], "OK"...)
	case opIncr:
		c.body = wire.AppendCommand(c.body[:0], "INCR", k('c', o.a), wire.Bare(strconv.FormatUint(o.arg, 10)))
		answer = append(c.resp[:0], ":123456"...)
	case opTransfer:
		var s2 [keyLen]byte
		c.body = wire.AppendCommand(c.body[:0], "TRANSFER", k('a', o.a), wire.Blob(appendKey(s2[:0], 'a', o.b)), wire.Bare(strconv.FormatUint(o.arg, 10)))
		answer = append(c.resp[:0], ":1"...)
	}
	c.resp = answer
	c.frame = wire.AppendFrame(c.frame[:0], c.body)
	c.rd.Reset(c.frame)
	c.br.Reset(&c.rd)
	body, err := wire.ReadFrameInto(c.br, 0, c.body[:0])
	if err != nil {
		return err
	}
	if err := wire.ParseCommandInto(body, &c.cmd); err != nil {
		return err
	}
	c.frame = wire.AppendFrame(c.frame[:0], answer)
	return nil
}

// replayDirect is pass B: the operation stream by direct calls, each layer's
// share under its own span. It returns the sum of the INCR deltas it applied.
func replayDirect(spec *kvSpec, st *kv.Store, tr *tracer, g *gen, n int) (incrSum uint64, err error) {
	d := newDirect(spec, st)
	cd := newCodec(spec)
	nothing := func(*memtx.Tx) error { return nil }
	for i := 0; i < n; i++ {
		o := g.next()
		root := tr.begin("direct", -1, int32(i))

		s := tr.begin("wire.codec", root, int32(i))
		err := cd.run(spec, o)
		tr.end(s)
		if err != nil {
			return 0, err
		}

		s = tr.begin("kv.exec."+opNames[o.kind], root, int32(i))
		key, err := d.exec(o)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		if d.sb.Pending() {
			s = tr.begin("wal.wait", root, int32(i))
			err := d.sb.Wait()
			tr.end(s)
			if err != nil {
				return 0, err
			}
		}
		if o.kind == opIncr {
			incrSum += o.arg
		}

		// An empty transaction on the key's shard: what a transaction costs
		// before it touches anything.
		tm := st.ShardTM(st.KeyShard(key))
		if o.kind == opGet {
			s = tr.begin("engine.txn.readonly", root, int32(i))
			err = tm.ReadOnly(nothing)
		} else {
			s = tr.begin("engine.txn.update", root, int32(i))
			err = tm.Atomic(nothing)
		}
		tr.end(s)
		if err != nil {
			return 0, err
		}
		tr.end(root)
	}
	return incrSum, nil
}

// traceDurability is pass C of the durable workload: the operation stream by
// direct calls on a store whose WAL runs on a recording in-memory filesystem,
// each write acknowledged (its group-commit wait over) before the next. The
// journal gives the exact device counts. The durability check then cuts the
// journal where the last write was acknowledged, throws away every byte that
// was written but not yet fsynced at that point — a process kill would keep
// them in the page cache, a power cut would not — recovers a store from what
// is left and requires every acknowledged write to be readable.
func traceDurability(spec *kvSpec, cfg *runConfig, n int, res *result, vals map[string]float64) error {
	mem := walfs.NewRecordingMem()
	dcfg := kv.DurableConfig{Dir: "wal", FsyncBatch: walBatch, FsyncInterval: walEvery, IncrementalSnapshots: true, FS: mem}
	st, _, err := kv.Open(kvConfig, dcfg)
	if err != nil {
		return err
	}
	open := true
	defer func() {
		if open {
			st.Close()
		}
	}()
	if err := preload(st, spec, 0, 0, true); err != nil {
		return err
	}
	base := journalCounts(mem.Journal())

	// The model of what was acknowledged: the last version written to each
	// key and every account's balance.
	versions := make(map[uint32]uint64)
	balances := make([]int64, spec.accounts)
	for i := range balances {
		balances[i] = initialBalance
	}
	userBytes := 0
	d := newDirect(spec, st)
	g := newGen(spec, cfg.seed, 0)
	for i := 0; i < n; i++ {
		if i == n/2 {
			if err := st.Checkpoint(); err != nil {
				return err
			}
		}
		o := g.next()
		if _, err := d.exec(o); err != nil {
			return err
		}
		if err := d.sb.Wait(); err != nil {
			return err
		}
		switch o.kind {
		case opSet:
			versions[o.a] = o.arg
			userBytes += keyLen + spec.valueSize
		case opTransfer:
			if a := int64(o.arg); balances[o.a] >= a {
				balances[o.a] -= a
				balances[o.b] += a
				userBytes += 2 * (keyLen + len(kv.FormatInt(balances[o.a])))
			}
		}
	}
	journal := mem.Journal()
	dev := journalCounts(journal).sub(base)
	vals["wal_bytes_per_user_byte"] = float64(dev.bytes) / float64(userBytes)
	res.info("device_writes", float64(dev.writes), "count", 0)
	res.info("device_bytes", float64(dev.bytes), "B", 0)
	res.info("device_fsyncs", float64(dev.syncs), "count", 0)
	res.info("user_bytes", float64(userBytes), "B", 0)

	open = false
	if err := st.Close(); err != nil {
		return err
	}
	crashed := walfs.CrashState(fsyncedOnly(journal))
	dcfg.FS = crashed
	rec, _, err := kv.Open(kvConfig, dcfg)
	if err != nil {
		res.check(false, "recovery from the crash state failed: %v", err)
		return nil
	}
	defer rec.Close()
	lost := uint64(0)
	var want []byte
	for id, ver := range versions {
		want = appendValue(want[:0], id, ver, spec.valueSize)
		if got, ok := rec.Get(keyOf('k', id)); !ok || !bytes.Equal(got, want) {
			lost++
		}
	}
	for id, bal := range balances {
		if got, ok := rec.Get(keyOf('a', uint32(id))); !ok || !bytes.Equal(got, kv.FormatInt(bal)) {
			lost++
		}
	}
	res.Attempted += uint64(len(versions) + len(balances))
	res.fail(lost, "durability: %d acknowledged writes are not readable after recovery from the fsynced bytes", lost)
	return nil
}

type deviceCounts struct{ writes, bytes, syncs int }

func (a deviceCounts) sub(b deviceCounts) deviceCounts {
	return deviceCounts{a.writes - b.writes, a.bytes - b.bytes, a.syncs - b.syncs}
}

func journalCounts(j []walfs.Op) (c deviceCounts) {
	for _, o := range j {
		switch o.Kind {
		case walfs.OpWrite, walfs.OpWriteFile:
			c.writes++
			c.bytes += len(o.Data)
		case walfs.OpSync, walfs.OpSyncDir:
			c.syncs++
		}
	}
	return c
}

// fsyncedOnly drops from the journal every content write that no later fsync
// of the same file covers. Files are append-only, so what is left is the
// filesystem a power cut at the end of the journal leaves behind.
func fsyncedOnly(j []walfs.Op) []walfs.Op {
	lastSync := make(map[string]int)
	for i, o := range j {
		if o.Kind == walfs.OpSync {
			lastSync[o.Path] = i
		}
	}
	out := make([]walfs.Op, 0, len(j))
	for i, o := range j {
		if o.Kind == walfs.OpWrite {
			if s, ok := lastSync[o.Path]; !ok || s < i {
				continue
			}
		}
		out = append(out, o)
	}
	return out
}
