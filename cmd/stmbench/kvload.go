package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"memtx"
	"memtx/internal/chaos"
	"memtx/internal/harness"
	"memtx/internal/kvload"
)

// kvOptions carries the -kv* flag values into the kvload runner.
type kvOptions struct {
	addr         string // "self" or host:port
	shards       string // comma-separated, only for self sweeps
	conns        int
	keys         int
	valSize      int
	readFrac     float64
	transferFrac float64
	incrFrac     float64
	mixes        string // comma-separated YCSB-style presets; empty = explicit fractions
	dists        string // comma-separated key distributions
	duration     time.Duration
	pipeline     int
	batches      string // comma-separated MaxBatch values, only for self sweeps
	writeBatches string // comma-separated MaxWriteBatch values, only for self sweeps
	cms          string // comma-separated CM policies, only for self sweeps
	procs        string // comma-separated GOMAXPROCS values, only for self sweeps
	walBatches   string // comma-separated WAL fsync batches (-1 = off), only for self sweeps
	walInterval  time.Duration
	maxInflight  int // self-hosted server txn-concurrency bound (0 = default)
	benchJSON    string
	quick        bool

	cmdDeadline   time.Duration
	queueTimeout  time.Duration
	verify        bool
	chaosSeed     uint64
	chaosAbort    int
	chaosDelay    int
	chaosPanic    int
	chaosDelayMax time.Duration
}

func (o kvOptions) loadOptions() kvload.Options {
	lo := kvload.Options{
		Conns:        o.conns,
		Keys:         o.keys,
		ValueSize:    o.valSize,
		ReadFrac:     o.readFrac,
		TransferFrac: o.transferFrac,
		IncrFrac:     o.incrFrac,
		Duration:     o.duration,
		Pipeline:     o.pipeline,
		CmdDeadline:  o.cmdDeadline,
		QueueTimeout: o.queueTimeout,
		Verify:       o.verify,
		WALInterval:  o.walInterval,
		MaxInflight:  o.maxInflight,
	}
	if o.chaosAbort > 0 || o.chaosDelay > 0 || o.chaosPanic > 0 {
		cfg := chaos.Uniform(o.chaosSeed,
			uint32(o.chaosAbort), uint32(o.chaosDelay), uint32(o.chaosPanic), o.chaosDelayMax)
		lo.Chaos = &cfg
	}
	if o.quick {
		lo.Duration = 500 * time.Millisecond
		if o.keys == 10000 {
			lo.Keys = 1000
		}
	}
	return lo
}

// runKVLoad drives the stmkvd load mix — in-process across a
// shard-count grid for "self", or against one live server — and
// prints a throughput/latency table. With -benchjson the same points are
// written as a machine-readable report instead of the experiment grid.
func runKVLoad(o kvOptions) error {
	lo := o.loadOptions()
	dists, err := parseDists(o.dists)
	if err != nil {
		return err
	}
	mixes := []string{""}
	if strings.TrimSpace(o.mixes) != "" {
		mixes = strings.Split(o.mixes, ",")
	}
	var points []kvload.GridPoint

	if o.addr == "self" {
		shards, err := parseInts("shard count", o.shards)
		if err != nil {
			return err
		}
		batches, err := parseInts("batch bound", o.batches)
		if err != nil {
			return err
		}
		wbatches, err := parseInts("write-batch bound", o.writeBatches)
		if err != nil {
			return err
		}
		procs, err := parseInts("procs", o.procs)
		if err != nil {
			return err
		}
		cms, err := parseCMs(o.cms)
		if err != nil {
			return err
		}
		walBatches, err := parseInts("wal batch", o.walBatches)
		if err != nil {
			return err
		}
		sw := kvload.Sweep{
			Shards:       shards,
			Batches:      batches,
			Procs:        procs,
			Dists:        dists,
			CMs:          cms,
			WriteBatches: wbatches,
			WALBatches:   walBatches,
		}
		// The mix presets rewrite the operation fractions, so they sweep
		// here as an outer loop over otherwise-identical grids.
		for _, mix := range mixes {
			mlo := lo
			if m := strings.TrimSpace(mix); m != "" {
				if err := mlo.ApplyMix(m); err != nil {
					return err
				}
			}
			ps, err := kvload.RunSweep(sw, mlo)
			if err != nil {
				return err
			}
			points = append(points, ps...)
		}
	} else {
		lo.Addr = o.addr
		lo.Dist = dists[0]
		if m := strings.TrimSpace(mixes[0]); m != "" {
			if err := lo.ApplyMix(m); err != nil {
				return err
			}
		}
		if err := kvload.Preload(lo); err != nil {
			return fmt.Errorf("preload %s: %w", o.addr, err)
		}
		res, err := kvload.Run(lo)
		if err != nil {
			return err
		}
		if lo.Verify {
			if err := kvload.VerifySum(lo); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "stmbench: kvload: account sum verified against %s\n", o.addr)
		}
		points = []kvload.GridPoint{{Design: "remote", Shards: 0, Dist: lo.Dist.String(), Mix: lo.Mix, Result: res}}
	}

	printKVTable(points, lo)

	if o.benchJSON != "" {
		return writeKVBenchJSON(o.benchJSON, points, lo, o.quick)
	}
	return nil
}

func parseDists(s string) ([]kvload.Dist, error) {
	var out []kvload.Dist
	for _, f := range strings.Split(s, ",") {
		d, err := kvload.ParseDist(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

func parseCMs(s string) ([]memtx.CMPolicy, error) {
	var out []memtx.CMPolicy
	for _, f := range strings.Split(s, ",") {
		p, err := memtx.ParseCMPolicy(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func parseInts(what, s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad %s %q", what, f)
		}
		out = append(out, n)
	}
	return out, nil
}

// batchLabel renders a GridPoint.MaxBatch value for tables and kernels:
// the server default, an explicit bound, or batching off.
func batchLabel(b int) string {
	switch {
	case b == 0:
		return "def"
	case b < 0:
		return "off"
	default:
		return strconv.Itoa(b)
	}
}

func printKVTable(points []kvload.GridPoint, lo kvload.Options) {
	t := &harness.Table{
		ID: "kvload",
		Title: fmt.Sprintf("kvload: %d conns, pipeline %d, %.0f%% GET / %.0f%% TRANSFER / %.0f%% INCR / rest SET",
			lo.Conns, lo.Pipeline, 100*lo.ReadFrac, 100*lo.TransferFrac, 100*lo.IncrFrac),
		Header: []string{"design", "shards", "dist", "mix", "cm", "batch", "wbatch", "wal", "procs", "ops", "ops/sec", "p50(us)", "p99(us)", "errs", "busy", "reconn", "commits", "rbatches", "fallbacks", "wbatches", "wfall", "fsyncs", "grp", "cmdefer", "ewma(ppm)"},
	}
	for _, p := range points {
		shards := "-"
		if p.Shards > 0 {
			shards = strconv.Itoa(p.Shards)
		}
		procs := "-"
		if p.Procs > 0 {
			procs = strconv.Itoa(p.Procs)
		}
		mix := p.Mix
		if mix == "" {
			mix = "-"
		}
		cm := p.CM
		if cm == "" {
			cm = "-"
		}
		wal := "off"
		if p.WALBatch > 0 {
			wal = strconv.Itoa(p.WALBatch)
		}
		// Achieved group-commit amortization: records made durable per fsync.
		grp := "-"
		if p.WALFsyncs > 0 {
			grp = fmt.Sprintf("%.1f", float64(p.WALGroupRecs)/float64(p.WALFsyncs))
		}
		t.AddRow(
			p.Design,
			shards,
			p.Dist,
			mix,
			cm,
			batchLabel(p.MaxBatch),
			batchLabel(p.MaxWriteBatch),
			wal,
			procs,
			strconv.FormatUint(p.Result.Ops, 10),
			fmt.Sprintf("%.0f", p.Result.Throughput),
			fmt.Sprintf("%.1f", float64(p.Result.RTT.Quantile(0.5))/1e3),
			fmt.Sprintf("%.1f", float64(p.Result.RTT.Quantile(0.99))/1e3),
			strconv.FormatUint(p.Result.Errors, 10),
			strconv.FormatUint(p.Result.Busy, 10),
			strconv.FormatUint(p.Result.Reconnects, 10),
			strconv.FormatUint(p.CommittedTxns, 10),
			strconv.FormatUint(p.ReadBatches, 10),
			strconv.FormatUint(p.BatchFallbacks, 10),
			strconv.FormatUint(p.WriteBatches, 10),
			strconv.FormatUint(p.WriteBatchFallbacks, 10),
			strconv.FormatUint(p.WALFsyncs, 10),
			grp,
			strconv.FormatUint(p.CMStats.KarmaDefers, 10),
			strconv.FormatUint(p.CMStats.AbortEWMAPpm, 10),
		)
	}
	t.Fprint(os.Stdout)
}

func writeKVBenchJSON(path string, points []kvload.GridPoint, lo kvload.Options, quick bool) error {
	report := harness.NewBenchReport(quick)
	for _, p := range points {
		nsPerOp := 0.0
		if p.Result.Throughput > 0 {
			nsPerOp = 1e9 / p.Result.Throughput
		}
		// The kernel string is the baseline-matching key, so defaults — the
		// explicit-fraction mix spelling, uniform keys, fixed CM, server
		// default batching — keep the historical spelling, and only
		// non-default sweep values grow a segment.
		mix := fmt.Sprintf("r%.2f-t%.2f", lo.ReadFrac, lo.TransferFrac)
		if p.Mix != "" {
			mix = p.Mix
		}
		if lo.IncrFrac > 0 {
			mix += fmt.Sprintf("-i%.2f", lo.IncrFrac)
		}
		cell := fmt.Sprintf("mix/%s/conns%d/pipe%d/shards%d", mix, lo.Conns, lo.Pipeline, p.Shards)
		if p.Dist != "" && p.Dist != "uniform" {
			cell += "/dist-" + p.Dist
		}
		if p.CM != "" && p.CM != "fixed" {
			cell += "/cm-" + p.CM
		}
		if p.MaxBatch != 0 {
			cell += "/batch" + batchLabel(p.MaxBatch)
		}
		if p.MaxWriteBatch != 0 {
			cell += "/wbatch" + batchLabel(p.MaxWriteBatch)
		}
		if p.WALBatch > 0 {
			cell += fmt.Sprintf("/wal%d", p.WALBatch)
		}
		if p.Procs > 0 {
			cell += fmt.Sprintf("/procs%d", p.Procs)
		}
		report.Results = append(report.Results, harness.BenchPoint{
			Experiment: "kvload",
			Kernel:     cell,
			Engine:     p.Design,
			Ops:        p.Result.Ops,
			NsPerOp:    nsPerOp,
			OpsPerSec:  p.Result.Throughput,
			P50Ns:      p.Result.RTT.Quantile(0.5),
			P99Ns:      p.Result.RTT.Quantile(0.99),
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "stmbench: wrote %d kvload points to %s\n", len(report.Results), path)
	return nil
}
