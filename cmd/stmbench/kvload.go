package main

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"memtx/internal/harness"
	"memtx/internal/kvload"
)

// kvOptions carries the -kv* flag values into the kvload driver.
type kvOptions struct {
	addr         string // host:port of a running stmkvd
	conns        int
	keys         int
	valSize      int
	readFrac     float64
	transferFrac float64
	incrFrac     float64
	mix          string // YCSB-style preset; empty = explicit fractions
	dist         string // key distribution
	duration     time.Duration
	pipeline     int
	quick        bool
}

// loadOptions validates the flag values and builds the driver's options; an
// error is a usage error. -kvload names one live server, and -kv-mix and
// -kv-dist each take a single value, so their parsers reject a comma list.
func (o kvOptions) loadOptions() (kvload.Options, error) {
	lo := kvload.Options{
		Addr:         o.addr,
		Conns:        o.conns,
		Keys:         o.keys,
		ValueSize:    o.valSize,
		ReadFrac:     o.readFrac,
		TransferFrac: o.transferFrac,
		IncrFrac:     o.incrFrac,
		Duration:     o.duration,
		Pipeline:     o.pipeline,
	}
	if _, _, err := net.SplitHostPort(o.addr); err != nil {
		return lo, fmt.Errorf("-kvload %q: want the host:port of a running stmkvd", o.addr)
	}
	if o.quick {
		lo.Duration = 500 * time.Millisecond
		if o.keys == 10000 {
			lo.Keys = 1000
		}
	}
	d, err := kvload.ParseDist(o.dist)
	if err != nil {
		return lo, err
	}
	lo.Dist = d
	if o.mix != "" {
		if err := lo.ApplyMix(o.mix); err != nil {
			return lo, err
		}
	}
	return lo, nil
}

// runKVLoad seeds the server, drives one load run, optionally audits the
// account sum, and prints a one-row throughput/latency table.
func runKVLoad(lo kvload.Options, verify bool) error {
	if err := kvload.Preload(lo); err != nil {
		return fmt.Errorf("preload %s: %w", lo.Addr, err)
	}
	res, err := kvload.Run(lo)
	if err != nil {
		return err
	}
	if verify {
		if err := kvload.VerifySum(lo); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "stmbench: kvload: account sum verified against %s\n", lo.Addr)
	}
	printKVTable(res, lo)
	return nil
}

func printKVTable(res *kvload.Result, lo kvload.Options) {
	t := &harness.Table{
		ID:     "kvload",
		Title:  lo.String(),
		Header: []string{"dist", "mix", "ops", "ops/sec", "p50(us)", "p99(us)", "errs", "busy", "reconn"},
	}
	mix := lo.Mix
	if mix == "" {
		mix = "-"
	}
	t.AddRow(
		lo.Dist.String(),
		mix,
		strconv.FormatUint(res.Ops, 10),
		fmt.Sprintf("%.0f", res.Throughput),
		fmt.Sprintf("%.1f", float64(res.RTT.Quantile(0.5))/1e3),
		fmt.Sprintf("%.1f", float64(res.RTT.Quantile(0.99))/1e3),
		strconv.FormatUint(res.Errors, 10),
		strconv.FormatUint(res.Busy, 10),
		strconv.FormatUint(res.Reconnects, 10),
	)
	t.Fprint(os.Stdout)
}
