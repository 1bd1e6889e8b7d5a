package main

import (
	"fmt"
	"slices"
	"time"
)

// ladderSteps are the shares of a workload's fixed open-loop rate the ladder
// climbs through.
var ladderSteps = []float64{0.25, 0.5, 1, 1.5, 2}

// runLadder steps the open-loop rate of each kv.* workload through five fixed
// rates and reports max_rate_ok: the highest rate at which the 99th percentile
// (pooled over the step) stays under the workload's limit with no backlog left
// at the end. It is
// informational and not part of the default run.
func runLadder(names []string, cfg *runConfig) error {
	for _, spec := range kvSpecs {
		if !slices.Contains(names, spec.name) {
			continue
		}
		e, err := setupKV(spec, cfg, nil, nil, snapEvery)
		if err != nil {
			return err
		}
		gens := newGens(spec, cfg.seed)
		d := cfg.measure / time.Duration(len(ladderSteps))
		maxOK := 0.0
		for _, step := range ladderSteps {
			rate := step * float64(spec.rate)
			for _, c := range e.clients {
				c.nc.SetDeadline(time.Now().Add(d + 60*time.Second))
			}
			open, err := openLoop(e.clients, gens, time.Duration(float64(time.Second)/rate), d)
			if err != nil {
				e.close()
				return err
			}
			p99 := open.lat.quantile(0.99) / 1e3
			// A millisecond's worth of requests due but unsent at the end is
			// the generator's last sleep, not a queue that grows.
			ok := p99 <= spec.p99LimitUs && float64(open.backlog) <= rate/1000+1
			if ok && rate > maxOK {
				maxOK = rate
			}
			fmt.Printf("%-17s ladder rate %8.0f ops/s  p50 %10.1f us  p99 %10.1f us  (limit %.0f us)  gen_late %7.1f us  backlog %d  n=%d  ok=%v\n",
				spec.name, rate, open.lat.quantile(0.5)/1e3, p99, spec.p99LimitUs, open.late.quantile(0.5)/1e3, open.backlog, open.lat.n, ok)
		}
		fmt.Printf("%-17s info   %-32s %16.4f ops/s\n", spec.name, "max_rate_ok", maxOK)
		t := e.tally()
		if err := e.close(); err != nil {
			return err
		}
		if t.failed > 0 {
			return fmt.Errorf("%s: %d of %d requests failed; first: %s", spec.name, t.failed, t.attempted, t.firstErr)
		}
	}
	return nil
}
