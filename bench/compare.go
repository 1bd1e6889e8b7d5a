package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// manifest is BENCHMARK.json: the names the benchmark emits and the bound by
// which each end-to-end metric may get worse.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadManifest reads BENCHMARK.json from the root of the repository, whether
// the benchmark was started there or in its own directory.
func loadManifest() (*manifest, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		m := new(manifest)
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return m, nil
	}
	return nil, firstErr
}

// quartiles returns the first quartile, the median and the third quartile by
// the method Python's statistics.quantiles(v, n=4) uses, so that a spread
// computed here is the one the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), median(s), at(3)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// series collects, per workload and end-to-end metric, the values of the runs.
func series(runs [][]*result) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, run := range runs {
		for _, r := range run {
			if out[r.Workload] == nil {
				out[r.Workload] = make(map[string][]float64)
			}
			for _, m := range r.Metrics {
				out[r.Workload][m.Name] = append(out[r.Workload][m.Name], m.Value)
			}
		}
	}
	return out
}

// printSpreads is the report of -aa: each metric's run-to-run spread on one
// build against the bound the manifest gives it.
func printSpreads(runs [][]*result) error {
	m, err := loadManifest()
	if err != nil {
		return err
	}
	ser := series(runs)
	fmt.Printf("%-17s %-10s %14s %14s %14s %8s %7s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "")
	for _, w := range m.Workloads {
		for _, d := range m.EndToEnd {
			v := ser[w.Name][d.Name]
			if len(v) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			sp := spread(v)
			note := "steady"
			switch {
			case sp > d.Bound:
				note = "UNRESOLVED: spread wider than the bound"
			case sp > d.Bound/3:
				note = "wide: more than a third of the bound"
			}
			fmt.Printf("%-17s %-10s %14.4f %14.4f %14.4f %7.2f%% %6.0f%%  %s\n", w.Name, d.Name, q1, q2, q3, 100*sp, 100*d.Bound, note)
		}
	}
	return nil
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := new(report)
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func compareFiles(a, b string) error {
	ra, err := readReport(a)
	if err != nil {
		return err
	}
	rb, err := readReport(b)
	if err != nil {
		return err
	}
	return compareRuns(ra.Runs, rb.Runs)
}

// compareRuns judges side B against side A, one row per workload and
// end-to-end metric, by the rules of the choosing-metrics guide:
//
//	unresolved  A's own runs spread wider than the metric's bound, so nothing
//	            can be said;
//	regressed   B's median is worse than A's by more than the bound;
//	improved    B won at least nine tenths of the pairs (run i of A against
//	            run i of B, ties counting for neither), of which there must be
//	            ten, and the medians differ by more than the distance between
//	            A's quartiles;
//	unchanged   otherwise.
func compareRuns(a, b [][]*result) error {
	m, err := loadManifest()
	if err != nil {
		return err
	}
	sa, sb := series(a), series(b)
	fmt.Printf("%-17s %-10s %14s %14s %9s %8s %7s %6s  %s\n", "workload", "metric", "A median", "B median", "better by", "A spread", "bound", "B wins", "verdict")
	regressed := false
	for _, w := range m.Workloads {
		for _, d := range m.EndToEnd {
			va, vb := sa[w.Name][d.Name], sb[w.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			q1, ma, q3 := quartiles(va)
			_, mb, _ := quartiles(vb)
			worse := (mb - ma) / ma // positive when B is worse
			if d.Better == "higher" {
				worse = -worse
			}
			pairs := min(len(va), len(vb))
			wins, losses := 0, 0
			for i := 0; i < pairs; i++ {
				switch {
				case va[i] == vb[i]:
				case (vb[i] > va[i]) == (d.Better == "higher"):
					wins++
				default:
					losses++
				}
			}
			verdict := "unchanged"
			switch {
			case spread(va) > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				regressed = true
			case pairs >= 10 && wins*10 >= 9*(wins+losses) && wins > 0 && worse < 0 && math.Abs(mb-ma) > q3-q1:
				verdict = "improved"
			}
			fmt.Printf("%-17s %-10s %14.4f %14.4f %+8.2f%% %7.2f%% %6.0f%% %3d/%-2d  %s\n",
				w.Name, d.Name, ma, mb, -100*worse, 100*spread(va), 100*d.Bound, wins, wins+losses, verdict)
		}
	}
	if regressed {
		return fmt.Errorf("at least one metric regressed by more than its bound")
	}
	return nil
}

// runPairs is the paired protocol: n pairs of runs of two benchmark binaries
// (say, one built at the parent commit and one at the change, each run from
// the root of its own checkout), alternating which side goes first, every pair
// on a seed of its own, followed by the comparison. The binaries are given the
// arguments the driver gives them.
func runPairs(n int, binA, binB, workload string, cfg *runConfig) error {
	names := workloadNames
	if workload != "" {
		names = []string{workload}
	}
	one := func(bin, name string, seed uint64) (*result, error) {
		cmd := exec.Command(bin, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(int(cfg.measure.Seconds())), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", bin, name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var line struct {
			Correct   bool
			Attempted uint64
			Failed    uint64
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
			return nil, fmt.Errorf("%s %s: last line of output: %w", bin, name, err)
		}
		r := &result{Workload: name, Correct: line.Correct, Attempted: line.Attempted, Failed: line.Failed}
		for _, d := range endToEnd {
			r.put(d.name, line.Metrics[d.name].Value, line.Metrics[d.name].Unit, 0)
		}
		return r, nil
	}
	var a, b [][]*result
	for i := 0; i < n; i++ {
		var ra, rb []*result
		for _, name := range names {
			for turn := 0; turn < 2; turn++ {
				isA := turn == i%2 // A goes first in even pairs, B in odd ones
				bin := binB
				if isA {
					bin = binA
				}
				r, err := one(bin, name, cfg.seed+uint64(i))
				if err != nil {
					return err
				}
				fmt.Printf("pair %d %s %s %s\n", i+1, bin, name, resultLine(r))
				if isA {
					ra = append(ra, r)
				} else {
					rb = append(rb, r)
				}
			}
		}
		a, b = append(a, ra), append(b, rb)
	}
	return compareRuns(a, b)
}
