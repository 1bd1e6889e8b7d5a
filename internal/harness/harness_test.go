package harness

import (
	"strings"
	"testing"
)

// TestAllExperimentsQuick runs every experiment at test scale: the tables
// must materialize with consistent geometry and non-empty cells. This is the
// end-to-end check that the whole benchmark harness is runnable.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range ExperimentIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			tables, err := Run(id, true)
			if err != nil {
				t.Fatalf("Run(%s): %v", id, err)
			}
			if len(tables) == 0 {
				t.Fatalf("Run(%s): no tables", id)
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Errorf("%s: empty table", tbl.ID)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Header) {
						t.Errorf("%s: row %v has %d cells, header has %d", tbl.ID, row, len(row), len(tbl.Header))
					}
					for i, c := range row {
						if c == "" {
							t.Errorf("%s: empty cell %d in row %v", tbl.ID, i, row)
						}
					}
				}
				var sb strings.Builder
				tbl.Fprint(&sb)
				out := sb.String()
				if !strings.Contains(out, tbl.ID) || !strings.Contains(out, tbl.Header[0]) {
					t.Errorf("%s: Fprint output missing id/header:\n%s", tbl.ID, out)
				}
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("e99", true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed generators diverged")
		}
	}
	if NewRand(0).Next() == 0 {
		t.Fatal("zero seed not remapped")
	}
	r := NewRand(9)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestThreadCounts(t *testing.T) {
	got := ThreadCounts(8)
	want := []int{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("ThreadCounts(8) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ThreadCounts(8) = %v, want %v", got, want)
		}
	}
	if got := ThreadCounts(6); got[len(got)-1] != 6 {
		t.Fatalf("ThreadCounts(6) = %v, must end in 6", got)
	}
	if got := ThreadCounts(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("ThreadCounts(0) = %v, want [1]", got)
	}
}

func TestFormattingHelpers(t *testing.T) {
	if got := Ops(2_500_000); got != "2.50M" {
		t.Errorf("Ops(2.5e6) = %q", got)
	}
	if got := Ops(1_500); got != "1.5k" {
		t.Errorf("Ops(1500) = %q", got)
	}
	if got := Ops(42); got != "42" {
		t.Errorf("Ops(42) = %q", got)
	}
	if got := Pct(1, 4); got != "25.0%" {
		t.Errorf("Pct(1,4) = %q", got)
	}
	if got := Pct(1, 0); got != "0.0%" {
		t.Errorf("Pct(1,0) = %q", got)
	}
	if got := Ratio(0, 0); got != "inf" {
		t.Errorf("Ratio(0,0) = %q", got)
	}
}

func TestThroughputRunsAllOps(t *testing.T) {
	var counts [4][256]uint8 // per-worker op tallies without synchronization
	Throughput(4, 100, func(w int, rng *Rand) {
		counts[w][rng.Intn(256)]++
	})
	for w := range counts {
		total := 0
		for _, c := range counts[w] {
			total += int(c)
		}
		if total != 100 {
			t.Fatalf("worker %d ran %d ops, want 100", w, total)
		}
	}
}
