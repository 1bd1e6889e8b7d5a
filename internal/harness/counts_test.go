package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"memtx/internal/engine"
	"memtx/internal/progs"
	"memtx/internal/til/passes"
)

var update = flag.Bool("update", false, "rewrite testdata/experiment_counts.golden")

const countsGolden = "testdata/experiment_counts.golden"

// TestExperimentCounts pins the counts of every single-threaded experiment
// cell at test scale: each E2 kernel at each optimization level, each E5
// filter size and each E6 compaction threshold. The counts are exact, so any
// change to the passes, the log filter, compaction or the engine's
// accounting shows up here as a diff of the golden file, not only in
// stmbench's tables. Times are not recorded. Run with -update to rewrite the
// file after a change that is meant to move a count.
func TestExperimentCounts(t *testing.T) {
	var out bytes.Buffer
	fmt.Fprintln(&out, "# go test ./internal/harness/ -run TestExperimentCounts -update rewrites this file.")
	fmt.Fprintln(&out, "# E2: kernel level static opensR opensU undos filterhit | engine Stats | read-only commits")
	for _, k := range progs.All() {
		for _, level := range passes.Levels {
			c, err := Compile(k, level)
			if err != nil {
				t.Fatal(err)
			}
			e := &roCounter{Engine: Engines[1].New()}
			mach, err := c.Load(e)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(mach, kernelSize(k, true)); err != nil {
				t.Fatal(err)
			}
			st := mach.Stats
			s := e.Stats()
			fmt.Fprintf(&out, "e2 %-6s %-7s static=%d opensR=%d opensU=%d undos=%d filterhit=%d %s rocommits=%d\n",
				k.Name, level, passes.CountBarriers(c.mod).Total(), st.OpensR, st.OpensU, st.Undos,
				s.FilterHits, logCounts(s), e.commits)
		}
	}
	fmt.Fprintln(&out, "# E5: filter size | engine Stats over the table's transactions")
	_, _, txns := filterScale(true)
	for _, size := range FilterSizes {
		e, txn := FilterCell(size, true)
		before := e.Stats()
		for n := 0; n < txns; n++ {
			if err := txn(); err != nil {
				t.Fatal(err)
			}
		}
		s := e.Stats().Sub(before)
		fmt.Fprintf(&out, "e5 filter=%-4d undos=%d filterhit=%d %s\n", size, s.UndoLogged, s.FilterHits, logCounts(s))
	}
	fmt.Fprintln(&out, "# E6: compaction threshold | peak and final read log | engine Stats")
	for _, threshold := range CompactionThresholds {
		e, txn := CompactionCell(threshold, true)
		peak, final, err := txn()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "e6 compaction=%-4d peak=%d final=%d %s\n", threshold, peak, final, logCounts(e.Stats()))
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(countsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(countsGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(countsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s line %d:\n got %s\nwant %s", countsGolden, i+1, g, w)
		}
	}
}

// logCounts formats the engine's read-log counters.
func logCounts(s engine.Stats) string {
	return fmt.Sprintf("readlog=%d localskips=%d compactions=%d dropped=%d",
		s.ReadLogEntries, s.LocalSkips, s.Compactions, s.ReadLogDropped)
}

// roCounter wraps an engine and counts the read-only transactions that
// commit on it.
type roCounter struct {
	engine.Engine
	commits int
}

func (e *roCounter) BeginReadOnly() engine.Txn { return &roTxn{e.Engine.BeginReadOnly(), e} }

type roTxn struct {
	engine.Txn
	e *roCounter
}

func (t *roTxn) Commit() error {
	err := t.Txn.Commit()
	if err == nil {
		t.e.commits++
	}
	return err
}
