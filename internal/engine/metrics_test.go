package engine

import "testing"

func TestMetricsRecorder(t *testing.T) {
	var r Recorder
	a, b := r.Stripe(), r.Stripe()
	var n Stats
	attempt := func(s *Stripe, committed bool, cause AbortCause) {
		s.Begin()
		s.Finish(&n, committed, cause)
	}
	attempt(a, false, CauseValidation)
	attempt(b, false, CauseValidation)
	attempt(a, false, CauseCMKill)
	attempt(b, true, CauseExplicit)
	attempt(a, false, AbortCause(200)) // out of range: recorded as explicit

	s := r.Stats()
	if want := [NumAbortCauses]uint64{CauseValidation: 2, CauseCMKill: 1, CauseExplicit: 1}; s.AbortsByCause != want {
		t.Fatalf("aborts by cause = %v, want %v", s.AbortsByCause, want)
	}
	if s.Starts != 5 || s.Commits != 1 || s.Aborts != 4 {
		t.Fatalf("Stats = %+v, want 5 starts, 1 commit, 4 aborts", s)
	}
}

func TestAbortCauseStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range AbortCauses {
		name := c.String()
		if name == "" || name == "unknown" {
			t.Fatalf("cause %d has no label", c)
		}
		if seen[name] {
			t.Fatalf("duplicate cause label %q", name)
		}
		seen[name] = true
	}
	if AbortCause(200).String() != "unknown" {
		t.Fatal("out-of-range cause must print unknown")
	}
}
