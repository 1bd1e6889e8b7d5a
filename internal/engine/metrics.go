package engine

// AbortCause classifies why a transaction attempt was rolled back. The
// taxonomy follows the conflict points of the paper's runtime: optimistic
// reads fail validation, eager ownership acquisition collides with another
// owner, the contention manager gives up, a doomed (zombie) attempt computes
// an error that must not escape, or the user aborts deliberately.
type AbortCause uint8

const (
	// CauseValidation: the read set failed validation (at commit, at an
	// explicit Validate, or eagerly at read time in snapshot-based designs).
	CauseValidation AbortCause = iota
	// CauseOwnership: an open found the object (or its stripe) owned or
	// locked by another transaction and could not proceed.
	CauseOwnership
	// CauseCMKill: the contention manager decided to abandon the attempt
	// after waiting on an owner.
	CauseCMKill
	// CauseDoomed: the body returned an error while the snapshot was
	// inconsistent; the attempt was rolled back and retried instead of
	// surfacing the zombie-computed error.
	CauseDoomed
	// CauseExplicit: user-invoked Abort, or a body error on a consistent
	// snapshot (which aborts without retrying).
	CauseExplicit
	// CauseDeadline: the attempt was abandoned at a contention-manager wait
	// because the transaction's bound context was canceled or its RunCtx
	// deadline passed while it waited on another owner.
	CauseDeadline

	// NumAbortCauses is the number of causes in the taxonomy.
	NumAbortCauses = int(CauseDeadline) + 1
)

// String returns the short label used in tables and export formats.
func (c AbortCause) String() string {
	switch c {
	case CauseValidation:
		return "validation"
	case CauseOwnership:
		return "ownership"
	case CauseCMKill:
		return "cm-kill"
	case CauseDoomed:
		return "doomed"
	case CauseExplicit:
		return "explicit"
	case CauseDeadline:
		return "deadline"
	}
	return "unknown"
}

// AbortCauses lists the taxonomy in recording order, for iteration by
// reporters.
var AbortCauses = [NumAbortCauses]AbortCause{
	CauseValidation, CauseOwnership, CauseCMKill, CauseDoomed, CauseExplicit,
	CauseDeadline,
}

// MetricsSnapshot is the abort-cause share of a Stats snapshot.
//
// Deprecated: read Stats.AbortsByCause; kept until bench/ moves off
// memtx.TM.Metrics.
type MetricsSnapshot struct {
	// AbortsByCause is indexed by AbortCause.
	AbortsByCause [NumAbortCauses]uint64
}

// Aborts returns the count for one cause.
func (s MetricsSnapshot) Aborts(c AbortCause) uint64 {
	if int(c) >= NumAbortCauses {
		return 0
	}
	return s.AbortsByCause[c]
}

// Sub returns the difference s - t, counter by counter, for per-interval
// reporting.
func (s MetricsSnapshot) Sub(t MetricsSnapshot) MetricsSnapshot {
	var d MetricsSnapshot
	for i := range s.AbortsByCause {
		d.AbortsByCause[i] = s.AbortsByCause[i] - t.AbortsByCause[i]
	}
	return d
}
