// Package mc is the model checker standing in for SAL: given a transition
// system and a trap location, it either produces a run reaching the trap —
// whose initial state is the wanted test datum — or proves the trap
// unreachable, establishing path infeasibility.
//
// Three engines are provided. The symbolic engine (BDD-based breadth-first
// reachability with counterexample extraction) decides any model; it is the
// engine of the paper's Table 2 and the reference of the differential
// suites. The forward engine (forward.go) decides models whose location
// graph is acyclic in one topological pass, without a transition relation
// or a fixpoint. The explicit-state engine enumerates concrete states and
// cross-checks the others on small models. All report the metrics of
// Table 2: wall time, memory footprint, and steps (BFS iterations, or
// locations visited by the forward pass).
//
// Dispatch: NewQuery and CheckCtx — what test generation calls — use the
// forward engine when the sliced model is acyclic between its initial
// location and its trap, and reachability otherwise, or when the forward
// pass meets overlapping join conditions. There is no option: the model's
// shape decides. CheckSymbolic and NewSymbolicQuery always use
// reachability.
//
// Configuration: Options carries budgets only. The symbolic engine always
// slices the model to its trap (opt.SliceTrap on a private clone, so
// witnesses omit sliced-away inputs, any value of which extends a
// trap-reaching run), reorders variables dynamically when the table grows,
// and leases its BDD manager from a pool. None of these changes a verdict;
// the differential suites switch each off through a test-only constructor
// and compare.
//
// Engine state is per-query: every check builds its own encoding and BDD
// manager (managers are not goroutine-safe) and returns its Stats by value
// in the Result, so independent checks may run concurrently. The only
// package-level state is a sync.Pool of recycled managers (see query.go),
// which is concurrency-safe and — because a reset manager is
// observationally identical to a fresh one — invisible to results and
// deterministic statistics.
package mc

import (
	"time"

	"wcet/internal/tsys"
)

// Stats are the cost metrics of one run (the Table 2 columns).
type Stats struct {
	// Steps counts breadth-first iterations until the trap was hit or the
	// fixpoint was reached — the paper's "steps" column. The forward
	// engine counts the locations its topological pass visits.
	Steps int
	// PeakNodes is the BDD table's high-water node count over the run
	// (symbolic engine). Dynamic reordering can shrink the live table
	// mid-run; the peak keeps the paper's "memory" meaning.
	PeakNodes int
	// MemoryBytes is the working-set size: the deterministic logical
	// footprint of the BDD tables for the symbolic engine (bdd.Footprint —
	// a pooled manager's exact capacities are volatile), the state set for
	// the explicit engine.
	MemoryBytes int64
	// Reorders counts the dynamic variable reorders the symbolic engine
	// applied — sifting rounds that found a better order (zero when
	// reordering never triggered or found nothing to improve).
	Reorders int
	// Duration is the wall-clock simulation time.
	Duration time.Duration
	// States is the number of distinct reachable states visited (explicit)
	// or a satisfying-assignment estimate of the reachable set (symbolic).
	// The forward engine reports the number of initial states whose run
	// reaches the trap.
	States float64
	// StateBits is the encoded state-vector width of the checked model.
	StateBits int
}

// Result of a reachability query.
type Result struct {
	// Reachable reports whether the trap location can be reached.
	Reachable bool
	// Witness gives, for a reachable trap, the initial values of the model's
	// input variables on some trap-reaching run — the generated test datum.
	Witness map[tsys.VarID]int64
	Stats   Stats
}

// Options bound a run; budgets are the engines' only settings. Exhausting
// any bound is a structured fail.ErrBudgetExceeded error, never a silent
// "unreachable": a truncated search proves nothing, and reporting it as
// infeasibility would make the final WCET bound unsound.
type Options struct {
	// MaxSteps aborts the search after this many frontier expansions
	// (default 10000). Zero or negative selects the default: a negative
	// bound would otherwise disable the abort check entirely.
	MaxSteps int
	// MaxStates bounds the explicit engine's visited set (default 2_000_000).
	// Zero or negative selects the default.
	MaxStates int
	// MaxNodes bounds the symbolic engine's BDD table (default 8_000_000
	// nodes ≈ 100 MB): a path whose relation or frontier blows up stops
	// with a budget error instead of growing without bound. Zero or
	// negative selects the default.
	MaxNodes int
	// Timeout bounds one check's wall clock (0 = none). Expiry surfaces as
	// fail.ErrBudgetExceeded; the paper's model-checker runs "may take
	// minutes to hours", so production pipelines set this per path.
	Timeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxSteps <= 0 {
		o.MaxSteps = 10000
	}
	if o.MaxStates <= 0 {
		o.MaxStates = 2_000_000
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 8_000_000
	}
	return o
}
