// Package fail is the analysis pipeline's structured error taxonomy.
//
// A long-running analysis distinguishes four ways a stage can stop short of
// a result, because callers react differently to each:
//
//   - ErrBudgetExceeded — a resource budget ran out (wall-clock deadline,
//     model-checker step/state cap, BDD node cap, GA evaluation cap). The
//     stage's result is unknown, not wrong; the pipeline degrades to a
//     safe-but-less-precise answer where it can.
//   - ErrCancelled — the caller withdrew the request (root context
//     cancelled). The pipeline unwinds promptly and returns no result.
//   - ErrWorkerPanic — a worker goroutine panicked. The panic is recovered,
//     the remaining work is cancelled, and the error carries the stack.
//   - ErrInfrastructure — the stage itself is broken (malformed input,
//     unsupported construct, simulator fault): retrying or degrading cannot
//     help, the analysis input or the tool must change.
//
// Every error is an *Error carrying the failing stage and, when known, the
// path or item it was working on, so a degradation ledger can attribute
// each unknown to its cause. All errors match the sentinels via errors.Is
// and unwrap to their cause via errors.As / errors.Unwrap.
package fail

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel kinds. Match with errors.Is; construct via the helpers below.
var (
	// ErrBudgetExceeded marks a stage stopped by a resource budget
	// (deadline, step/state/node cap, evaluation cap).
	ErrBudgetExceeded = errors.New("budget exceeded")
	// ErrCancelled marks work abandoned because the caller cancelled the
	// root context.
	ErrCancelled = errors.New("cancelled")
	// ErrWorkerPanic marks a recovered panic on a worker goroutine.
	ErrWorkerPanic = errors.New("worker panic")
	// ErrInfrastructure marks a non-recoverable tooling or input failure.
	ErrInfrastructure = errors.New("infrastructure failure")
)

// Error is an attributed pipeline error: which kind of failure, in which
// stage, on which path/item, caused by what.
type Error struct {
	// Kind is one of the package sentinels.
	Kind error
	// Stage names the pipeline stage ("mc", "testgen", "measure",
	// "partition", "core", …). Empty until attributed.
	Stage string
	// Path attributes the failure to one work item — a target path key, a
	// vector index, a sweep bound — when one is known.
	Path string
	// Msg is the human-readable detail.
	Msg string
	// Cause is the underlying error, if any (unwrapped by errors.As).
	Cause error
	// Stack holds the recovered goroutine stack for worker panics. It is
	// deliberately excluded from Error() so error strings stay comparable
	// across runs and worker counts.
	Stack []byte
}

// Error renders "stage: kind: msg (path): cause". The stack is omitted —
// retrieve it via errors.As and the Stack field.
func (e *Error) Error() string {
	s := ""
	if e.Stage != "" {
		s += e.Stage + ": "
	}
	s += e.Kind.Error()
	if e.Msg != "" {
		s += ": " + e.Msg
	}
	if e.Path != "" {
		s += " (" + e.Path + ")"
	}
	if e.Cause != nil {
		s += ": " + e.Cause.Error()
	}
	return s
}

// Is matches the error's kind, so errors.Is(err, fail.ErrBudgetExceeded)
// works without unwrapping through Cause.
func (e *Error) Is(target error) bool { return target == e.Kind }

// Unwrap exposes the cause chain (e.g. context.Canceled under an
// ErrCancelled, or a recovered error value under an ErrWorkerPanic).
func (e *Error) Unwrap() error { return e.Cause }

// Budget builds an ErrBudgetExceeded for a stage.
func Budget(stage, format string, args ...any) *Error {
	return &Error{Kind: ErrBudgetExceeded, Stage: stage, Msg: fmt.Sprintf(format, args...)}
}

// Cancelled builds an ErrCancelled for a stage.
func Cancelled(stage string, cause error) *Error {
	return &Error{Kind: ErrCancelled, Stage: stage, Cause: cause}
}

// Infra builds an ErrInfrastructure for a stage.
func Infra(stage string, cause error) *Error {
	return &Error{Kind: ErrInfrastructure, Stage: stage, Cause: cause}
}

// Panic builds an ErrWorkerPanic from a recovered value and its stack.
func Panic(stage string, recovered any, stack []byte) *Error {
	e := &Error{Kind: ErrWorkerPanic, Stage: stage, Msg: fmt.Sprint(recovered), Stack: stack}
	if err, ok := recovered.(error); ok {
		e.Cause = err
		e.Msg = ""
	}
	return e
}

// Context converts a context error into the pipeline taxonomy: a deadline
// that expired is a spent wall-clock budget, an explicit cancel is a
// withdrawn request. A nil ctxErr returns nil.
func Context(stage string, ctxErr error) error {
	switch {
	case ctxErr == nil:
		return nil
	case errors.Is(ctxErr, context.DeadlineExceeded):
		return &Error{Kind: ErrBudgetExceeded, Stage: stage, Msg: "deadline exceeded", Cause: ctxErr}
	default:
		return &Error{Kind: ErrCancelled, Stage: stage, Cause: ctxErr}
	}
}

// Attribute returns err with missing stage/path attribution filled in, or
// wraps a foreign error as ErrInfrastructure with the given attribution.
// Existing attribution is never overwritten, so the innermost (most
// precise) stage wins. The received error is never mutated: errors are
// values that several paths may hold at once (an injected fault, a shared
// cause), and stamping one path's key into a shared *Error would leak it
// into every other holder. An attributed *Error is therefore a copy; an
// *Error behind a foreign wrapper, which cannot be rebuilt, gains its
// attribution from a new *Error of the same kind around err. A nil err
// returns nil.
func Attribute(err error, stage, path string) error {
	if err == nil {
		return nil
	}
	var fe *Error
	if !errors.As(err, &fe) {
		return &Error{Kind: ErrInfrastructure, Stage: stage, Path: path, Cause: err}
	}
	if (fe.Stage != "" || stage == "") && (fe.Path != "" || path == "") {
		return err
	}
	out := &Error{Kind: fe.Kind, Cause: err}
	if top, ok := err.(*Error); ok {
		c := *top
		out = &c
	}
	if fe.Stage == "" {
		out.Stage = stage
	}
	if fe.Path == "" {
		out.Path = path
	}
	return out
}

// From classifies an arbitrary stage error into the taxonomy: context
// errors map like Context, an *Error keeps its kind (gaining attribution),
// anything else is ErrInfrastructure. A nil err returns nil.
func From(stage string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Context(stage, err)
	}
	return Attribute(err, stage, "")
}

// Interrupted reports whether err is a budget or cancellation stop — the
// two kinds a degraded analysis may absorb as "unknown" rather than abort.
func Interrupted(err error) bool {
	return errors.Is(err, ErrBudgetExceeded) || errors.Is(err, ErrCancelled) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ---------------------------------------------------------------------------
// Journal replay: a degradation cause that crossed a process boundary.

// Kind labels, the serialized form of the sentinels in a run journal.
const (
	KindBudget = "budget"
	KindCancel = "cancelled"
	KindPanic  = "panic"
	KindInfra  = "infra"
)

// KindLabel classifies err into its serializable kind label ("" for nil or
// foreign errors, which the taxonomy would have wrapped as infra anyway).
func KindLabel(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrBudgetExceeded):
		return KindBudget
	case errors.Is(err, ErrCancelled):
		return KindCancel
	case errors.Is(err, ErrWorkerPanic):
		return KindPanic
	default:
		return KindInfra
	}
}

// replayed is an error reconstructed from a journal record: it renders the
// exact string the original run produced and still matches its sentinel
// kind under errors.Is, so a resumed report is byte-identical to — and
// programmatically indistinguishable from — the uninterrupted one.
type replayed struct {
	kind error
	msg  string
}

func (r *replayed) Error() string        { return r.msg }
func (r *replayed) Is(target error) bool { return target == r.kind }

// Replayed reconstructs a journaled cause from its kind label and rendered
// message. Unknown labels conservatively map to ErrInfrastructure; a nil
// is returned for an empty label (no cause was journaled).
func Replayed(kind, msg string) error {
	if kind == "" {
		return nil
	}
	sentinel := ErrInfrastructure
	switch kind {
	case KindBudget:
		sentinel = ErrBudgetExceeded
	case KindCancel:
		sentinel = ErrCancelled
	case KindPanic:
		sentinel = ErrWorkerPanic
	}
	return &replayed{kind: sentinel, msg: msg}
}
