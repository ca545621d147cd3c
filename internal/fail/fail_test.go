package fail

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestConstructorsMatchTheirSentinels(t *testing.T) {
	cases := []struct {
		err  error
		kind error
	}{
		{Budget("mc", "steps out after %d", 5), ErrBudgetExceeded},
		{Cancelled("core", context.Canceled), ErrCancelled},
		{Infra("measure", errors.New("sim fault")), ErrInfrastructure},
		{Panic("par", "boom", []byte("stack")), ErrWorkerPanic},
	}
	kinds := []error{ErrBudgetExceeded, ErrCancelled, ErrInfrastructure, ErrWorkerPanic}
	for _, c := range cases {
		for _, k := range kinds {
			got := errors.Is(c.err, k)
			want := k == c.kind
			if got != want {
				t.Errorf("errors.Is(%v, %v) = %v, want %v", c.err, k, got, want)
			}
		}
	}
}

func TestErrorStringExcludesStack(t *testing.T) {
	e := Panic("testgen", "boom", []byte("goroutine 7 [running]:\nmain.explode()"))
	if got := e.Error(); got != "testgen: worker panic: boom" {
		t.Errorf("Error() = %q, want attribution without the stack", got)
	}
	var fe *Error
	if !errors.As(e, &fe) || len(fe.Stack) == 0 {
		t.Error("stack must stay retrievable via errors.As")
	}
}

func TestErrorStringFormat(t *testing.T) {
	cause := errors.New("root")
	e := &Error{Kind: ErrBudgetExceeded, Stage: "mc", Path: "B1-B2", Msg: "step budget", Cause: cause}
	want := "mc: budget exceeded: step budget (B1-B2): root"
	if e.Error() != want {
		t.Errorf("Error() = %q, want %q", e.Error(), want)
	}
}

func TestPanicWithErrorValueBecomesCause(t *testing.T) {
	root := errors.New("exploded")
	e := Panic("measure", root, nil)
	if !errors.Is(e, ErrWorkerPanic) || !errors.Is(e, root) {
		t.Errorf("panic over an error value must match both the kind and the cause: %v", e)
	}
}

func TestContextMapping(t *testing.T) {
	if Context("mc", nil) != nil {
		t.Error("nil context error must map to nil")
	}
	if err := Context("mc", context.DeadlineExceeded); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("deadline must map to budget exceeded, got %v", err)
	}
	if err := Context("mc", context.Canceled); !errors.Is(err, ErrCancelled) {
		t.Errorf("cancel must map to cancelled, got %v", err)
	}
}

func TestAttributeInnermostStageWins(t *testing.T) {
	inner := Budget("mc", "node budget")
	out := Attribute(inner, "testgen", "B1-B3")
	var fe *Error
	if !errors.As(out, &fe) {
		t.Fatal("attributed error lost its type")
	}
	if fe.Stage != "mc" {
		t.Errorf("existing stage overwritten: %q", fe.Stage)
	}
	if fe.Path != "B1-B3" {
		t.Errorf("empty path not filled: %q", fe.Path)
	}
}

// TestAttributeSharedErrorFromTwoPaths attributes one error value from
// two paths, as two workers do when an injected fault or a shared cause
// reaches both. Each result must carry its own path, and the shared value
// must stay unattributed.
func TestAttributeSharedErrorFromTwoPaths(t *testing.T) {
	shared := Budget("mc", "injected step budget")
	wrapped := fmt.Errorf("retry: %w", Budget("", "injected"))
	for _, err := range []error{shared, wrapped} {
		a := Attribute(err, "testgen", "P1")
		b := Attribute(err, "testgen", "P2")
		var fa, fb *Error
		if !errors.As(a, &fa) || !errors.As(b, &fb) {
			t.Fatalf("attributed errors lost their type: %v, %v", a, b)
		}
		if fa.Path != "P1" || fb.Path != "P2" {
			t.Errorf("paths %q, %q; want P1, P2", fa.Path, fb.Path)
		}
		if !errors.Is(a, ErrBudgetExceeded) || !errors.Is(b, ErrBudgetExceeded) {
			t.Errorf("attribution lost the kind: %v, %v", a, b)
		}
		var orig *Error
		errors.As(err, &orig)
		if orig.Path != "" {
			t.Errorf("Attribute mutated its argument: path %q", orig.Path)
		}
	}
	if got := Attribute(shared, "testgen", "P1").Error(); got != "mc: budget exceeded: injected step budget (P1)" {
		t.Errorf("attributed string = %q", got)
	}
}

func TestAttributeWrapsForeignErrors(t *testing.T) {
	root := fmt.Errorf("file missing")
	out := Attribute(root, "core", "")
	if !errors.Is(out, ErrInfrastructure) || !errors.Is(out, root) {
		t.Errorf("foreign error must become attributed infrastructure failure: %v", out)
	}
	if Attribute(nil, "core", "x") != nil {
		t.Error("nil must stay nil")
	}
}

func TestFromClassifies(t *testing.T) {
	if err := From("mc", context.Canceled); !errors.Is(err, ErrCancelled) {
		t.Errorf("From(ctx cancel) = %v", err)
	}
	if err := From("mc", context.DeadlineExceeded); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("From(ctx deadline) = %v", err)
	}
	if err := From("mc", Budget("", "x")); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("From(*Error) = %v", err)
	}
	if err := From("mc", errors.New("misc")); !errors.Is(err, ErrInfrastructure) {
		t.Errorf("From(foreign) = %v", err)
	}
	if From("mc", nil) != nil {
		t.Error("From(nil) must be nil")
	}
}

func TestInterrupted(t *testing.T) {
	for _, err := range []error{
		Budget("mc", "x"), Cancelled("core", nil),
		context.Canceled, context.DeadlineExceeded,
	} {
		if !Interrupted(err) {
			t.Errorf("Interrupted(%v) = false", err)
		}
	}
	for _, err := range []error{Infra("m", errors.New("x")), Panic("p", "b", nil), errors.New("misc")} {
		if Interrupted(err) {
			t.Errorf("Interrupted(%v) = true", err)
		}
	}
}
