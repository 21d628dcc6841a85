package authsvc

import (
	"context"
	"testing"
)

// TestAttackClassificationCounters pins the server-side view of an
// online guessing run: denied credential checks, the lockout-threshold
// crossing, and post-lockout refusals each land in their own counter.
func TestAttackClassificationCounters(t *testing.T) {
	svc := testService(t, 3)
	m := &Metrics{}
	h := WithMetrics(m)(svc)
	ctx := context.Background()

	do := func(req Request) Response { return h.Handle(ctx, req) }
	if resp := do(Request{Op: OpEnroll, User: "victim", Clicks: clicks(0)}); !resp.OK() {
		t.Fatalf("enroll: %+v", resp)
	}
	// Three wrong guesses burn the budget; the third is the crossing.
	for i := 0; i < 3; i++ {
		do(Request{Op: OpLogin, User: "victim", Clicks: clicks(9)})
	}
	// Two more attempts (one even with the right password) refuse on
	// the locked account.
	do(Request{Op: OpLogin, User: "victim", Clicks: clicks(9)})
	do(Request{Op: OpLogin, User: "victim", Clicks: clicks(0)})

	if got := m.CredentialFailures(); got != 2 {
		t.Errorf("CredentialFailures = %d, want 2 (third failure is the crossing)", got)
	}
	// Crossing attempt + two post-lock refusals answer CodeLocked.
	if got := m.LockedRefusals(); got != 3 {
		t.Errorf("LockedRefusals = %d, want 3", got)
	}
	if got := svc.LockoutsTriggered(); got != 1 {
		t.Errorf("LockoutsTriggered = %d, want 1", got)
	}

	for series, want := range map[string]float64{
		"authsvc_credential_failures_total": 2,
		"authsvc_locked_refusals_total":     3,
	} {
		if got := promValue(t, m, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}
