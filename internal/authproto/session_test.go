package authproto

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clickpass/internal/authsvc"
	"clickpass/internal/core"
	"clickpass/internal/geom"
	"clickpass/internal/passpoints"
	"clickpass/internal/session"
	"clickpass/internal/vault"
)

// countingStore wraps a vault.Store and counts every call — the probe
// behind the session tier's core claim: validating a token touches
// the store zero times. gets counts the materialising Get alone, which
// a login never makes.
type countingStore struct {
	vault.Store
	calls, gets atomic.Int64
}

func (c *countingStore) Put(rec *passpoints.Record) error {
	c.calls.Add(1)
	return c.Store.Put(rec)
}

func (c *countingStore) Replace(rec *passpoints.Record) error {
	c.calls.Add(1)
	return c.Store.Replace(rec)
}

func (c *countingStore) Get(user string) (*passpoints.Record, error) {
	c.calls.Add(1)
	c.gets.Add(1)
	return c.Store.Get(user)
}

func (c *countingStore) GetPacked(user string) (passpoints.Packed, error) {
	c.calls.Add(1)
	return c.Store.GetPacked(user)
}

func (c *countingStore) Delete(user string) {
	c.calls.Add(1)
	c.Store.Delete(user)
}

func (c *countingStore) Users() []string {
	c.calls.Add(1)
	return c.Store.Users()
}

func (c *countingStore) Len() int {
	c.calls.Add(1)
	return c.Store.Len()
}

func (c *countingStore) All() []*passpoints.Record {
	c.calls.Add(1)
	return c.Store.All()
}

// sessionServer builds a server over a counting store with the
// session tier mounted.
func sessionServer(t *testing.T) (*Server, *countingStore, *session.Manager) {
	t.Helper()
	cs := &countingStore{Store: vault.NewSharded(0)}
	s, err := NewServer(testCfg(t), cs, 3)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := session.New(session.Options{TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	s.SetSession(mgr)
	return s, cs, mgr
}

func testCfg(t *testing.T) passpoints.Config {
	t.Helper()
	scheme, err := core.NewCentered(13)
	if err != nil {
		t.Fatal(err)
	}
	return passpoints.Config{
		Image:      geom.Size{W: 451, H: 331},
		Clicks:     5,
		Scheme:     scheme,
		Iterations: 2,
	}
}

// TestSessionEndToEndTCP: login over real TCP returns a token; the
// token validates on the same front with zero store calls; a password
// change revokes it; no login or change makes a Get.
func TestSessionEndToEndTCP(t *testing.T) {
	s, cs, _ := sessionServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = s.Serve(l) }()

	c, err := Dial(l.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if resp, err := c.Enroll(ctx, "iris", clicks(0)); err != nil || !resp.OK() {
		t.Fatalf("enroll: %+v %v", resp, err)
	}
	login, err := c.Login(ctx, "iris", clicks(0))
	if err != nil || !login.OK() {
		t.Fatalf("login: %+v %v", login, err)
	}
	if login.Token == "" {
		t.Fatalf("session-enabled login returned no token")
	}

	before := cs.calls.Load()
	for i := 0; i < 50; i++ {
		resp, err := c.Validate(ctx, login.Token)
		if err != nil || !resp.OK() || resp.User != "iris" {
			t.Fatalf("validate %d: %+v %v", i, resp, err)
		}
	}
	if resp, err := c.Validate(ctx, "bogus"); err != nil || resp.Code != authsvc.CodeDenied {
		t.Fatalf("bogus validate: %+v %v", resp, err)
	}
	if got := cs.calls.Load(); got != before {
		t.Fatalf("validate path made %d store calls, want 0", got-before)
	}

	// Changing the password cuts off the old session.
	if resp, err := c.Change(ctx, "iris", clicks(0), clicks(1)); err != nil || !resp.OK() {
		t.Fatalf("change: %+v %v", resp, err)
	}
	if resp, err := c.Validate(ctx, login.Token); err != nil || resp.Code != authsvc.CodeDenied {
		t.Fatalf("validate after change: %+v %v", resp, err)
	}
	// A fresh login under the new password mints a working token.
	login2, err := c.Login(ctx, "iris", clicks(1))
	if err != nil || !login2.OK() || login2.Token == "" {
		t.Fatalf("re-login: %+v %v", login2, err)
	}
	if resp, err := c.Validate(ctx, login2.Token); err != nil || !resp.OK() {
		t.Fatalf("validate fresh token: %+v %v", resp, err)
	}
	if n := cs.gets.Load(); n != 0 {
		t.Errorf("logins and a change made %d Get calls, want 0: a login reads with GetPacked", n)
	}
}

// TestSessionEndToEndHTTP: the same flow over the HTTP front — both
// codecs share the one WithSession stage.
func TestSessionEndToEndHTTP(t *testing.T) {
	s, _, _ := sessionServer(t)
	srv := httptest.NewServer(s.HTTPHandler())
	defer srv.Close()
	c := NewHTTPClient(srv.URL, nil)
	defer c.Close()
	ctx := context.Background()
	if resp, err := c.Enroll(ctx, "hugo", clicks(0)); err != nil || !resp.OK() {
		t.Fatalf("enroll: %+v %v", resp, err)
	}
	login, err := c.Login(ctx, "hugo", clicks(0))
	if err != nil || !login.OK() || login.Token == "" {
		t.Fatalf("login: %+v %v", login, err)
	}
	if resp, err := c.Validate(ctx, login.Token); err != nil || !resp.OK() || resp.User != "hugo" {
		t.Fatalf("validate: %+v %v", resp, err)
	}
	if resp, err := c.Validate(ctx, ""); err != nil || resp.Code != authsvc.CodeDenied {
		t.Fatalf("empty-token validate: %+v %v", resp, err)
	}
}

// TestSessionLockoutRevokes: driving an account into the §5.1 lockout
// revokes its outstanding session — an attacker racing the lockout
// cannot keep an earlier stolen token alive.
func TestSessionLockoutRevokes(t *testing.T) {
	s, _, _ := sessionServer(t)
	if resp := s.Handle(authsvc.Request{Op: authsvc.OpEnroll, User: "mallory", Clicks: clicks(0)}); !resp.OK() {
		t.Fatalf("enroll: %+v", resp)
	}
	login := s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "mallory", Clicks: clicks(0)})
	if !login.OK() || login.Token == "" {
		t.Fatalf("login: %+v", login)
	}
	for i := 0; i < 3; i++ {
		s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "mallory", Clicks: clicks(9)})
	}
	if resp := s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "mallory", Clicks: clicks(0)}); !resp.Locked() {
		t.Fatalf("expected lockout, got %+v", resp)
	}
	resp := s.Handle(authsvc.Request{Op: authsvc.OpValidate, Token: login.Token})
	if resp.Code != authsvc.CodeDenied {
		t.Fatalf("validate after lockout: %+v", resp)
	}
}

// TestValidateWithoutSessionTier: a server with no session tier
// refuses OpValidate with code=invalid rather than panicking or
// minting.
func TestValidateWithoutSessionTier(t *testing.T) {
	s := testServer(t, 3)
	resp := s.Handle(authsvc.Request{Op: authsvc.OpValidate, Token: "whatever"})
	if resp.Code != authsvc.CodeInvalid {
		t.Fatalf("validate without session tier: %+v", resp)
	}
	login := s.Handle(authsvc.Request{Op: authsvc.OpLogin, User: "nobody", Clicks: clicks(0)})
	if login.Token != "" {
		t.Fatalf("sessionless server minted a token: %+v", login)
	}
}

// adminFamilies is every # HELP and # TYPE line of the admin /metrics
// exposition, in order, with the session tier mounted: the pipeline's
// registry, the server's lockout counter, then the session tier.
const adminFamilies = `# HELP authsvc_requests_total Requests handled, by operation.
# TYPE authsvc_requests_total counter
# HELP authsvc_responses_total Responses issued, by outcome code.
# TYPE authsvc_responses_total counter
# HELP authsvc_in_flight Requests currently being handled.
# TYPE authsvc_in_flight gauge
# HELP authsvc_in_flight_peak High-water mark of the in-flight gauge.
# TYPE authsvc_in_flight_peak gauge
# HELP authsvc_shed_total Requests refused with code=overloaded, by admission priority.
# TYPE authsvc_shed_total counter
# HELP authsvc_credential_failures_total Failed credential checks (code=denied on login/change) — attack-shaped traffic.
# TYPE authsvc_credential_failures_total counter
# HELP authsvc_locked_refusals_total Credential requests refused because the account was locked out.
# TYPE authsvc_locked_refusals_total counter
# HELP authsvc_queue_wait_seconds_sum Total time admitted requests spent queued for a limiter slot.
# TYPE authsvc_queue_wait_seconds_sum counter
# HELP authsvc_queue_wait_seconds_count Admitted requests that reported a queue wait.
# TYPE authsvc_queue_wait_seconds_count counter
# HELP authsvc_queue_wait_seconds_max Longest observed queue wait.
# TYPE authsvc_queue_wait_seconds_max gauge
# HELP authsvc_request_duration_seconds_max Longest observed request latency, queueing included.
# TYPE authsvc_request_duration_seconds_max gauge
# HELP authsvc_queue_wait_priority_seconds_sum Queue wait, by admission priority.
# TYPE authsvc_queue_wait_priority_seconds_sum counter
# HELP authsvc_queue_wait_priority_seconds_count Queue-wait observations, by admission priority.
# TYPE authsvc_queue_wait_priority_seconds_count counter
# HELP authsvc_queue_wait_priority_seconds_max Longest observed queue wait, by admission priority.
# TYPE authsvc_queue_wait_priority_seconds_max gauge
# HELP authsvc_request_duration_seconds Request latency, queueing included.
# TYPE authsvc_request_duration_seconds histogram
# HELP authsvc_lockouts_triggered_total Failed attempts that crossed an account's lockout threshold.
# TYPE authsvc_lockouts_triggered_total counter
# HELP session_mint_total Session tokens minted.
# TYPE session_mint_total counter
# HELP session_mint_failures_total Mint attempts that failed (no key, or signing error).
# TYPE session_mint_failures_total counter
# HELP session_validate_total Token validations, by outcome.
# TYPE session_validate_total counter
# HELP session_verify_cache_hits_total Validations served from the signature memoization cache.
# TYPE session_verify_cache_hits_total counter
# HELP session_verify_cache_entries Verified tokens held in the signature memoization cache.
# TYPE session_verify_cache_entries gauge
# HELP session_rotations_total Key rotations performed.
# TYPE session_rotations_total counter
# HELP session_revocations_total Revocation watermarks stamped.
# TYPE session_revocations_total counter
# HELP session_key_generation Current minting key generation.
# TYPE session_key_generation gauge
# HELP session_active_key_generations Key generations held in memory (current plus overlap).
# TYPE session_active_key_generations gauge
# HELP session_revoked_users Users with an active revocation watermark.
# TYPE session_revoked_users gauge`

// TestAdminMetricsFamilies pins the metric families of the admin
// surface, with the session tier mounted and its writer registered as
// pwserver does: the # HELP and # TYPE lines of /metrics must equal
// adminFamilies, so a family that is added, dropped, renamed, retyped
// or re-described fails here. /metrics is the only metrics route.
func TestAdminMetricsFamilies(t *testing.T) {
	s, _, mgr := sessionServer(t)
	s.RegisterMetrics(mgr.WritePrometheus)
	admin := httptest.NewServer(s.AdminHandler())
	defer admin.Close()

	resp, err := admin.Client().Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	var got []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "# ") {
			got = append(got, line)
		}
	}
	if g := strings.Join(got, "\n"); g != adminFamilies {
		t.Errorf("admin /metrics families:\n%s\nwant:\n%s", g, adminFamilies)
	}

	resp, err = admin.Client().Get(admin.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /metrics.json = %d, want 404", resp.StatusCode)
	}
}
