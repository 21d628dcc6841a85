package authproto

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"clickpass/internal/authsvc"
	"clickpass/internal/dataset"
)

// FuzzHTTPDecode: arbitrary bytes posted at the HTTP front must never
// panic the decoder; they either parse into a wire request or return
// an error. This is the exact decode path the handler runs
// (decodeHTTPRequest is shared), so the fuzzer exercises production
// code, not a test replica.
func FuzzHTTPDecode(f *testing.F) {
	good, err := json.Marshal(authsvc.Request{Op: authsvc.OpLogin, User: "alice", Clicks: clicks(0)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"user":"x","clicks":[{"x":1,"y":2}]}`))
	f.Add([]byte(`{"v":99,"op":"login"}`))
	f.Add([]byte(`{"clicks":[{"x":9e99,"y":-1}]}`))
	f.Add([]byte(`[`))
	f.Add([]byte(`null`))
	f.Add([]byte(strings.Repeat(`[`, 10000)))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeHTTPRequest(authsvc.OpLogin, bytes.NewReader(data))
		if err == nil && req.Op != authsvc.OpLogin {
			t.Errorf("decoder let the body override the route op: %q", req.Op)
		}
	})
}

// randomRequest builds an arbitrary but valid service request from a
// seeded source — the generator for the codec property test.
func randomRequest(rng *rand.Rand) authsvc.Request {
	ops := []authsvc.Op{authsvc.OpPing, authsvc.OpEnroll, authsvc.OpLogin, authsvc.OpChange, authsvc.OpReset}
	req := authsvc.Request{
		Version: rng.Intn(2), // 0 (legacy) or 1 (explicit)
		Op:      ops[rng.Intn(len(ops))],
	}
	if rng.Intn(10) > 0 {
		var b strings.Builder
		for i := rng.Intn(12); i >= 0; i-- {
			b.WriteRune(rune('a' + rng.Intn(26)))
		}
		req.User = b.String()
	}
	mkClicks := func() []dataset.Click {
		n := rng.Intn(7)
		if n == 0 {
			return nil
		}
		cs := make([]dataset.Click, n)
		for i := range cs {
			cs[i] = dataset.Click{X: rng.Intn(1000) - 200, Y: rng.Intn(1000) - 200}
		}
		return cs
	}
	req.Clicks = mkClicks()
	if req.Op == authsvc.OpChange {
		req.NewClicks = mkClicks()
	}
	if rng.Intn(3) == 0 {
		req.BudgetMs = 1 + rng.Intn(30_000)
	}
	return req
}

// TestCodecRoundTripProperty is the codec-boundary property test: for
// a large sample of random service requests, encoding over the TCP
// frame codec and over the HTTP/JSON codec must both decode back to
// the identical authsvc.Request. If this holds, the two transports
// cannot disagree about what a client asked for.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		orig := randomRequest(rng)

		// TCP: service request -> frame -> bytes -> service request.
		var frame bytes.Buffer
		if err := writeFrame(&frame, orig); err != nil {
			t.Fatalf("case %d: writeFrame: %v", i, err)
		}
		var a authsvc.Request
		if err := readFrame(&frame, &a); err != nil {
			t.Fatalf("case %d: readFrame: %v", i, err)
		}

		// HTTP: the same JSON as a body, decoded by the HTTP front's
		// decoder with the op taken from the route.
		body, err := json.Marshal(orig)
		if err != nil {
			t.Fatalf("case %d: marshal body: %v", i, err)
		}
		b, err := decodeHTTPRequest(orig.Op, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("case %d: decodeHTTPRequest: %v", i, err)
		}

		if !reflect.DeepEqual(a, orig) {
			t.Fatalf("case %d: TCP round trip mangled request:\n got %+v\nwant %+v", i, a, orig)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("case %d: transports decoded different requests:\n tcp  %+v\n http %+v", i, a, b)
		}
	}
}

// TestWireResponseRoundTrip: a service response survives the wire
// shape with its typed code intact: a client decoding a front's frame
// into authsvc.Response gets back what the service returned.
func TestWireResponseRoundTrip(t *testing.T) {
	for _, resp := range []authsvc.Response{
		{Version: 1, Code: authsvc.CodeOK, Remaining: 10},
		{Version: 1, Code: authsvc.CodeDenied, Err: "login failed", Remaining: 2},
		{Version: 1, Code: authsvc.CodeLocked, Err: "account locked"},
		{Version: 1, Code: authsvc.CodeThrottled, Err: "rate limited"},
		{Version: 1, Code: authsvc.CodeInvalid, Err: "user required"},
	} {
		var frame bytes.Buffer
		if err := writeFrame(&frame, wireResponse(resp)); err != nil {
			t.Fatal(err)
		}
		var got authsvc.Response
		if err := readFrame(&frame, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("round trip: got %+v, want %+v", got, resp)
		}
	}
}

// TestLoginResponsesIndistinguishableOnWire pins the user-enumeration
// fix at the outermost boundary: the bytes each front writes for a
// wrong password and for an unknown user — the TCP frame body, the
// HTTP status line and body — must be identical, lockout included.
func TestLoginResponsesIndistinguishableOnWire(t *testing.T) {
	s := testServer(t, 5)
	if resp := s.Handle(authsvc.Request{Op: authsvc.OpEnroll, User: "real", Clicks: clicks(0)}); !resp.OK() {
		t.Fatalf("enroll: %+v", resp)
	}
	l := newLocalListener(t)
	defer l.Close()
	go func() { _ = s.Serve(l) }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ts := newHTTPTestServer(t, s)
	defer ts.Close()

	tcpReply := func(user string) []byte {
		if err := writeFrame(conn, authsvc.Request{Op: authsvc.OpLogin, User: user, Clicks: clicks(9)}); err != nil {
			t.Fatal(err)
		}
		n, err := readPrefix(conn)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(conn, body); err != nil {
			t.Fatal(err)
		}
		return body
	}
	httpReply := func(user string) []byte {
		body, err := json.Marshal(authsvc.Request{User: user, Clicks: clicks(9)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/login", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(resp.Status+"\n"), out...)
	}
	for i := 0; i < 6; i++ {
		for _, front := range []struct {
			name  string
			reply func(user string) []byte
		}{{"tcp", tcpReply}, {"http", httpReply}} {
			if real, ghost := front.reply("real"), front.reply("ghost"); !bytes.Equal(real, ghost) {
				t.Errorf("%s attempt %d: wire bytes differ:\n real  %s\n ghost %s", front.name, i, real, ghost)
			}
		}
	}
}

// TestServiceClientsOverBothTransports drives the unified client
// through each codec against one live server and requires identical
// service-level outcomes — the client-side half of the adapter
// contract.
func TestServiceClientsOverBothTransports(t *testing.T) {
	s := testServer(t, 10)
	// TCP front.
	l := newLocalListener(t)
	defer l.Close()
	go func() { _ = s.Serve(l) }()
	// HTTP front, same server.
	ts := newHTTPTestServer(t, s)
	defer ts.Close()

	runClientSuite(t, "tcp", func() authsvc.Client {
		c, err := Dial(l.Addr().String(), testDialTimeout)
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
	runClientSuite(t, "http", func() authsvc.Client {
		return NewHTTPClient(ts.URL, nil)
	})
}

// TestHTTPDecodeRejectsTrailingData: the HTTP decoder must accept
// exactly one JSON value per body, matching the TCP frame codec's
// whole-buffer json.Unmarshal — anything else lets the transports
// disagree about what was asked.
func TestHTTPDecodeRejectsTrailingData(t *testing.T) {
	for _, body := range []string{
		`{"user":"a"} {"user":"b"}`,
		`{"user":"a"}{"user":"b"}`,
		`{"user":"a"} garbage`,
		`{"user":"a"}]`,
	} {
		if _, err := decodeHTTPRequest(authsvc.OpLogin, strings.NewReader(body)); err == nil {
			t.Errorf("trailing data accepted: %q", body)
		}
	}
	// Trailing whitespace is not data.
	if _, err := decodeHTTPRequest(authsvc.OpLogin, strings.NewReader("{\"user\":\"a\"}  \n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}
