package authproto

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"
)

func TestSelfSignedCert(t *testing.T) {
	cert, err := SelfSignedCert([]string{"127.0.0.1", "localhost"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(cert.Certificate) != 1 {
		t.Fatalf("expected one DER block, got %d", len(cert.Certificate))
	}
	if _, err := SelfSignedCert(nil, time.Hour); err == nil {
		t.Error("empty host list accepted")
	}
}

func TestTLSEndToEnd(t *testing.T) {
	s := testServer(t, 10)
	cert, err := SelfSignedCert([]string{"127.0.0.1"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = s.ServeTLS(l, cert) }()

	c, err := DialTLS(l.Addr().String(), 2*time.Second, cert.Certificate[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Enroll(ctx, "tina", clicks(0))
	if err != nil || !resp.OK() {
		t.Fatalf("enroll over TLS: %+v, %v", resp, err)
	}
	resp, err = c.Login(ctx, "tina", clicks(4))
	if err != nil || !resp.OK() {
		t.Fatalf("login over TLS: %+v, %v", resp, err)
	}
}

func TestTLSRejectsUntrustedServer(t *testing.T) {
	s := testServer(t, 10)
	serverCert, err := SelfSignedCert([]string{"127.0.0.1"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	otherCert, err := SelfSignedCert([]string{"127.0.0.1"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = s.ServeTLS(l, serverCert) }()

	// Pinning a DIFFERENT certificate must fail the handshake.
	if _, err := DialTLS(l.Addr().String(), 2*time.Second, otherCert.Certificate[0]); err == nil {
		t.Fatal("client trusted a server signed by the wrong certificate")
	} else if !strings.Contains(err.Error(), "certificate") && !strings.Contains(err.Error(), "x509") {
		t.Logf("handshake failed as expected: %v", err)
	}
}

func TestDialTLSBadRoot(t *testing.T) {
	if _, err := DialTLS("127.0.0.1:1", time.Second, []byte("junk")); err == nil {
		t.Error("junk pinned root accepted")
	}
}
