package authproto

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"net"
	"time"

	"clickpass/internal/authsvc"
)

// SelfSignedCert generates an ephemeral ECDSA P-256 certificate for
// the given host names, valid for the given duration — development and
// test deployments of pwserver; production should provision real
// certificates.
func SelfSignedCert(hosts []string, validFor time.Duration) (tls.Certificate, error) {
	if len(hosts) == 0 {
		return tls.Certificate{}, fmt.Errorf("authproto: no hosts for certificate")
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("authproto: generating key: %w", err)
	}
	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128))
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("authproto: serial: %w", err)
	}
	template := x509.Certificate{
		SerialNumber: serial,
		Subject:      pkix.Name{Organization: []string{"clickpass dev"}},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(validFor),
		KeyUsage:     x509.KeyUsageKeyEncipherment | x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	for _, h := range hosts {
		if ip := net.ParseIP(h); ip != nil {
			template.IPAddresses = append(template.IPAddresses, ip)
		} else {
			template.DNSNames = append(template.DNSNames, h)
		}
	}
	der, err := x509.CreateCertificate(rand.Reader, &template, &template, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("authproto: creating certificate: %w", err)
	}
	return tls.Certificate{
		Certificate: [][]byte{der},
		PrivateKey:  key,
	}, nil
}

// ServeTLS wraps Serve with a TLS listener using the given
// certificate.
func (s *Server) ServeTLS(l net.Listener, cert tls.Certificate) error {
	cfg := &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS12,
	}
	return s.Serve(tls.NewListener(l, cfg))
}

// DialTLS connects the framed-TCP client to a TLS-wrapped server.
// rootDER, if non-nil, is a DER certificate to trust (pin) — the
// self-signed deployment case; otherwise the system roots are used.
func DialTLS(addr string, timeout time.Duration, rootDER []byte) (authsvc.Client, error) {
	cfg := &tls.Config{MinVersion: tls.VersionTLS12}
	if rootDER != nil {
		cert, err := x509.ParseCertificate(rootDER)
		if err != nil {
			return nil, fmt.Errorf("authproto: parsing pinned root: %w", err)
		}
		pool := x509.NewCertPool()
		pool.AddCert(cert)
		cfg.RootCAs = pool
	}
	dialer := &net.Dialer{Timeout: timeout}
	conn, err := tls.DialWithDialer(dialer, "tcp", addr, cfg)
	if err != nil {
		return nil, fmt.Errorf("authproto: tls dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}
