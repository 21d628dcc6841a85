package session

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Alg selects the token signature algorithm.
type Alg byte

// Supported algorithms. Ed25519 is the default: anyone holding only
// the public half could verify, leaving the door open to verify-only
// relying parties. HMAC-SHA256 is the cheap symmetric option for
// deployments where every verifier is also a minter (ours is — the
// secret replicates to the follower either way).
const (
	AlgEd25519 Alg = 1
	AlgHMAC    Alg = 2
)

// String returns the algorithm's flag spelling.
func (a Alg) String() string {
	switch a {
	case AlgEd25519:
		return "ed25519"
	case AlgHMAC:
		return "hmac"
	default:
		return fmt.Sprintf("Alg(%d)", byte(a))
	}
}

// ParseAlg parses the -session-alg flag spellings.
func ParseAlg(s string) (Alg, error) {
	switch s {
	case "", "ed25519":
		return AlgEd25519, nil
	case "hmac", "hmac-sha256":
		return AlgHMAC, nil
	default:
		return 0, fmt.Errorf("session: unknown algorithm %q (want ed25519 or hmac)", s)
	}
}

// Token wire format, before base64: a fixed header, the user name,
// then the signature over everything before it.
//
//	version  1 byte  (tokenVersion)
//	alg      1 byte  (Alg)
//	gen      8 bytes LE — signing key generation
//	expiry   8 bytes LE — unix nanoseconds
//	minted   8 bytes LE — unix nanoseconds (revocation watermark input)
//	userlen  2 bytes LE
//	user     userlen bytes
//	sig      64 bytes (Ed25519) or 32 bytes (HMAC-SHA256)
//
// The whole frame is base64.RawURLEncoding-encoded; decoding is
// Strict so a token string has exactly one accepted spelling (a
// non-canonical final sextet must not alias a valid token — the fuzz
// test relies on this).
const (
	tokenVersion = 1
	tokenHdrLen  = 1 + 1 + 8 + 8 + 8 + 2
	tokenMaxUser = 1 << 12
)

// Validate decodes a token's first tokenPrefixLen characters before it
// consults the verify cache: the header and the first prefixUser bytes
// of the user name, which is all of most names.
const (
	prefixUser     = 8
	tokenPrefixLen = (tokenHdrLen + prefixUser) / 3 * 4
)

var tokenEncoding = base64.RawURLEncoding.Strict()

// claims is a token's decoded, signature-free content.
type claims struct {
	alg    Alg
	gen    uint64
	expiry int64 // unix nanos
	minted int64 // unix nanos
	user   string
}

// ErrBadToken marks a token that is structurally invalid or whose
// signature does not verify. Deliberately one coarse error: the
// rejection reason granularity lives in metrics, not in what a caller
// (or attacker) is told.
var ErrBadToken = errors.New("session: invalid token")

// encodeToken builds the signed, base64 token for c using k.
func encodeToken(c *claims, k *key) (string, error) {
	if len(c.user) == 0 || len(c.user) > tokenMaxUser {
		return "", fmt.Errorf("session: user name length %d out of range", len(c.user))
	}
	payload := make([]byte, tokenHdrLen+len(c.user))
	payload[0] = tokenVersion
	payload[1] = byte(c.alg)
	binary.LittleEndian.PutUint64(payload[2:], c.gen)
	binary.LittleEndian.PutUint64(payload[10:], uint64(c.expiry))
	binary.LittleEndian.PutUint64(payload[18:], uint64(c.minted))
	binary.LittleEndian.PutUint16(payload[26:], uint16(len(c.user)))
	copy(payload[tokenHdrLen:], c.user)
	sig, err := k.sign(payload)
	if err != nil {
		return "", err
	}
	return tokenEncoding.EncodeToString(append(payload, sig...)), nil
}

// decodeToken parses a base64 token into its claims and returns the
// payload and signature slices for verification. It validates
// structure only — signature, expiry, generation, and revocation are
// the Manager's checks. A token with a line break in it does not
// decode: base64 skips those, and a token has one spelling.
func decodeToken(token string) (claims, []byte, []byte, error) {
	raw, err := tokenEncoding.DecodeString(token)
	if err != nil || len(token) != tokenEncoding.EncodedLen(len(raw)) {
		return claims{}, nil, nil, ErrBadToken
	}
	var c claims
	userLen, sigLen, ok := parseHeader(raw, &c)
	if !ok || len(raw) != tokenHdrLen+userLen+sigLen {
		return claims{}, nil, nil, ErrBadToken
	}
	c.user = string(raw[tokenHdrLen : tokenHdrLen+userLen])
	return c, raw[:tokenHdrLen+userLen], raw[tokenHdrLen+userLen:], nil
}

// parseHeader reads the claims in the fixed header raw starts with
// into c, all but the user name, and checks the header's structure —
// the version, a known algorithm, a user name length in range. It
// returns the lengths of the name and the signature after the header.
func parseHeader(raw []byte, c *claims) (userLen, sigLen int, ok bool) {
	if len(raw) < tokenHdrLen || raw[0] != tokenVersion {
		return 0, 0, false
	}
	c.alg = Alg(raw[1])
	switch c.alg {
	case AlgEd25519:
		sigLen = ed25519.SignatureSize
	case AlgHMAC:
		sigLen = sha256.Size
	default:
		return 0, 0, false
	}
	c.gen = binary.LittleEndian.Uint64(raw[2:])
	c.expiry = int64(binary.LittleEndian.Uint64(raw[10:]))
	c.minted = int64(binary.LittleEndian.Uint64(raw[18:]))
	userLen = int(binary.LittleEndian.Uint16(raw[26:]))
	return userLen, sigLen, userLen > 0 && userLen <= tokenMaxUser
}

// prefix is the start of a decoded token: the fixed header and the
// first prefixUser bytes of the user name, then two spare bytes. The
// spare bytes let encoding/base64 decode all tokenPrefixLen characters
// in its fast 8-character steps, each of which stores 8 bytes.
type prefix [tokenHdrLen + prefixUser + 2]byte

// decode decodes p from the first tokenPrefixLen characters of token
// and parses its header into c as decodeToken does.
func (p *prefix) decode(token []byte, c *claims) (userLen, sigLen int, ok bool) {
	if len(token) < tokenPrefixLen {
		return 0, 0, false
	}
	if n, err := tokenEncoding.Decode(p[:], token[:tokenPrefixLen]); err != nil || n != tokenHdrLen+prefixUser {
		return 0, 0, false
	}
	return parseHeader(p[:], c)
}

// user returns the user name of token, a token that has verified and
// starts with p.
func (p *prefix) user(token []byte, userLen int) string {
	if userLen <= prefixUser {
		return string(p[tokenHdrLen : tokenHdrLen+userLen])
	}
	return p.longUser(token, userLen)
}

// longUser returns a name longer than p holds: its first bytes from p,
// and the rest decoded on from the end of the prefix, a chunk at a
// time, straight into the returned string.
func (p *prefix) longUser(token []byte, userLen int) string {
	var b strings.Builder
	b.Grow(userLen)
	b.Write(p[tokenHdrLen : tokenHdrLen+prefixUser])
	var chunk [48]byte
	for i := tokenPrefixLen; b.Len() < userLen; i += 64 {
		// The whole token decoded when it verified, so no chunk fails.
		n, _ := tokenEncoding.Decode(chunk[:], token[i:min(i+64, len(token))])
		b.Write(chunk[:min(n, userLen-b.Len())])
	}
	return b.String()
}

// sign signs payload with the key's secret under its algorithm.
func (k *key) sign(payload []byte) ([]byte, error) {
	switch k.alg {
	case AlgEd25519:
		return ed25519.Sign(k.priv, payload), nil
	case AlgHMAC:
		m := hmac.New(sha256.New, k.secret)
		m.Write(payload)
		return m.Sum(nil), nil
	default:
		return nil, fmt.Errorf("session: key has unknown algorithm %d", k.alg)
	}
}

// verify reports whether sig is a valid signature of payload under k.
func (k *key) verify(payload, sig []byte) bool {
	switch k.alg {
	case AlgEd25519:
		return ed25519.Verify(k.pub, payload, sig)
	case AlgHMAC:
		m := hmac.New(sha256.New, k.secret)
		m.Write(payload)
		return hmac.Equal(m.Sum(nil), sig)
	default:
		return false
	}
}
