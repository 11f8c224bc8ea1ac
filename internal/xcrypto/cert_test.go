package xcrypto

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
)

func newTestCA(t *testing.T) *CA {
	t.Helper()
	ca, err := NewCA(SimScheme{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	return ca
}

func TestIssueAndVerify(t *testing.T) {
	ca := newTestCA(t)
	cert, err := ca.Issue(id.ID(42), 7, PublicKey("nodekey-aaaa-bbbb-cc"), time.Hour)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if err := ca.Verify(cert, 0); err != nil {
		t.Errorf("fresh cert rejected: %v", err)
	}
	if ca.Issued() != 1 {
		t.Errorf("issued = %d, want 1", ca.Issued())
	}
}

func TestVerifyRejectsForgedCert(t *testing.T) {
	ca := newTestCA(t)
	cert, _ := ca.Issue(id.ID(42), 7, PublicKey("nodekey-aaaa-bbbb-cc"), time.Hour)

	forged := cert
	forged.Node = id.ID(43)
	if err := ca.Verify(forged, 0); !errors.Is(err, ErrBadCert) {
		t.Errorf("forged node id: err = %v, want ErrBadCert", err)
	}

	forged = cert
	forged.Addr = 99
	if err := ca.Verify(forged, 0); !errors.Is(err, ErrBadCert) {
		t.Errorf("forged addr: err = %v, want ErrBadCert", err)
	}

	forged = cert
	forged.Key = PublicKey("other-key-aaaa-bbbb-")
	if err := ca.Verify(forged, 0); !errors.Is(err, ErrBadCert) {
		t.Errorf("forged key: err = %v, want ErrBadCert", err)
	}
}

func TestRevocation(t *testing.T) {
	ca := newTestCA(t)
	cert, _ := ca.Issue(id.ID(1), 1, PublicKey("k"), time.Hour)
	if ca.Revoked(1) {
		t.Error("fresh identity already revoked")
	}
	ca.Revoke(1)
	if !ca.Revoked(1) {
		t.Error("Revoke did not take effect")
	}
	if err := ca.Verify(cert, 0); !errors.Is(err, ErrRevoked) {
		t.Errorf("err = %v, want ErrRevoked", err)
	}
	if ca.RevokedCount() != 1 {
		t.Errorf("RevokedCount = %d, want 1", ca.RevokedCount())
	}
	// Revoking again is idempotent.
	ca.Revoke(1)
	if ca.RevokedCount() != 1 {
		t.Errorf("RevokedCount after double revoke = %d, want 1", ca.RevokedCount())
	}
}

func TestExpiry(t *testing.T) {
	ca := newTestCA(t)
	cert, _ := ca.Issue(id.ID(1), 1, PublicKey("k"), time.Minute)
	if err := ca.Verify(cert, 30*time.Second); err != nil {
		t.Errorf("unexpired cert rejected: %v", err)
	}
	if err := ca.Verify(cert, 2*time.Minute); !errors.Is(err, ErrExpiredCert) {
		t.Errorf("err = %v, want ErrExpiredCert", err)
	}
	// Zero expiry means "never expires".
	forever, _ := ca.Issue(id.ID(2), 2, PublicKey("k"), 0)
	if err := ca.Verify(forever, 1000*time.Hour); err != nil {
		t.Errorf("non-expiring cert rejected: %v", err)
	}
}

func TestVerifyCertificateStandalone(t *testing.T) {
	ca := newTestCA(t)
	cert, _ := ca.Issue(id.ID(5), 5, PublicKey("k"), time.Hour)
	if !VerifyCertificate(SimScheme{}, ca.PublicKey(), cert) {
		t.Error("standalone verification rejected a valid cert")
	}
	cert.Node = 6
	if VerifyCertificate(SimScheme{}, ca.PublicKey(), cert) {
		t.Error("standalone verification accepted a forged cert")
	}
}

func TestCertWireRoundTrip(t *testing.T) {
	ca, err := NewCA(SimScheme{}, nil)
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	kp, err := SimScheme{}.GenerateKey(nil)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	cert, err := ca.Issue(42, 7, kp.Public, 90*time.Minute)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	w := &transport.Codec{}
	CodeCertificate(w, &cert)
	var back Certificate
	r := transport.NewReader(w.Bytes())
	CodeCertificate(r, &back)
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("unmarshal: err=%v remaining=%d", r.Err(), r.Remaining())
	}
	if !reflect.DeepEqual(back, cert) {
		t.Fatalf("certificate round-trip mismatch:\n got %#v\nwant %#v", back, cert)
	}
	// The CA signature must survive the wire round-trip.
	if err := ca.Verify(back, time.Minute); err != nil {
		t.Errorf("round-tripped certificate no longer verifies: %v", err)
	}
}

func TestWireSizeHelpers(t *testing.T) {
	if got := OnionWireOverhead(2); got != 2*(AddrWireSize+AESBlockSize) {
		t.Errorf("OnionWireOverhead(2) = %d", got)
	}
	if RoutingItemWireSize != KeyIDWireSize+AddrWireSize {
		t.Errorf("RoutingItemWireSize = %d, want ID+endpoint = %d",
			RoutingItemWireSize, KeyIDWireSize+AddrWireSize)
	}
}

func TestECDSACertificates(t *testing.T) {
	ca, err := NewCA(ECDSAScheme{}, nil)
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	nodeKP, err := ECDSAScheme{}.GenerateKey(nil)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	cert, err := ca.Issue(id.FromString("node-1"), 1, nodeKP.Public, time.Hour)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if err := ca.Verify(cert, 0); err != nil {
		t.Errorf("ECDSA cert rejected: %v", err)
	}
	if !VerifyCertificate(ECDSAScheme{}, ca.PublicKey(), cert) {
		t.Error("standalone ECDSA verification failed")
	}
}
