package xcrypto

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func schemes() map[string]Scheme {
	return map[string]Scheme{
		"ecdsa": ECDSAScheme{},
		"sim":   SimScheme{},
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	for name, s := range schemes() {
		t.Run(name, func(t *testing.T) {
			kp, err := s.GenerateKey(rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatalf("GenerateKey: %v", err)
			}
			msg := []byte("signed routing table")
			sig, err := s.Sign(kp, msg)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if !s.Verify(kp.Public, msg, sig) {
				t.Error("valid signature rejected")
			}
		})
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	for name, s := range schemes() {
		t.Run(name, func(t *testing.T) {
			kp, _ := s.GenerateKey(rand.New(rand.NewSource(2)))
			msg := []byte("original")
			sig, _ := s.Sign(kp, msg)
			if s.Verify(kp.Public, []byte("tampered"), sig) {
				t.Error("tampered message accepted")
			}
		})
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	for name, s := range schemes() {
		t.Run(name, func(t *testing.T) {
			kp, _ := s.GenerateKey(rand.New(rand.NewSource(3)))
			msg := []byte("msg")
			sig, _ := s.Sign(kp, msg)
			sig[0] ^= 0xff
			if s.Verify(kp.Public, msg, sig) {
				t.Error("tampered signature accepted")
			}
		})
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	for name, s := range schemes() {
		t.Run(name, func(t *testing.T) {
			kp1, _ := s.GenerateKey(rand.New(rand.NewSource(4)))
			kp2, _ := s.GenerateKey(rand.New(rand.NewSource(5)))
			msg := []byte("msg")
			sig, _ := s.Sign(kp1, msg)
			if s.Verify(kp2.Public, msg, sig) {
				t.Error("signature accepted under wrong key")
			}
		})
	}
}

func TestVerifyRejectsGarbage(t *testing.T) {
	for name, s := range schemes() {
		t.Run(name, func(t *testing.T) {
			kp, _ := s.GenerateKey(rand.New(rand.NewSource(6)))
			if s.Verify(kp.Public, []byte("m"), nil) {
				t.Error("nil signature accepted")
			}
			if s.Verify(kp.Public, []byte("m"), []byte("short")) {
				t.Error("short signature accepted")
			}
			if s.Verify(nil, []byte("m"), make([]byte, 64)) {
				t.Error("nil key accepted")
			}
		})
	}
}

// TestSimVerifyRejectsEveryBitFlip walks every bit of the message, the
// signature (digest and padding alike) and the key: Verify compares in place
// against the digest, and no position may be left uncompared.
func TestSimVerifyRejectsEveryBitFlip(t *testing.T) {
	s := SimScheme{}
	kp, _ := s.GenerateKey(rand.New(rand.NewSource(9)))
	msg := []byte("a signed, timestamped routing table")
	sig, _ := s.Sign(kp, msg)
	if !s.Verify(kp.Public, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	for _, part := range []struct {
		name string
		b    []byte
	}{{"message", msg}, {"signature", sig}, {"key", kp.Public}} {
		for bit := 0; bit < 8*len(part.b); bit++ {
			part.b[bit/8] ^= 1 << (bit % 8)
			if s.Verify(kp.Public, msg, sig) {
				t.Errorf("%s with bit %d flipped still verifies", part.name, bit)
			}
			part.b[bit/8] ^= 1 << (bit % 8)
		}
	}
	if !s.Verify(kp.Public, msg, sig) {
		t.Fatal("flips were not undone")
	}
}

// TestSimSchemeAllocs pins what the simulator pays per signature: Sign
// allocates the signature and nothing else, Verify nothing at all — for a
// message the size of a full routing table (fingers, successors and
// predecessors: 24 peers).
func TestSimSchemeAllocs(t *testing.T) {
	s := SimScheme{}
	kp, _ := s.GenerateKey(rand.New(rand.NewSource(10)))
	msg := make([]byte, 24+3*2+1+12+16*24)
	sig, _ := s.Sign(kp, msg)
	if n := testing.AllocsPerRun(200, func() { _, _ = s.Sign(kp, msg) }); n != 1 {
		t.Errorf("Sign allocates %v times per call, want 1", n)
	}
	if n := testing.AllocsPerRun(200, func() { s.Verify(kp.Public, msg, sig) }); n != 0 {
		t.Errorf("Verify allocates %v times per call, want 0", n)
	}
}

func TestSimSchemeSigSize(t *testing.T) {
	s := SimScheme{}
	kp, _ := s.GenerateKey(rand.New(rand.NewSource(7)))
	sig, _ := s.Sign(kp, []byte("x"))
	if len(sig) != SigWireSize {
		t.Errorf("sim signature size = %d, want %d", len(sig), SigWireSize)
	}
	if len(kp.Public) != 20 {
		t.Errorf("sim public key size = %d, want 20 (paper footnote 4)", len(kp.Public))
	}
}

func TestSignNilKeyFails(t *testing.T) {
	for name, s := range schemes() {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Sign(KeyPair{}, []byte("x")); err == nil {
				t.Error("signing with empty key pair should fail")
			}
		})
	}
}

// Property: every generated key pair signs verifiable messages (SimScheme,
// which is cheap enough for quick.Check).
func TestPropSimSchemeSound(t *testing.T) {
	s := SimScheme{}
	rng := rand.New(rand.NewSource(8))
	kp, _ := s.GenerateKey(rng)
	f := func(msg []byte) bool {
		sig, err := s.Sign(kp, msg)
		if err != nil {
			return false
		}
		return s.Verify(kp.Public, msg, sig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistinctKeysFromOneSource(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for name, s := range schemes() {
		t.Run(name, func(t *testing.T) {
			kp1, _ := s.GenerateKey(rng)
			kp2, _ := s.GenerateKey(rng)
			if bytes.Equal(kp1.Public, kp2.Public) {
				t.Error("consecutive keys identical")
			}
		})
	}
}

func BenchmarkECDSASign(b *testing.B) {
	s := ECDSAScheme{}
	kp, _ := s.GenerateKey(rand.New(rand.NewSource(1)))
	msg := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sign(kp, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimSign(b *testing.B) {
	s := SimScheme{}
	kp, _ := s.GenerateKey(rand.New(rand.NewSource(1)))
	msg := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sign(kp, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSigner quantifies the decision to default
// simulations to SimScheme: verify cost per routing-table message.
func BenchmarkAblationSigner(b *testing.B) {
	msg := make([]byte, 256)
	for name, s := range schemes() {
		b.Run(name, func(b *testing.B) {
			kp, _ := s.GenerateKey(rand.New(rand.NewSource(1)))
			sig, _ := s.Sign(kp, msg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !s.Verify(kp.Public, msg, sig) {
					b.Fatal("verify failed")
				}
			}
		})
	}
}
