package xcrypto

import (
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// goldenSignCases are the fixed (key, message) pairs behind
// testdata/simscheme_sign.golden: a key as GenerateKey mints them with a
// table-sized message, a one-byte key with an empty message, and an oversized
// key with a message longer than any pooled buffer starts out.
func goldenSignCases() []struct {
	name     string
	pub, msg []byte
} {
	kp, _ := SimScheme{}.GenerateKey(bytes.NewReader([]byte("0123456789abcdef")))
	long := make([]byte, 1000)
	for i := range long {
		long[i] = byte(i * 7)
	}
	return []struct {
		name     string
		pub, msg []byte
	}{
		{"generated-key", kp.Public, []byte("signed routing table")},
		{"one-byte-key-empty-msg", []byte{0x42}, nil},
		{"long-key-long-msg", bytes.Repeat([]byte{0xa5, 0x5a}, 16), long},
	}
}

// TestSimSchemeSignGolden pins SimScheme's signature bytes: they are inside
// every seeded digest and on the wire between daemons, so a faster Sign must
// produce exactly these.
func TestSimSchemeSignGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/simscheme_sign.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, sig, _ := strings.Cut(line, " ")
		want[name] = sig
	}
	cases := goldenSignCases()
	if len(want) != len(cases) {
		t.Errorf("golden file holds %d signatures, want %d", len(want), len(cases))
	}
	for _, c := range cases {
		sig, err := SimScheme{}.Sign(KeyPair{Public: c.pub}, c.msg)
		if err != nil {
			t.Fatalf("%s: Sign: %v", c.name, err)
		}
		if got := hex.EncodeToString(sig); got != want[c.name] {
			t.Errorf("%s: signature %s, golden %s", c.name, got, want[c.name])
		}
		if !(SimScheme{}).Verify(c.pub, c.msg, sig) {
			t.Errorf("%s: golden signature does not verify", c.name)
		}
	}
}
