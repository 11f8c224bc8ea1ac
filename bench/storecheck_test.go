package main

import "testing"

func TestKVHistory(t *testing.T) {
	v0, v1, v2 := []byte("version-0"), []byte("version-1"), []byte("version-2")
	var h kvHistory

	if !h.getOK(false, nil) {
		t.Error("not-found before any Put must be accepted")
	}
	if h.getOK(true, v0) {
		t.Error("a value before any Put must be rejected")
	}

	h.put(v0, true)
	if !h.getOK(true, v0) {
		t.Error("the acknowledged value must be accepted")
	}
	if h.getOK(false, nil) {
		t.Error("not-found after an acknowledged Put must be rejected")
	}
	// The injected wrong value: one flipped byte of the right answer.
	wrong := append([]byte{v0[0] ^ 1}, v0[1:]...)
	if h.getOK(true, wrong) {
		t.Error("a corrupted value must be rejected")
	}

	// An unacknowledged Put may or may not have landed: both outcomes are
	// legal until the next acknowledgement settles it.
	h.put(v1, false)
	if !h.getOK(true, v0) || !h.getOK(true, v1) {
		t.Error("after an unacknowledged Put, the old and the new value must both be accepted")
	}
	if h.getOK(true, v2) {
		t.Error("a value never written must be rejected")
	}

	h.put(v2, true)
	if !h.getOK(true, v2) {
		t.Error("the newly acknowledged value must be accepted")
	}
	if h.getOK(true, v0) || h.getOK(true, v1) {
		t.Error("values overwritten by an acknowledged Put must be rejected")
	}
}

func TestStoreValueDistinct(t *testing.T) {
	seen := map[string]bool{}
	for key := 0; key < 4; key++ {
		for version := uint64(0); version < 4; version++ {
			v := storeValue(key, version)
			if len(v) != storeValueLen {
				t.Fatalf("storeValue length %d, want %d", len(v), storeValueLen)
			}
			if seen[string(v)] {
				t.Fatalf("storeValue(%d, %d) repeats an earlier value", key, version)
			}
			seen[string(v)] = true
		}
	}
}
