package main

import "bytes"

// kvHistory is the correctness model for one stored key: what a Get may
// legally return given the Puts issued so far. Every key is written by a
// single connection whose requests the daemon serves in order, so the
// history is sequential and a Get has exactly one right answer — the value
// of the last acknowledged Put — unless Puts after it went unacknowledged
// (refused, timed out), each of which may or may not have been applied.
type kvHistory struct {
	acked   []byte   // value of the last acknowledged Put, nil before any
	unacked [][]byte // values of unacknowledged Puts since then
}

// put records a Put and whether the daemon acknowledged it.
func (h *kvHistory) put(value []byte, acked bool) {
	if acked {
		h.acked, h.unacked = value, nil
		return
	}
	h.unacked = append(h.unacked, value)
}

// getOK reports whether a Get outcome is consistent with the history.
func (h *kvHistory) getOK(found bool, value []byte) bool {
	if !found {
		return h.acked == nil
	}
	if h.acked != nil && bytes.Equal(value, h.acked) {
		return true
	}
	for _, v := range h.unacked {
		if bytes.Equal(value, v) {
			return true
		}
	}
	return false
}
