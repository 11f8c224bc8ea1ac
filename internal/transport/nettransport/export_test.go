package nettransport

// PendingCalls reports how many calls await a response, a timeout or a drop.
func PendingCalls(t *Transport) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}
