package chord

import (
	"sync/atomic"
	"time"

	"github.com/octopus-dht/octopus/internal/id"
)

// RoutingTier is the pluggable seam between routing state and the lookup
// engines. A tier owns three things: the routing entries a node holds, the
// candidate selection lookups seed from, and whatever maintenance traffic
// keeps the entries fresh. Two implementations ship: FingerTier (the
// paper's O(log n) finger table + successor list, maintained by
// stabilization and secure finger updates) and the one-hop tier in
// internal/core (full routing tables with D1HT-style aggregated event
// dissemination over the 0x08xx registry).
//
// Tiers are consulted only from their node's serialization context, like
// every other piece of protocol state; implementations need no locking for
// the routing table itself (counters read by other goroutines must still
// be atomic).
type RoutingTier interface {
	// Name identifies the tier for configuration and metrics ("finger",
	// "onehop").
	Name() string
	// FullState reports whether the tier maintains (near-)full membership.
	// Lookup engines use it to clamp parallelism: a full-state tier's best
	// candidate is the key's immediate predecessor, so one confirming
	// query normally resolves the owner and extra parallel queries would
	// only waste relay pairs.
	FullState() bool
	// Candidates returns the peers a lookup toward key should seed its
	// candidate set from. A finger tier returns everything it can route
	// through; a full-state tier returns a bounded neighborhood tightly
	// preceding key (plus the successor window) so per-lookup cost stays
	// O(1) in the table size. Callers only read the result: it may be a
	// view of the tier's own state.
	Candidates(key id.ID) []Peer
	// RelayCandidates returns peers usable as fallback anonymization
	// relays when the walk-fed pool runs dry. Kept separate from
	// Candidates because relay selection wants ring-wide spread, not
	// proximity to any key.
	RelayCandidates() []Peer
	// Stats snapshots the tier's size and maintenance accounting for the
	// obs layer. Safe to call from any goroutine.
	Stats() TierStats
}

// TierStats is a point-in-time snapshot of a tier's routing state and
// maintenance traffic.
type TierStats struct {
	// Entries is the number of routing entries currently held.
	Entries int
	// Staleness is the age of the oldest unpropagated membership event
	// (zero when the tier is caught up or does no event propagation).
	Staleness time.Duration
	// EventsApplied counts membership events (joins, leaves, failures)
	// the tier has applied to its table.
	EventsApplied uint64
	// BytesSent/BytesReceived and MsgsSent/MsgsReceived account the
	// tier's own maintenance traffic (0x08xx messages), in codec bytes.
	// Zero for tiers whose state rides existing protocol traffic.
	BytesSent, BytesReceived uint64
	MsgsSent, MsgsReceived   uint64
}

// FingerTier is the paper's routing state — the chord node's finger table
// and successor list, maintained by stabilization (§4.3) and the secure
// finger update (§4.5). It was extracted mechanically from the lookup
// engine's former direct field iteration: Candidates returns exactly the
// peers (and in the same order) that the engine previously collected
// itself, so seeded α=1 paper-mode runs are bit-identical through the
// seam.
type FingerTier struct {
	n *Node
	// entries caches the last observed table size so Stats stays safe from
	// any goroutine: the chord state itself may only be read from the
	// host's serialization context, which is where Candidates runs.
	entries atomic.Int64
}

// NewFingerTier wraps a chord node's own finger/successor state as a
// RoutingTier.
func NewFingerTier(n *Node) *FingerTier { return &FingerTier{n: n} }

// Name implements RoutingTier.
func (t *FingerTier) Name() string { return "finger" }

// FullState implements RoutingTier: a finger table covers O(log n) of the
// ring.
func (t *FingerTier) FullState() bool { return false }

// Candidates implements RoutingTier: every peer the node can route
// through — valid fingers first, then the successor list, mirroring
// knownPeers, a view of the node's snapshot that its tables share.
func (t *FingerTier) Candidates(id.ID) []Peer {
	peers := t.n.knownPeers()
	t.entries.Store(int64(len(peers)))
	return peers
}

// RelayCandidates implements RoutingTier: the raw finger slots, exactly
// the set the passive relay-pair synthesis drew from before the seam
// (invalid slots included — the caller filters, preserving draw order).
func (t *FingerTier) RelayCandidates() []Peer {
	return t.n.Fingers()
}

// Stats implements RoutingTier. Entries is the table size as of the last
// Candidates call (reading live chord state here would race — Stats is
// callable from any goroutine). The finger tier's maintenance traffic is
// the chord stabilization/finger-update protocols, accounted by the
// transport layer, so the tier-specific byte counters stay zero.
func (t *FingerTier) Stats() TierStats {
	return TierStats{Entries: int(t.entries.Load())}
}
