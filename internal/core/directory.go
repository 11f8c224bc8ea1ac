package core

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"sort"
	"sync"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

// Directory models certificate distribution: the in-process equivalent of
// every node caching its peers' CA-issued certificates (whose real wire
// format lives in xcrypto.CodeCertificate). Any receiver can verify
// a table owner's signature after checking the owner's certificate against
// the CA key; the in-process deployments keep the equivalent key material in
// one shared map instead of copying certificates into every message value.
//
// Since dynamic membership the directory is written at runtime — the CA
// registers joiners as it issues their certificates, and nodes register
// announced joiners — while every host goroutine reads it, so access is
// guarded by a RWMutex.
type Directory struct {
	scheme xcrypto.Scheme

	mu      sync.RWMutex
	keys    map[id.ID]xcrypto.PublicKey
	caKey   xcrypto.PublicKey
	revoked map[id.ID]bool
	// slotSeq records the highest admission ordinal accepted per address
	// slot, so a replayed announce for a slot's PREVIOUS (retired)
	// occupant can never rebind it.
	slotSeq map[transport.Addr]uint64
}

// RosterEntry is one directory line as it travels in a CertIssueResp: a
// node's ring identifier and its public key. Joiners seed their own
// directory from the roster so they can verify signed tables immediately.
type RosterEntry struct {
	ID  id.ID
	Key xcrypto.PublicKey
}

// NewDirectory creates an empty directory for the given scheme.
func NewDirectory(scheme xcrypto.Scheme) *Directory {
	return &Directory{
		scheme:  scheme,
		keys:    make(map[id.ID]xcrypto.PublicKey),
		revoked: make(map[id.ID]bool),
		slotSeq: make(map[transport.Addr]uint64),
	}
}

// SlotSeq returns the highest admission ordinal accepted for a slot (0 =
// never dynamically granted).
func (d *Directory) SlotSeq(addr transport.Addr) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.slotSeq[addr]
}

// AdvanceSlotSeq records an announce ordinal for an address slot. It
// reports false — and records nothing — when the slot has already
// accepted an equal or higher ordinal (a replay or an out-of-date
// announce for the slot's previous occupant).
func (d *Directory) AdvanceSlotSeq(addr transport.Addr, seq uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if seq <= d.slotSeq[addr] {
		return false
	}
	d.slotSeq[addr] = seq
	return true
}

// Revoke marks an identity revoked in the directory. The CA calls it as
// part of every revocation so join admission (Node.admitJoin) can refuse a
// revoked node's still-validly-signed, non-expiring certificate — without
// this, revocation would only bite at certificate issuance, and a revoked
// node could simply re-join.
func (d *Directory) Revoke(node id.ID) {
	d.mu.Lock()
	d.revoked[node] = true
	d.mu.Unlock()
}

// Revoked reports whether an identity is revoked.
func (d *Directory) Revoked(node id.ID) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.revoked[node]
}

// Scheme returns the signature scheme in use.
func (d *Directory) Scheme() xcrypto.Scheme { return d.scheme }

// SetCAKey records the CA's public key for certificate verification
// (announced joiners, join admission).
func (d *Directory) SetCAKey(k xcrypto.PublicKey) {
	d.mu.Lock()
	d.caKey = append(xcrypto.PublicKey(nil), k...)
	d.mu.Unlock()
}

// CAKey returns the CA public key, or nil when none was set.
func (d *Directory) CAKey() xcrypto.PublicKey {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.caKey
}

// VerifyCert checks a certificate against the directory's CA key. It
// reports false when no CA key is known.
func (d *Directory) VerifyCert(c xcrypto.Certificate) bool {
	key := d.CAKey()
	if len(key) == 0 {
		return false
	}
	return xcrypto.VerifyCertificate(d.scheme, key, c)
}

// Register records a node's public key (performed when the CA issues the
// node's certificate, or when a node learns of a certified joiner).
func (d *Directory) Register(node id.ID, key xcrypto.PublicKey) {
	d.mu.Lock()
	d.keys[node] = key
	d.mu.Unlock()
}

// Key returns a node's public key.
func (d *Directory) Key(node id.ID) (xcrypto.PublicKey, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	k, ok := d.keys[node]
	return k, ok
}

// Len returns the number of registered identities.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.keys)
}

// Snapshot returns every registered identity, sorted by ring identifier —
// the roster a CertIssueResp hands a joiner.
func (d *Directory) Snapshot() []RosterEntry {
	d.mu.RLock()
	out := make([]RosterEntry, 0, len(d.keys))
	for node, key := range d.keys {
		out = append(out, RosterEntry{ID: node, Key: key})
	}
	d.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// VerifyTable checks a routing table's owner signature.
func (d *Directory) VerifyTable(t chord.RoutingTable) bool {
	key, ok := d.Key(t.Owner.ID)
	if !ok {
		return false
	}
	return t.VerifySig(d.scheme, key)
}

// receiptBuf returns, in a pooled buffer the signer or verifier releases, the
// canonical byte string covered by a receipt signature.
func receiptBuf(qid uint64, issuer chord.Peer) *transport.Buf {
	b := transport.AcquireBuf()
	b.B = binary.BigEndian.AppendUint64(b.B, qid)
	b.B = binary.BigEndian.AppendUint64(b.B, uint64(issuer.ID))
	b.B = binary.BigEndian.AppendUint64(b.B, uint64(issuer.Addr))
	return b
}

// statementBuf is the byte string a witness signs: a receipt's bytes in the
// witness's name, then the outcome.
func statementBuf(st WitnessResp) *transport.Buf {
	b := receiptBuf(st.QID, st.Witness)
	outcome := byte(0)
	if st.Delivered {
		outcome = 1
	}
	b.B = append(b.B, outcome)
	return b
}

// verifyBuf checks sig over msg under signer's registered key, and releases
// msg.
func (d *Directory) verifyBuf(signer id.ID, msg *transport.Buf, sig []byte) bool {
	key, ok := d.Key(signer)
	ok = ok && d.scheme.Verify(key, msg.B, sig)
	msg.Release()
	return ok
}

// VerifyReceipt checks a delivery receipt's signature (Appendix II).
func (d *Directory) VerifyReceipt(r Receipt) bool {
	return d.verifyBuf(r.Issuer.ID, receiptBuf(r.QID, r.Issuer), r.Sig)
}

// VerifyStatement checks a witness statement's signature.
func (d *Directory) VerifyStatement(st WitnessResp) bool {
	return d.verifyBuf(st.Witness.ID, statementBuf(st), st.Statement)
}

// NewIdentityFactory returns a chord.IdentityFactory that mints a key pair
// per node, registers it in the directory, and has the CA issue the
// certificate. The factory serializes its draws from rng: a *rand.Rand is
// not safe for concurrent use, and two joins minting identities at once
// (concurrent transports run each join in its own host context) would
// otherwise race on the shared source. Directory and CA are already
// concurrency-safe; the lock covers only the key draw, so the seeded
// single-goroutine simulator draws in exactly the order it always did.
func NewIdentityFactory(dir *Directory, ca *xcrypto.CA, rng *rand.Rand) chord.IdentityFactory {
	var mu sync.Mutex
	return func(self chord.Peer) *chord.Identity {
		mu.Lock()
		kp, err := dir.scheme.GenerateKey(rng)
		mu.Unlock()
		if err != nil {
			return nil
		}
		cert, err := ca.Issue(self.ID, int64(self.Addr), kp.Public, 0)
		if err != nil {
			return nil
		}
		dir.Register(self.ID, kp.Public)
		return &chord.Identity{Scheme: dir.scheme, Key: kp, Cert: cert}
	}
}

// gapBound is `factor` expected inter-node gaps of a ring of estSize nodes.
func gapBound(estSize int, factor float64) uint64 {
	return uint64(float64(^uint64(0)/uint64(max(2, estSize))) * factor)
}

// withinFingerBound checks one claimed finger against its owner's ideal
// finger positions, NISAN-style (§4.1: "the initiator applies bound checking
// on the fingertables returned by intermediate nodes of the random walk to
// limit fingertable manipulation"). A finger is accepted when it trails some
// ideal position owner+2^i by at most bound (see gapBound).
//
// Only two of the 64 positions can be the nearest one behind f. With d the
// clockwise distance from owner to f, the positions not past f are the 2^i ≤ d,
// and the nearest is 2^top, top the highest set bit of d. Every other position
// is reached only the long way round, d + (2^64 − 2^i) behind f, least for
// i = 63 — which is among those others only when top < 63, and then d < 2^63
// so the sum cannot overflow.
func withinFingerBound(owner, f chord.Peer, bound uint64) bool {
	if !f.Valid() || f.ID == owner.ID {
		return false
	}
	d := owner.ID.Distance(f.ID)
	top := bits.Len64(d) - 1
	return d-1<<top <= bound || (top < 63 && d+1<<63 <= bound)
}
