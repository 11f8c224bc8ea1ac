package daemon

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/store"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/nettransport"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

// RingConfig is the JSON deployment descriptor shared by every process of a
// static deployment.
type RingConfig struct {
	// Seed drives the deterministic bootstrap; all processes must agree.
	Seed int64 `json:"seed"`
	// Nodes maps node slot i to the TCP endpoint of the process serving
	// it. Multiple slots may share one endpoint (one process, many
	// nodes).
	Nodes []string `json:"nodes"`
	// CA is the endpoint of the process hosting the certificate
	// authority (address slot len(Nodes)).
	CA string `json:"ca"`
}

// LoadRingConfig reads and validates a ring descriptor.
func LoadRingConfig(path string) (RingConfig, error) {
	var rc RingConfig
	b, err := os.ReadFile(path)
	if err != nil {
		return rc, err
	}
	if err := json.Unmarshal(b, &rc); err != nil {
		return rc, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(rc.Nodes) < 8 {
		return rc, fmt.Errorf("%s: need at least 8 node slots, got %d", path, len(rc.Nodes))
	}
	if rc.CA == "" {
		return rc, fmt.Errorf("%s: missing \"ca\" endpoint", path)
	}
	return rc, nil
}

// startStatic is the -config start step: every process derives the identical
// ring from the shared seed and brings up the slots its endpoint serves. The
// process hosting the CA is also armed for online growth.
func (d *daemon) startStatic(context.Context) error {
	rc, err := LoadRingConfig(d.opts.Config)
	if err != nil {
		return err
	}
	n := len(rc.Nodes)
	if err := d.listen(append(append([]string{}, rc.Nodes...), rc.CA), rc.Seed); err != nil {
		return err
	}
	nw, err := core.BuildNetworkLocal(d.tr, n, d.coreConfig(n), d.tr.Local)
	if err != nil {
		return err
	}
	for _, node := range nw.Nodes {
		if node != nil {
			d.local = append(d.local, node)
		}
	}
	d.caAddr = nw.CA.Addr()
	servesCA := d.tr.Local(d.caAddr)
	log.Printf("serving %d/%d nodes on %s (seed %d, CA %s)",
		len(d.local), n, d.opts.Listen, rc.Seed, map[bool]string{true: "local", false: rc.CA}[servesCA])
	for _, node := range d.local {
		log.Printf("  node %s @ slot %d", node.Self().ID, node.Self().Addr)
	}
	if len(d.local) == 0 && !servesCA {
		return fmt.Errorf("no node or CA slots map to %s in %s", d.opts.Listen, d.opts.Config)
	}
	d.truth = nw.Ring.OwnerAmong
	if len(d.local) > 0 {
		d.bootstrap = d.local[0].Self()
	} else if peers := nw.Ring.Peers(); len(peers) > 0 {
		d.bootstrap = peers[0] // served by another process; still a valid contact
	}
	// Replicas land wherever the ring places them, so every ring member
	// must hold data; the first local node's store is the client gateway.
	// Attachment happens inside each node's serialization context: the
	// nodes are already live, and the store chains onto the node's handler.
	if d.opts.ServeStore {
		for _, node := range d.local {
			inContext(d.tr, node.Self().Addr, func() {
				st := store.New(node, store.Config{SyncEvery: d.opts.StoreSync})
				st.AttachObs(d.collector)
				st.Start()
				if d.gateway == nil {
					d.gateway = st
				}
			})
		}
	}
	if servesCA {
		d.serveCA(nw.CA)
	}
	return nil
}

// startJoined is the -join start step, the dynamic-membership mode: obtain a
// certified identity and a slot from a live ring via one bootstrap exchange,
// then join it — no configuration file, no shared seed, one contact endpoint.
func (d *daemon) startJoined(ctx context.Context) error {
	opts := d.opts
	scheme := xcrypto.SimScheme{}
	// The identity key pair guards the leave/retire signatures and every
	// signed table this node will ever publish — it MUST come from
	// crypto/rand (a time-seeded math/rand key would be recoverable from
	// the public ring identifier by seed enumeration). The transport's
	// protocol randomness needs no such strength.
	kp, err := scheme.GenerateKey(crand.Reader)
	if err != nil {
		return err
	}
	var idBuf [8]byte
	if _, err := crand.Read(idBuf[:]); err != nil {
		return err
	}
	ringID := id.ID(binary.BigEndian.Uint64(idBuf[:]))
	if opts.IDName != "" {
		ringID = id.FromBytes([]byte(opts.IDName))
	}

	log.Printf("requesting admission from %s (id %s, endpoint %s)", opts.Join, ringID, opts.Listen)
	adm, err := requestAdmission(ctx, opts.Join, core.RingAdmitReq{ID: ringID, Key: kp.Public, Endpoint: opts.Listen})
	if err != nil {
		return err
	}
	grant, self := adm.Grant, adm.Grant.Self
	log.Printf("admitted: certificate issued by the CA over the wire (id %s, slot %d, %d roster entries, %d endpoints)",
		self.ID, self.Addr, len(grant.Roster), len(grant.Endpoints))

	// Private randomness: the joiner shares no deterministic state.
	if err := d.listen(grant.Endpoints, time.Now().UnixNano()); err != nil {
		return err
	}
	tr := d.tr

	dir := core.NewDirectory(scheme)
	dir.SetCAKey(grant.CAKey)
	for _, e := range grant.Roster {
		dir.Register(e.ID, e.Key)
	}
	dir.Register(self.ID, kp.Public)
	// Seed replay protection: without the granted per-slot ordinals a
	// fresh process would accept a captured announce for a reused slot's
	// previous occupant.
	for slot, seq := range grant.SlotSeqs {
		if seq > 0 {
			dir.AdvanceSlotSeq(transport.Addr(slot), seq)
		}
	}

	cfg := d.coreConfig(len(grant.Endpoints) - 1)
	cn := chord.NewNode(tr, cfg.Chord, self,
		&chord.Identity{Scheme: scheme, Key: kp, Cert: grant.Cert})
	node := core.New(cn, cfg, adm.CAAddr, dir)
	inContext(tr, self.Addr, func() {
		// The store attaches before the node joins, so replica batches
		// arriving the moment neighbors learn of us already land.
		if opts.ServeStore {
			d.gateway = store.New(node, store.Config{SyncEvery: opts.StoreSync})
			d.gateway.AttachObs(d.collector)
		}
		cn.Start()
	})

	// The announce that teaches other processes our endpoint races with
	// our first join RPCs, so retry until the ring answers.
	joinDeadline := time.Now().Add(opts.WarmMax)
	for {
		err, _ := transport.Await(tr, self.Addr, forever, func(done func(error)) { cn.Join(adm.Bootstrap, done) })
		if err == nil {
			break
		}
		if time.Now().After(joinDeadline) {
			return fmt.Errorf("join never succeeded: %w", err)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		log.Printf("join attempt failed (%v), retrying", err)
		time.Sleep(500 * time.Millisecond)
	}
	inContext(tr, self.Addr, node.StartProtocols)
	log.Printf("joined the ring as %s @ slot %d", self.ID, self.Addr)
	if st := d.gateway; st != nil {
		// Churn re-replication, joining half: pull the key range this node
		// now owns from its successor (the previous owner).
		tr.After(self.Addr, 0, func() {
			st.Start()
			st.PullOwnedRange(func(n int, err error) {
				if err != nil {
					log.Printf("store range pull failed: %v (the sync sweep will repair)", err)
					return
				}
				log.Printf("pulled %d stored entries for the joined key range", n)
			})
		})
	}

	d.local, d.caAddr, d.bootstrap = []*core.Node{node}, adm.CAAddr, self
	retireSig, _ := scheme.Sign(kp, core.RetireStatement(self))
	d.leave = func() error { return d.leaveRing(core.CertRetireReq{Who: self, Sig: retireSig}) }
	return nil
}

// requestAdmission asks the contact to relay an admission request to the CA
// and returns the validated grant. An unreachable contact is retried until
// the attempts run out or ctx is cancelled; a refusal is final.
func requestAdmission(ctx context.Context, contact string, req core.RingAdmitReq) (core.RingAdmitResp, error) {
	for attempt := 1; attempt <= 5 && ctx.Err() == nil; attempt++ {
		var resp transport.Message
		cc, err := nettransport.DialClient(contact, 10*time.Second)
		if err == nil {
			resp, err = cc.Call(req, 10*time.Second)
			cc.Close()
		}
		if err != nil {
			log.Printf("admission attempt %d: %v", attempt, err)
			time.Sleep(time.Second)
			continue
		}
		adm, ok := resp.(core.RingAdmitResp)
		if !ok || !adm.OK {
			return adm, fmt.Errorf("admission refused by %s", contact)
		}
		return adm, validateGrant(adm.Grant, req)
	}
	return core.RingAdmitResp{}, fmt.Errorf("could not reach %s for admission", contact)
}

// validateGrant checks an admission grant against the request it answers.
// The grant is outside input — the contact, or whoever answers on its
// endpoint, may be hostile or buggy — and the joiner is about to index its
// endpoint table by the granted slot and sign with the granted identity.
func validateGrant(grant core.CertIssueResp, req core.RingAdmitReq) error {
	self := grant.Self
	if self.Addr < 0 || int(self.Addr) >= len(grant.Endpoints) {
		return fmt.Errorf("admission grant names slot %d outside its %d-entry endpoint table", self.Addr, len(grant.Endpoints))
	}
	if grant.Endpoints[self.Addr] != req.Endpoint {
		return fmt.Errorf("admission endpoint table does not place %s at slot %d", req.Endpoint, self.Addr)
	}
	if self.ID != req.ID {
		return fmt.Errorf("admission grant certifies id %s, requested %s", self.ID, req.ID)
	}
	return nil
}

// leaveRing is a joined daemon's graceful departure: storage handover, the
// ring-level leave handshake, then grant retirement at the CA.
func (d *daemon) leaveRing(retire core.CertRetireReq) error {
	tr, node, self, rpcTimeout := d.tr, d.local[0], retire.Who.Addr, d.opts.Cfg.Chord.RPCTimeout
	// Storage handover FIRST: the successor must hold this node's
	// entries before the ring splices us out, or the departed range
	// would serve misses until the next sync sweep.
	if st := d.gateway; st != nil {
		transport.Await(tr, self, 15*time.Second, func(done func(struct{})) {
			st.Handover(func(n int, err error) {
				if err != nil {
					log.Printf("store handover incomplete: %v (replicas still cover the range)", err)
				} else {
					log.Printf("handed %d stored entries to the successor", n)
				}
				done(struct{}{})
			})
		})
	}

	// Ring-level leave next: retiring releases this slot for
	// immediate reuse, so it must not happen while the leave
	// handshake (whose acks are addressed to this slot) is still in
	// flight.
	leaveErr, ok := transport.Await(tr, self, 15*time.Second, node.Leave)
	if !ok {
		return fmt.Errorf("leave handshake stalled")
	}

	// Best-effort grant retirement: releases this endpoint's
	// admission quota at the CA and frees the slot. A timeout only
	// means the quota frees when the window ages out.
	transport.Await(tr, self, rpcTimeout+time.Second, func(done func(struct{})) {
		tr.Call(self, d.caAddr, retire, rpcTimeout, func(transport.Message, error) { done(struct{}{}) })
	})

	if leaveErr != nil {
		return fmt.Errorf("left the ring with unacknowledged neighbors: %w", leaveErr)
	}
	log.Printf("left the ring cleanly (neighbors acknowledged the leave)")
	return nil
}
