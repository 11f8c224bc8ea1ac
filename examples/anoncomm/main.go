// Anoncomm: DHT-based anonymous communication — the paper's flagship
// application (§2). Each participant builds a Tor-style three-relay circuit
// whose relays are chosen by anonymous Octopus lookups of random ring
// positions, so nobody observing the lookups can predict the circuit (the
// property that defeats the relay-exhaustion attack of Wang et al.).
//
// The circuit payloads here use the repository's REAL onion cryptography
// (authenticated AES-128-GCM layers, internal/xcrypto) rather than the simulator's
// structural model.
//
//	go run ./examples/anoncomm
package main

import (
	"crypto/rand"
	"fmt"
	"log"
	mrand "math/rand"
	"slices"
	"time"

	"github.com/octopus-dht/octopus"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("Building an 80-node anonymity network over Octopus ...")
	net, err := octopus.New(octopus.Defaults(80))
	if err != nil {
		return err
	}
	net.Warm(2 * time.Minute)

	// Select three circuit relays via anonymous lookups of random ring
	// positions — the adversary cannot range-estimate the targets.
	rng := mrand.New(mrand.NewSource(7))
	var relays []int
	for len(relays) < 3 {
		key := make([]byte, 8)
		rng.Read(key)
		res, err := net.Lookup(5, key)
		if err != nil {
			return fmt.Errorf("relay selection: %w", err)
		}
		if !slices.Contains(relays, res.OwnerIndex) && res.OwnerIndex != 5 {
			relays = append(relays, res.OwnerIndex)
			fmt.Printf("  relay %d selected: node %3d (lookup sent %d real + %d dummy queries)\n",
				len(relays), res.OwnerIndex, res.Queries, res.Dummies)
		}
	}

	// Build a real onion for the circuit: one AES-128-GCM layer per relay.
	keys := make([][]byte, 3)
	for i := range keys {
		k, err := xcrypto.NewOnionKey(rand.Reader)
		if err != nil {
			return err
		}
		keys[i] = k
	}
	payload := []byte("GET /hidden-service/index.html")
	nexts := []int64{int64(relays[1]), int64(relays[2]), xcrypto.ExitHop}
	onion, err := xcrypto.Build(rand.Reader, keys, nexts, payload)
	if err != nil {
		return err
	}
	fmt.Printf("\nCircuit %d -> %d -> %d, onion %d bytes for a %d-byte payload\n",
		relays[0], relays[1], relays[2], len(onion), len(payload))

	// A party on the path holds no key but can flip bits in transit. Each
	// layer is authenticated, so the relay refuses the altered onion.
	tampered := slices.Clone(onion)
	tampered[len(tampered)/2] ^= 1
	if _, _, err = xcrypto.Peel(keys[0], tampered); err == nil {
		return fmt.Errorf("relay 1 accepted a tampered onion")
	}
	fmt.Printf("  one bit flipped in transit: relay 1 refuses it (%v)\n", err)

	// Each relay peels exactly one layer.
	cur := onion
	for i, key := range keys {
		next, inner, err := xcrypto.Peel(key, cur)
		if err != nil {
			return fmt.Errorf("relay %d peel: %w", i+1, err)
		}
		if next == xcrypto.ExitHop {
			fmt.Printf("  relay %d (node %d): exit — payload %q\n", i+1, relays[i], inner)
		} else {
			fmt.Printf("  relay %d (node %d): forward to node %d (%d bytes remain opaque)\n",
				i+1, relays[i], next, len(inner))
		}
		cur = inner
	}

	// And the reply returns through the same circuit, one wrap per relay.
	reply := []byte("<html>hidden service says hi</html>")
	data := reply
	for i := len(keys) - 1; i >= 0; i-- {
		if data, err = xcrypto.WrapReply(rand.Reader, keys[i], data); err != nil {
			return err
		}
	}
	got, err := xcrypto.UnwrapReply(keys, data)
	if err != nil {
		return err
	}
	fmt.Printf("\nReply unwrapped by the initiator: %q\n", got)
	if string(got) != string(reply) {
		return fmt.Errorf("reply corrupted")
	}
	return nil
}
