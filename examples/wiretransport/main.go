// Wiretransport: run the DHT stack over the socket transport, every host
// in this one process, instead of the deterministic simulator.
//
// Every RPC below crosses host boundaries as encoded bytes — the binary wire
// format the socket deployment uses — and every host runs its own
// goroutine. The endpoint table names only this process, so no frame
// touches a socket. This is the "unbound from the simulator" proof: the
// identical chord.Node state machines drive stabilization, finger repair,
// and iterative lookups with no virtual clock anywhere.
//
//	go run ./examples/wiretransport
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/nettransport"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const n = 32
	fmt.Fprintf(w, "Starting %d hosts in one process, one goroutine each ...\n", n)
	eps := make([]string, n)
	for i := range eps {
		eps[i] = "local"
	}
	net, err := nettransport.New(nettransport.Config{Self: "local", Endpoints: eps, Seed: 1})
	if err != nil {
		return err
	}
	defer net.Close()

	cfg := chord.DefaultConfig()
	cfg.StabilizeEvery = 100 * time.Millisecond
	cfg.FixFingersEvery = 500 * time.Millisecond
	cfg.RPCTimeout = time.Second
	ring := chord.BuildRing(net, cfg, n, nil)

	// Real time, real concurrency: let a few stabilization rounds run.
	time.Sleep(400 * time.Millisecond)

	rng := rand.New(rand.NewSource(2))
	keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	fmt.Fprintln(w, "\nIterative Chord lookups over the wire codec:")
	// One timer reset per lookup, not one time.After allocation per
	// iteration (the timer would otherwise live until it fires).
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for _, key := range keys {
		k := id.FromString(key)
		node := ring.Node(transport.Addr(rng.Intn(n)))
		want := ring.Owner(k)

		type outcome struct {
			owner chord.Peer
			stats chord.LookupStats
			err   error
		}
		ch := make(chan outcome, 1)
		// Protocol state is only touched inside a host's serialization
		// context; After(owner, 0, fn) enters it.
		net.After(node.Self.Addr, 0, func() {
			node.Lookup(k, func(owner chord.Peer, stats chord.LookupStats, err error) {
				ch <- outcome{owner, stats, err}
			})
		})
		if !timeout.Stop() {
			select {
			case <-timeout.C:
			default:
			}
		}
		timeout.Reset(10 * time.Second)
		select {
		case out := <-ch:
			if out.err != nil {
				return fmt.Errorf("lookup %q: %w", key, out.err)
			}
			status := "ok"
			if out.owner != want {
				status = fmt.Sprintf("MISMATCH (want %v)", want)
			}
			fmt.Fprintf(w, "  %-8s -> node %2d  (%d hops, %v wall time) %s\n",
				key, out.owner.Addr, out.stats.Hops, out.stats.Latency().Round(time.Millisecond), status)
		case <-timeout.C:
			return fmt.Errorf("lookup %q timed out", key)
		}
	}

	// The traffic counters account real encoded bytes.
	var sent, msgs uint64
	for i := 0; i < n; i++ {
		st := net.Stats(transport.Addr(i))
		sent += st.BytesSent
		msgs += st.MsgsSent
	}
	fmt.Fprintf(w, "\nWire totals: %d messages, %d bytes serialized through the codec\n", msgs, sent)
	if errs := net.CodecErrors(); errs != 0 {
		return fmt.Errorf("%d messages lacked a wire codec", errs)
	}
	fmt.Fprintln(w, "Codec errors: 0 — every message that moved had a real wire format.")
	return nil
}
