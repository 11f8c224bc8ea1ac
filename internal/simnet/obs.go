package simnet

import "github.com/octopus-dht/octopus/internal/obs"

// CollectObs implements obs.Source: aggregate traffic across every host
// slot plus the fault layer's drop counter. Host counters are mutated on
// the simulator goroutine, so collect from a quiescent simulation (between
// Run calls) or from simulator context — the same discipline Stats already
// requires.
func (n *Network) CollectObs(s *obs.Snapshot) {
	var agg obs.Traffic
	for i := range n.hosts {
		st := n.hosts[i].stats
		agg.BytesSent += st.BytesSent
		agg.BytesReceived += st.BytesReceived
		agg.MsgsSent += st.MsgsSent
		agg.MsgsReceived += st.MsgsReceived
	}
	obs.EmitTraffic(s, "simnet", agg)
	s.AddCounter(obs.SimnetDropped, float64(n.dropped.Load()))
}
