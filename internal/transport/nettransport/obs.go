package nettransport

import (
	"github.com/octopus-dht/octopus/internal/obs"
	"github.com/octopus-dht/octopus/internal/transport/actor"
)

// CollectObs implements obs.Source: codec-byte traffic aggregated over the
// local hosts (remote slots hold no counters), plus the socket-layer frame,
// dial, drop, and error counters that only this backend has. Safe to call
// from any goroutine while the transport runs.
func (t *Transport) CollectObs(s *obs.Snapshot) {
	obs.EmitTraffic(s, "net", actor.SumStats(t.localHosts()))

	backend := obs.L("backend", "net")
	in, out := t.Frames()
	s.AddCounter(obs.TransportFrames, float64(in), backend, obs.L("direction", "in"))
	s.AddCounter(obs.TransportFrames, float64(out), backend, obs.L("direction", "out"))
	s.AddCounter(obs.TransportSendDrops, float64(t.SendDrops()), backend)
	s.AddCounter(obs.TransportDials, float64(t.Dials()), backend)
	s.AddCounter(obs.TransportCodecErrors, float64(t.CodecErrors()), backend)
	s.AddCounter(obs.TransportProtocolErrors, float64(t.ProtocolErrors()), backend)
}
