package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/obs"
)

// Backpressure errors returned through ServiceResult.Err.
var (
	// ErrServiceBusy means the service's global queue is full: the caller
	// should back off and retry (over the wire this surfaces as a
	// ClientLookupResp with Busy set).
	ErrServiceBusy = errors.New("core: lookup service saturated, retry later")
	// ErrClientBusy means one client exceeded its per-client quota of
	// queued plus running lookups.
	ErrClientBusy = errors.New("core: per-client lookup quota exhausted")
	// ErrServiceClosed is reported for work still queued when the service
	// shuts down.
	ErrServiceClosed = errors.New("core: lookup service closed")
)

// ServiceConfig bounds a LookupService.
type ServiceConfig struct {
	// Workers is the maximum number of anonymous lookups the service
	// keeps in flight at once (each one is α-parallel internally per
	// Config.LookupParallelism). Zero means 8.
	Workers int
	// Queue is the number of submissions that may wait beyond Workers
	// before the service answers ErrServiceBusy. Zero means 64.
	Queue int
	// PerClient caps one client's queued-plus-running lookups, so a
	// single aggressive client cannot occupy the whole queue. Zero means
	// 16.
	PerClient int
}

func (c *ServiceConfig) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.PerClient <= 0 {
		c.PerClient = 16
	}
}

// ServiceResult is the outcome of one served lookup.
type ServiceResult struct {
	Owner chord.Peer
	// Stats is the underlying lookup's per-query accounting.
	Stats LookupStats
	// Wait is how long the submission sat in the queue before a worker
	// slot picked it up.
	Wait time.Duration
	Err  error
}

// svcJob is one queued lookup.
type svcJob struct {
	id       uint64
	client   string
	key      id.ID
	cb       func(ServiceResult)
	enqueued time.Duration
}

// LookupService serves anonymous lookups on behalf of external clients
// through a bounded worker pool with per-client fairness and explicit
// backpressure. octopusd exposes it over the 0x05xx client wire registry;
// the load experiment drives it directly.
//
// All mutable state lives in the node's serialization context: Enqueue may
// be called from any goroutine, but submission, scheduling, and completion
// all run on the node's actor, so the service adds no locking to the
// lookup hot path.
type LookupService struct {
	n   *Node
	cfg ServiceConfig

	// Host-context state.
	queue     []svcJob
	perClient map[string]int
	active    int
	closed    bool
	nextJob   uint64

	stats ServiceStats

	// obsWait is the queue-wait histogram AttachObs registers; nil-safe
	// at the observation site.
	obsWait *obs.Histogram
}

// NewLookupService builds a service over one node. The node should be
// running with a managed relay-pair pool (Config.PairPoolTarget > 0) so
// served lookups draw pre-built pairs instead of falling back to
// finger-synthesized ones under load.
func NewLookupService(n *Node, cfg ServiceConfig) *LookupService {
	cfg.fillDefaults()
	return &LookupService{
		n:         n,
		cfg:       cfg,
		perClient: make(map[string]int),
	}
}

// Node returns the serving node.
func (s *LookupService) Node() *Node { return s.n }

// ServiceStats is a LookupService's counters and gauges, written in the
// node's serialization context and read with Load from any goroutine.
type ServiceStats struct {
	Submitted, Completed, Failed, RejectedQueue, RejectedClient atomic.Uint64
	// Active and Queued are current gauges.
	Active, Queued atomic.Int64
}

// Stats returns the service's live counters; read each with Load.
func (s *LookupService) Stats() *ServiceStats { return &s.stats }

// AttachObs registers the service's counters, gauges, and queue-wait
// histogram with the collector.
func (s *LookupService) AttachObs(c *obs.Collector) {
	if s.obsWait == nil {
		s.obsWait = obs.NewHistogram(obs.ServiceWait, obs.LatencyBuckets, s.n.nodeLabel())
	}
	c.Register(s.obsWait)
	c.Register(s)
}

// CollectObs implements obs.Source.
func (s *LookupService) CollectObs(snap *obs.Snapshot) {
	st := &s.stats
	l := s.n.nodeLabel()
	snap.AddCounter(obs.ServiceSubmitted, float64(st.Submitted.Load()), l)
	snap.AddCounter(obs.ServiceCompleted, float64(st.Completed.Load()), l)
	snap.AddCounter(obs.ServiceFailed, float64(st.Failed.Load()), l)
	snap.AddCounter(obs.ServiceRejected, float64(st.RejectedQueue.Load()), l, obs.L("reason", "queue"))
	snap.AddCounter(obs.ServiceRejected, float64(st.RejectedClient.Load()), l, obs.L("reason", "client"))
	snap.AddGauge(obs.ServiceActive, float64(st.Active.Load()), l)
	snap.AddGauge(obs.ServiceQueued, float64(st.Queued.Load()), l)
}

// Enqueue submits one lookup on behalf of client. It may be called from
// any goroutine; cb is invoked exactly once, from the node's serialization
// context (hand results to other goroutines through a channel). Rejections
// (ErrServiceBusy, ErrClientBusy) are also delivered through cb.
func (s *LookupService) Enqueue(client string, key id.ID, cb func(ServiceResult)) {
	s.EnqueueCancellable(client, key, cb)
}

// EnqueueCancellable is Enqueue returning a cancel function for callers
// that stop waiting (a serve deadline). Cancellation is best-effort and
// may be called from any goroutine: a job still WAITING in the queue is
// removed and its per-client quota released, without invoking cb — so an
// abandoned client's retries do not stack zombie queue entries against
// its own quota. A job already running cannot be interrupted (the lookup
// is live continuation state across the ring); it completes, invokes cb,
// and only then releases its quota.
func (s *LookupService) EnqueueCancellable(client string, key id.ID, cb func(ServiceResult)) (cancel func()) {
	jobID := make(chan uint64, 1)
	s.n.tr.After(s.n.Chord.Self.Addr, 0, func() { jobID <- s.submit(client, key, cb) })
	var once sync.Once
	return func() {
		once.Do(func() { s.cancelQueued(jobID) })
	}
}

// cancelQueued removes one queued job (identified by the id the submit
// closure published) from inside the host context.
func (s *LookupService) cancelQueued(jobID <-chan uint64) {
	s.n.tr.After(s.n.Chord.Self.Addr, 0, func() {
		// The submit closure always ran before this one (same
		// serialization context, FIFO), so the id is ready.
		var id uint64
		select {
		case id = <-jobID:
		default:
		}
		if id == 0 {
			return // rejected, or started immediately: nothing queued
		}
		for i, job := range s.queue {
			if job.id != id {
				continue
			}
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.stats.Queued.Store(int64(len(s.queue)))
			s.release(job.client)
			return
		}
	})
}

// Close rejects all queued work with ErrServiceClosed and refuses new
// submissions. In-flight lookups run to completion. Like Enqueue it may be
// called from any goroutine.
func (s *LookupService) Close() {
	s.n.tr.After(s.n.Chord.Self.Addr, 0, func() {
		s.closed = true
		queued := s.queue
		s.queue = nil
		s.stats.Queued.Store(0)
		for _, job := range queued {
			s.release(job.client)
			job.cb(ServiceResult{Err: ErrServiceClosed})
		}
	})
}

// submit runs in host context. It returns the job's id when the job was
// QUEUED (the handle cancelQueued removes it by), and 0 when it was
// rejected or started immediately.
func (s *LookupService) submit(client string, key id.ID, cb func(ServiceResult)) uint64 {
	s.stats.Submitted.Add(1)
	if s.closed {
		cb(ServiceResult{Err: ErrServiceClosed})
		return 0
	}
	if s.perClient[client] >= s.cfg.PerClient {
		s.stats.RejectedClient.Add(1)
		cb(ServiceResult{Err: ErrClientBusy})
		return 0
	}
	if s.active >= s.cfg.Workers && len(s.queue) >= s.cfg.Queue {
		s.stats.RejectedQueue.Add(1)
		cb(ServiceResult{Err: ErrServiceBusy})
		return 0
	}
	s.perClient[client]++
	s.nextJob++
	job := svcJob{id: s.nextJob, client: client, key: key, cb: cb, enqueued: s.n.tr.Now()}
	if s.active < s.cfg.Workers {
		s.start(job)
		return 0
	}
	s.queue = append(s.queue, job)
	s.stats.Queued.Store(int64(len(s.queue)))
	return job.id
}

// start runs in host context with a free worker slot.
func (s *LookupService) start(job svcJob) {
	s.active++
	s.stats.Active.Store(int64(s.active))
	wait := s.n.tr.Now() - job.enqueued
	s.obsWait.ObserveDuration(wait)
	s.n.AnonLookup(job.key, func(owner chord.Peer, stats LookupStats, err error) {
		s.active--
		s.stats.Active.Store(int64(s.active))
		s.release(job.client)
		if err != nil {
			s.stats.Failed.Add(1)
		} else {
			s.stats.Completed.Add(1)
		}
		job.cb(ServiceResult{Owner: owner, Stats: stats, Wait: wait, Err: err})
		s.pump()
	})
}

// release gives back one of client's per-client quota slots (host
// context), forgetting the client once it holds none.
func (s *LookupService) release(client string) {
	s.perClient[client]--
	if s.perClient[client] <= 0 {
		delete(s.perClient, client)
	}
}

// pump starts queued jobs while worker slots are free (host context).
func (s *LookupService) pump() {
	for !s.closed && s.active < s.cfg.Workers && len(s.queue) > 0 {
		job := s.queue[0]
		s.queue = s.queue[1:]
		s.stats.Queued.Store(int64(len(s.queue)))
		s.start(job)
	}
}
