package session

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// OverloadedError is the typed admission-control rejection: the server's
// queue is full and the submission was refused *fast*, without queueing,
// disk writes, or tree building. Clients should back off and retry.
type OverloadedError struct {
	QueueDepth int
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("overloaded: session queue full (depth %d); retry later", e.QueueDepth)
}

// ErrClosed rejects submissions to a service that is shutting down.
var ErrClosed = errors.New("session service closed")

// ErrNotFound reports an unknown session ID.
var ErrNotFound = errors.New("session not found")

// ErrServerShutdown is the cancel cause used when Close tears down
// sessions that outlived the shutdown grace period.
var ErrServerShutdown = errors.New("server shutting down")

// ErrCanceled is the cancel cause for explicit per-session cancellation.
var ErrCanceled = errors.New("session canceled by client")

// ErrDeadline is the cancel cause when a session exceeds its deadline.
var ErrDeadline = errors.New("session deadline exceeded")

// ServiceConfig parameterizes a Service.
type ServiceConfig struct {
	// Pool is the number of concurrent session workers (default 4).
	Pool int
	// QueueDepth bounds admitted-but-unfinished sessions (queued +
	// running). At the bound Submit rejects with *OverloadedError
	// (default 64).
	QueueDepth int
	// DefaultDeadline bounds sessions whose spec sets none (default 2m;
	// < 0 disables the default so such sessions run unbounded).
	DefaultDeadline time.Duration
	// MaxProcs caps Spec.Procs per session (0 = no cap): one admission
	// dimension is work size, not just queue length.
	MaxProcs int
	// Store, when non-nil, checkpoints every session lifecycle transition
	// to disk; NewService resumes or honestly fails whatever a previous
	// incarnation left non-terminal.
	Store *Store
	// ResumeAttempts is how many times a session interrupted by a server
	// crash is re-executed before it is failed outright (default 1).
	ResumeAttempts int
}

// Session is one admitted session's handle.
type Session struct {
	ID        string
	Spec      Spec
	Attempt   int
	Submitted time.Time

	svc     *Service
	state   State
	outcome *Outcome
	done    chan struct{}
	cancel  context.CancelCauseFunc // non-nil while running
}

// State returns the session's current lifecycle state.
func (h *Session) State() State {
	h.svc.mu.Lock()
	defer h.svc.mu.Unlock()
	return h.state
}

// Outcome returns the terminal outcome, or nil while the session is live.
func (h *Session) Outcome() *Outcome {
	h.svc.mu.Lock()
	defer h.svc.mu.Unlock()
	return h.outcome
}

// Done is closed when the session reaches a terminal state.
func (h *Session) Done() <-chan struct{} { return h.done }

// Wait blocks until the session is terminal or ctx expires.
func (h *Session) Wait(ctx context.Context) (*Outcome, error) {
	select {
	case <-h.done:
		return h.Outcome(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Metrics is a point-in-time service gauge/counter snapshot.
type Metrics struct {
	Pool       int   `json:"pool"`
	QueueDepth int   `json:"queue_depth"`
	Pending    int   `json:"pending"` // queued + running (admission gauge)
	Queued     int   `json:"queued"`
	Running    int   `json:"running"`
	Submitted  int64 `json:"submitted_total"`
	Rejected   int64 `json:"rejected_total"`
	Resumed    int64 `json:"resumed_total"`
	Done       int64 `json:"done_total"`
	Canceled   int64 `json:"canceled_total"`
	Failed     int64 `json:"failed_total"`
	Internal   int64 `json:"internal_error_total"`
	// Overloaded counts finished sessions whose run exhausted its
	// tool-plane memory budget despite backpressure (honest PARTIAL);
	// MemHighWater is the largest peak resident tool-plane byte count any
	// finished session reported.
	Overloaded   int64 `json:"overloaded_total"`
	MemHighWater int64 `json:"mem_high_water_bytes"`
}

// Service multiplexes detection sessions over a bounded worker pool with
// explicit admission control: at most QueueDepth sessions are admitted
// and unfinished at once, the rest are rejected fast with a typed
// *OverloadedError so a loaded server degrades by refusing work, never by
// hanging. Each session runs under its own cancellable context and is
// isolated — a panicking tenant program ends that session in
// internal_error, not the process.
type Service struct {
	cfg   ServiceConfig
	queue chan *Session

	mu       sync.Mutex
	closed   bool
	pending  int // admitted, not yet terminal
	sessions map[string]*Session
	order    []string // admission order, for listing
	metrics  Metrics

	seq       int64
	incarn    int64 // process incarnation, makes IDs unique across restarts
	wg        sync.WaitGroup
	persistWG sync.WaitGroup
	baseCtx   context.Context
	stop      context.CancelCauseFunc
}

// NewService starts the worker pool. With a Store configured it first
// recovers the previous incarnation's sessions: terminal records are kept
// as history, non-terminal ones are re-enqueued (attempt+1) or — past
// ResumeAttempts — failed explicitly, so no admitted session is ever
// silently lost.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Pool <= 0 {
		cfg.Pool = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.DefaultDeadline == 0 {
		cfg.DefaultDeadline = 2 * time.Minute
	}
	if cfg.ResumeAttempts == 0 {
		cfg.ResumeAttempts = 1
	}

	s := &Service{
		cfg:      cfg,
		sessions: make(map[string]*Session),
		incarn:   time.Now().UnixNano(),
	}
	s.baseCtx, s.stop = context.WithCancelCause(context.Background())
	s.metrics.Pool = cfg.Pool
	s.metrics.QueueDepth = cfg.QueueDepth

	var resume []*Session
	if cfg.Store != nil {
		recs, skipped, err := cfg.Store.Load()
		if err != nil {
			return nil, err
		}
		_ = skipped // unreadable records carry no session identity to fail
		for _, rec := range recs {
			h := &Session{
				ID:        rec.ID,
				Spec:      rec.Spec,
				Attempt:   rec.Attempt,
				Submitted: time.Unix(rec.SubmittedUnix, 0),
				svc:       s,
				done:      make(chan struct{}),
			}
			s.sessions[rec.ID] = h
			s.order = append(s.order, rec.ID)
			if rec.State.Terminal() {
				h.state = rec.State
				h.outcome = rec.Outcome
				close(h.done)
				continue
			}
			// Interrupted by the previous incarnation's death. The spec is
			// the memento: re-execute it, unless it has already burned its
			// resume budget — then fail it honestly.
			h.Attempt = rec.Attempt + 1
			if h.Attempt > 1+cfg.ResumeAttempts {
				h.state = StateFailed
				h.outcome = &Outcome{
					State: StateFailed,
					Error: fmt.Sprintf("interrupted by server restart (%d attempts)", rec.Attempt),
				}
				rec.State = StateFailed
				rec.Outcome = h.outcome
				rec.Attempt = h.Attempt - 1
				cfg.Store.Put(rec)
				close(h.done)
				s.metrics.Failed++
				continue
			}
			h.state = StateQueued
			s.metrics.Resumed++
			resume = append(resume, h)
		}
	}

	// Queue capacity covers the full admission bound plus every resumed
	// session, so enqueueing under the admission check can never block.
	s.queue = make(chan *Session, cfg.QueueDepth+len(resume))
	for _, h := range resume {
		s.pending++
		s.persist(h)
		s.queue <- h
	}

	s.wg.Add(cfg.Pool)
	for i := 0; i < cfg.Pool; i++ {
		go s.worker()
	}
	return s, nil
}

// Submit admits a session or rejects it. Rejection is O(1): a validation
// error or *OverloadedError returns before any disk or tree work.
func (s *Service) Submit(spec Spec) (*Session, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if s.cfg.MaxProcs > 0 && spec.Procs > s.cfg.MaxProcs {
		return nil, fmt.Errorf("spec: procs %d exceeds server cap %d", spec.Procs, s.cfg.MaxProcs)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.pending >= s.cfg.QueueDepth {
		s.metrics.Rejected++
		s.mu.Unlock()
		return nil, &OverloadedError{QueueDepth: s.cfg.QueueDepth}
	}
	s.pending++
	s.seq++
	s.metrics.Submitted++
	h := &Session{
		ID:        fmt.Sprintf("%x-%06d", s.incarn, s.seq),
		Spec:      spec,
		Attempt:   1,
		Submitted: time.Now(),
		svc:       s,
		state:     StateQueued,
		done:      make(chan struct{}),
	}
	s.sessions[h.ID] = h
	s.order = append(s.order, h.ID)
	s.mu.Unlock()

	s.persist(h)
	// pending < QueueDepth held under the lock and capacity covers the
	// bound, so this send cannot block.
	s.queue <- h
	return h, nil
}

// Get returns a session handle by ID.
func (s *Service) Get(id string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.sessions[id]
	if h == nil {
		return nil, ErrNotFound
	}
	return h, nil
}

// List returns all known sessions in admission order.
func (s *Service) List() []*Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Session, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.sessions[id])
	}
	return out
}

// Cancel cancels a queued or running session with ErrCanceled (wrapped
// around the optional reason). Terminal sessions are left untouched.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	h := s.sessions[id]
	if h == nil {
		s.mu.Unlock()
		return ErrNotFound
	}
	switch {
	case h.state.Terminal():
		s.mu.Unlock()
		return nil
	case h.state == StateRunning:
		cancel := h.cancel
		s.mu.Unlock()
		if cancel != nil {
			cancel(ErrCanceled)
		}
		return nil
	default: // queued: finish it here; the worker will skip it
		s.finishLocked(h, &Outcome{State: StateCanceled, Error: ErrCanceled.Error()})
		s.mu.Unlock()
		return nil
	}
}

// Metrics returns a snapshot of service gauges and counters.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.metrics
	m.Pending = s.pending
	for _, h := range s.sessions {
		switch h.state {
		case StateQueued:
			m.Queued++
		case StateRunning:
			m.Running++
		}
	}
	return m
}

// Close stops admission, then gives live sessions the grace period to
// finish (workers keep draining the queue meanwhile) before cancelling
// the stragglers — running and still-queued alike — with
// ErrServerShutdown. Close blocks until every worker exited, so after it
// returns every admitted session is terminal and persisted.
func (s *Service) Close(grace time.Duration) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		s.persistWG.Wait()
		return
	}
	s.closed = true
	live := make([]*Session, 0)
	for _, h := range s.sessions {
		if !h.state.Terminal() {
			live = append(live, h)
		}
	}
	s.mu.Unlock()
	close(s.queue)

	deadline := time.After(grace)
	graceful := true
	for _, h := range live {
		select {
		case <-h.done:
		case <-deadline:
			graceful = false
		}
		if !graceful {
			break
		}
	}
	if !graceful {
		for _, h := range live {
			s.mu.Lock()
			switch {
			case h.state.Terminal():
				s.mu.Unlock()
			case h.state == StateRunning:
				cancel := h.cancel
				s.mu.Unlock()
				if cancel != nil {
					cancel(ErrServerShutdown)
				}
			default: // queued and out of time: never start it
				s.finishLocked(h, &Outcome{State: StateCanceled, Error: ErrServerShutdown.Error()})
				s.mu.Unlock()
			}
		}
		s.stop(ErrServerShutdown)
	}
	s.wg.Wait()
	s.persistWG.Wait()
}

func (s *Service) worker() {
	defer s.wg.Done()
	for h := range s.queue {
		s.mu.Lock()
		if h.state.Terminal() {
			// Canceled while queued: its admission slot is released here,
			// when its channel slot frees too — that keeps the channel
			// occupancy bounded by pending, so Submit's enqueue never
			// blocks.
			s.pending--
			s.mu.Unlock()
			continue
		}
		h.state = StateRunning
		ctx, cancel := context.WithCancelCause(s.baseCtx)
		h.cancel = cancel
		s.mu.Unlock()

		s.persist(h)
		out := s.runOne(ctx, h)
		cancel(nil)

		s.mu.Lock()
		h.cancel = nil
		s.finishLocked(h, out)
		s.mu.Unlock()
	}
}

// runOne executes one session with its deadline applied; any panic that
// escapes the tool stack is contained to this session.
func (s *Service) runOne(ctx context.Context, h *Session) (out *Outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = &Outcome{
				State: StateInternalError,
				Error: fmt.Sprintf("panic: %v\n%s", r, debug.Stack()),
			}
		}
	}()
	deadline := time.Duration(h.Spec.Deadline)
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadlineCause(ctx, time.Now().Add(deadline), ErrDeadline)
		defer cancel()
	}
	return Run(ctx, &h.Spec)
}

// finishLocked installs a terminal outcome; callers hold s.mu.
func (s *Service) finishLocked(h *Session, out *Outcome) {
	if h.state.Terminal() {
		return
	}
	if h.state == StateRunning {
		// A finished run releases its admission slot. A canceled *queued*
		// session does not — it still occupies a queue-channel slot, so
		// the worker releases both together at dequeue.
		s.pending--
	}
	h.state = out.State
	h.outcome = out
	switch out.State {
	case StateDone:
		s.metrics.Done++
	case StateCanceled:
		s.metrics.Canceled++
	case StateFailed:
		s.metrics.Failed++
	case StateInternalError:
		s.metrics.Internal++
	}
	if st := out.Stats; st != nil {
		if st.Overloaded {
			s.metrics.Overloaded++
		}
		if st.MemHighWater > s.metrics.MemHighWater {
			s.metrics.MemHighWater = st.MemHighWater
		}
	}
	close(h.done)
	// Persist off the lock, but tracked: Close waits for these so a
	// graceful shutdown leaves every terminal outcome on disk.
	s.persistWG.Add(1)
	go func() {
		defer s.persistWG.Done()
		s.persist(h)
	}()
}

// persist checkpoints the session's current state if a store is attached.
func (s *Service) persist(h *Session) {
	if s.cfg.Store == nil {
		return
	}
	s.mu.Lock()
	rec := &Record{
		ID:            h.ID,
		Spec:          h.Spec,
		State:         h.state,
		Attempt:       h.Attempt,
		SubmittedUnix: h.Submitted.Unix(),
		Outcome:       h.outcome,
	}
	s.mu.Unlock()
	s.cfg.Store.Put(rec)
}
