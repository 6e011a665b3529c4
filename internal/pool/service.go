package pool

import (
	"context"
	"sync"
)

// Service is the thread-safe front of a Pool, for the HTTP daemon:
// every submission is admitted at the pool's current virtual-time
// frontier and the loop is drained until that submission reaches a
// terminal state, so Submit is synchronous from the caller's point of
// view while idle VMs, billing boundaries and deprovision timers keep
// flowing through the same deterministic loop.
type Service struct {
	mu sync.Mutex
	p  *Pool
}

// NewService builds a service around a fresh pool that keeps no
// decision log: a daemon serves submissions without end.
func NewService(cfg Config) (*Service, error) {
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	p.noLog = true
	return &Service{p: p}, nil
}

// Submit enqueues one submission at the frontier and runs it to a
// terminal state. The error covers validation/planning failures
// (classified, as *reqerr.Error); admission
// rejections come back as a non-nil Outcome in StateRejected.
func (s *Service) Submit(ctx context.Context, sub Submission) (*Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Service-mode arrivals always land at the frontier: wall-clock
	// arrival order defines virtual arrival order.
	sub.At = s.p.Now()
	o, err := s.p.Enqueue(ctx, sub)
	if err != nil {
		return nil, err
	}
	if err := s.p.RunUntil(o); err != nil {
		return o, err
	}
	return o, nil
}

// Tenants lists tenant snapshots in registration order.
func (s *Service) Tenants() []TenantView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.Tenants()
}

// Tenant returns one tenant snapshot.
func (s *Service) Tenant(id string) (TenantView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.Tenant(id)
}

// Stats snapshots the pool.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.Stats()
}
