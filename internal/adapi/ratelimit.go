package adapi

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Limiter is a token-bucket rate limiter. The paper's crawler deliberately
// limited both the count and the rate of its API queries (§5, Ethics); the
// client uses a Limiter for the same purpose, and the server uses one to
// emulate platform-side throttling (429 responses).
type Limiter struct {
	mu     sync.Mutex
	rate   float64 // tokens added per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
	now    func() time.Time
}

// NewLimiter returns a limiter admitting rate requests per second with the
// given burst capacity. A nil Limiter admits everything.
func NewLimiter(rate, burst float64) *Limiter {
	if rate <= 0 {
		panic("adapi: limiter rate must be positive")
	}
	if burst < 1 {
		burst = 1
	}
	l := &Limiter{rate: rate, burst: burst, tokens: burst, now: time.Now}
	l.last = l.now()
	return l
}

// setClock injects a fake clock for tests.
func (l *Limiter) setClock(now func() time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.now = now
	l.last = now()
}

// refill adds tokens for elapsed time. Callers hold l.mu.
func (l *Limiter) refill() {
	t := l.now()
	elapsed := t.Sub(l.last).Seconds()
	if elapsed > 0 {
		l.tokens += elapsed * l.rate
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
		l.last = t
	}
}

// Allow reports whether a request may proceed now, consuming a token if
// so. A refusal also reports the wait until the bucket next holds a token.
func (l *Limiter) Allow() (ok bool, wait time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refill()
	if l.tokens >= 1 {
		l.tokens--
		return true, 0
	}
	return false, time.Duration((1 - l.tokens) / l.rate * float64(time.Second))
}

// reserve consumes a token, returning how long the caller must wait before
// honouring it.
func (l *Limiter) reserve() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refill()
	l.tokens--
	if l.tokens >= 0 {
		return 0
	}
	return time.Duration(-l.tokens / l.rate * float64(time.Second))
}

// ErrLimiterNil is returned by Wait on a nil limiter context cancellation.
var errWaitCancelled = errors.New("adapi: rate-limit wait cancelled")

// Wait blocks until a token is available or the context is done.
func (l *Limiter) Wait(ctx context.Context) error {
	if l == nil {
		return nil
	}
	d := l.reserve()
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return errors.Join(errWaitCancelled, ctx.Err())
	}
}
