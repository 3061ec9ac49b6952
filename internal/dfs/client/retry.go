package client

import (
	"errors"
	"time"

	"repro/internal/transport"
)

// DefaultNNAttempts is how many times an idempotent namenode call is
// attempted before its transport failure is surfaced (first try plus
// retries), unless WithNNAttempts overrides it.
const DefaultNNAttempts = 4

const (
	nnRetryBase = 50 * time.Millisecond
	nnRetryMax  = time.Second
)

// WithNNAttempts caps attempts for idempotent namenode calls. n = 1
// disables retries entirely.
func WithNNAttempts(n int) Option {
	return func(c *Client) {
		if n < 1 {
			n = 1
		}
		c.nnAttempts = n
	}
}

// WithNNTimeout sets the per-call timeout on the namenode connection
// (default 5 minutes of simulated time). Chaos tests shorten it so a
// dropped RPC fails fast enough to exercise the retry path.
func WithNNTimeout(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.nnTimeout = d
		}
	}
}

// callNNOnce invokes a namenode method exactly once. Non-idempotent
// methods (create, delete, migrate, evict) go through here: after a lost
// reply the caller cannot know whether the side effect happened, so the
// error must surface instead of a blind retry.
func callNNOnce[Resp any](c *Client, method string, arg any) (Resp, error) {
	conn := c.nnConn()
	if conn == nil {
		var zero Resp
		return zero, errors.New("dfs client: closed")
	}
	return transport.Call[Resp](conn, method, arg)
}

// callNN invokes an idempotent namenode method, retrying transport-level
// failures (timeouts, dropped connections — anything wrapped in a
// *transport.CallError) with capped exponential backoff and seeded
// jitter. Application errors from the namenode are returned immediately.
// Allocation calls stay safe to retry because they carry a request ID
// the namenode deduplicates on. The jitter rng is separate from the
// replica-choice rng and is only drawn between attempts, so a run
// without faults draws nothing and stays bit-identical.
func callNN[Resp any](c *Client, method string, arg any) (Resp, error) {
	var zero Resp
	backoff := nnRetryBase
	var lastErr error
	for attempt := 0; attempt < c.nnAttempts; attempt++ {
		if attempt > 0 {
			c.clock.Sleep(c.retryJitter(backoff))
			backoff *= 2
			if backoff > nnRetryMax {
				backoff = nnRetryMax
			}
		}
		conn := c.nnConn()
		if conn == nil {
			return zero, errors.New("dfs client: closed")
		}
		resp, err := transport.Call[Resp](conn, method, arg)
		if err == nil {
			return resp, nil
		}
		var ce *transport.CallError
		if !errors.As(err, &ce) {
			return zero, err
		}
		lastErr = err
		if errors.Is(err, transport.ErrClosed) {
			c.redialNN(conn)
		}
	}
	return zero, lastErr
}

// retryJitter scales a backoff step by a seeded factor in [0.5, 1.5).
func (c *Client) retryJitter(d time.Duration) time.Duration {
	c.retryMu.Lock()
	f := 0.5 + c.retryRNG.Float64()
	c.retryMu.Unlock()
	return time.Duration(float64(d) * f)
}

// nnConn returns the current namenode connection (nil once the client
// is closed).
func (c *Client) nnConn() *transport.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	return c.nn
}

// redialNN replaces a dead namenode connection. old is the connection
// the caller saw fail; if another goroutine already swapped it, the
// existing replacement is kept.
func (c *Client) redialNN(old *transport.Client) {
	c.mu.Lock()
	if c.closed || c.nn != old {
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	nn, err := transport.Dial(c.clock, c.net, c.nnAddr, transport.WithCallTimeout(c.nnTimeout))
	if err != nil {
		return // next attempt will fail fast on the old conn and retry
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.nn != old {
		nn.Close()
		return
	}
	c.nn.Close()
	c.nn = nn
}
