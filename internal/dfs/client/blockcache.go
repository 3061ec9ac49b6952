package client

import (
	"repro/internal/blockcache"
	"repro/internal/dfs"
)

// WithBlockCache gives the client a shared block cache of at most bytes
// payload bytes, serving repeated reads of hot inputs from client memory
// instead of re-fetching from datanodes. The cache is shared across
// every ReadBlock and ReadFile call made through this client, and
// concurrent reads of one cold block coalesce into a single datanode
// fetch.
//
// The cache defaults off (bytes <= 0 keeps it off), and experiment
// clients leave it off: cached hits bypass the datanode entirely, so
// they fire no WithReadObserver event (the task timings and tier counts
// the figures are built from) and never reach Ignem's implicit-eviction
// reference lists through a datanode read — only a batched, best-effort
// nn.blockRead notification reports them.
func WithBlockCache(bytes int64) Option {
	return func(c *Client) {
		if bytes > 0 {
			c.cacheBytes = bytes
		}
	}
}

// CacheStats snapshots the block cache's hit/miss/eviction/bytes
// counters. It returns zeros when the cache is off.
func (c *Client) CacheStats() blockcache.Stats {
	if c.cache == nil {
		return blockcache.Stats{}
	}
	return c.cache.Stats()
}

// readBlockVia is the cache-aware read of one block: a cache hit is
// served from client memory; a miss fetches with the usual replica
// choice and failover and installs the payload for later readers.
// path may be "" when the caller does not know the owning file (bare
// ReadBlock); such entries still serve hits and honour the byte budget
// but cannot be invalidated per-file. dst is the fetch's destination
// (see readBlockFrom); a hit is served from the cache's own slot, and
// the response holds a reference to it (HoldSlot) until its Release.
func (c *Client) readBlockVia(path string, lb dfs.LocatedBlock, job dfs.JobID, first string, dst []byte) (dfs.ReadBlockResp, error) {
	if c.cache == nil {
		resp, _, err := c.readBlockFrom1st(lb, job, first, dst)
		return resp, err
	}
	var fetched dfs.ReadBlockResp
	data, hit, err := c.cache.Get(path, uint64(lb.Block.ID), func() ([]byte, string, error) {
		resp, addr, err := c.readBlockFrom1st(lb, job, first, dst)
		if err != nil {
			return nil, "", err
		}
		fetched = resp
		// Synthetic (size-only) blocks return Data == nil, which the
		// cache passes through without installing.
		return resp.Data, addr, nil
	})
	if err != nil {
		return dfs.ReadBlockResp{}, err
	}
	if hit == nil {
		return fetched, nil
	}
	// The datanode never saw this read, so Ignem's reference lists
	// would stall without help: queue a read notification for the
	// namenode (job-tagged reads only — anonymous reads carry no
	// reference-list state).
	if job != "" {
		c.noteCacheHit(job, lb.Block.ID)
	}
	// FromMemory is honest here: the bytes came from this client's
	// memory without touching a datanode.
	resp := dfs.ReadBlockResp{Data: data, Size: int64(len(data)), FromMemory: true}
	resp.HoldSlot(hit)
	return resp, nil
}

// notifyBatchSize is how many queued cache-hit notifications trigger a
// flush to the namenode. Pending notifications also flush on Evict and
// Close, so a short job's reads are reported no later than its eviction.
const notifyBatchSize = 16

// noteCacheHit queues one cache-hit read for batched delivery to the
// namenode's nn.blockRead endpoint.
func (c *Client) noteCacheHit(job dfs.JobID, block dfs.BlockID) {
	c.notifyMu.Lock()
	c.pendingNotify[job] = append(c.pendingNotify[job], block)
	c.pendingCount++
	full := c.pendingCount >= notifyBatchSize
	c.notifyMu.Unlock()
	if full {
		c.FlushReadNotifications()
	}
}

// FlushReadNotifications sends every queued cache-hit read notification
// to the namenode, fire-and-forget: the sends happen on background
// goroutines and failures are dropped (a lost notification only delays
// implicit eviction until the job's explicit Evict). Tests call it
// directly to make notification delivery deterministic.
func (c *Client) FlushReadNotifications() {
	c.notifyMu.Lock()
	pending := c.pendingNotify
	c.pendingNotify = make(map[dfs.JobID][]dfs.BlockID)
	c.pendingCount = 0
	c.notifyMu.Unlock()
	for job, blocks := range pending {
		job, blocks := job, blocks
		c.clock.Go(func() {
			_, _ = callNNOnce[dfs.BlockReadResp](c, "nn.blockRead", dfs.BlockReadReq{Job: job, Blocks: blocks})
		})
	}
}

// invalidateFile drops path's cached blocks after a mutation
// (create/append/delete) or a migration-state change (Migrate/Evict), so
// the next read re-fetches and observes the new bytes and placement.
func (c *Client) invalidateFile(path string) {
	if c.cache != nil {
		c.cache.InvalidateFile(path)
	}
}

// invalidatePaths is invalidateFile over a migration request's path list.
func (c *Client) invalidatePaths(paths []string) {
	if c.cache == nil {
		return
	}
	for _, p := range paths {
		c.cache.InvalidateFile(p)
	}
}
