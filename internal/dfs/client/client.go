// Package client implements the DFSClient used by jobs: namespace
// operations, the block write and read paths, and the paper's Migrate and
// Evict extension — the single call a job submitter adds to use Ignem.
package client

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockcache"
	"repro/internal/dfs"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// BlockReadEvent describes one completed block read, for the experiment
// harness's Fig 6 instrumentation.
type BlockReadEvent struct {
	Block      dfs.BlockID
	Size       int64
	Duration   time.Duration
	FromMemory bool
	Addr       string
	Local      bool
	Job        dfs.JobID
}

// Option configures a Client.
type Option func(*Client)

// WithLocalAddr declares which datanode address this client is co-located
// with, enabling short-circuit local reads and locality preferences.
func WithLocalAddr(addr string) Option {
	return func(c *Client) { c.localAddr = addr }
}

// WithReadObserver installs a callback invoked after every block read.
// Striped reads and Reader prefetching invoke it from multiple
// goroutines; the callback must do its own locking.
func WithReadObserver(fn func(BlockReadEvent)) Option {
	return func(c *Client) { c.observer = fn }
}

// WithSeed seeds the client's replica-choice randomness (and, from an
// independent stream, its retry-backoff jitter).
func WithSeed(seed int64) Option {
	return func(c *Client) {
		c.rng = rand.New(rand.NewSource(seed))
		c.retryRNG = rand.New(rand.NewSource(seed ^ 0x7265747279)) // "retry"
	}
}

// WithReadParallelism bounds how many blocks ReadFile keeps in flight at
// once (default 4). n <= 1 restores the historical one-block-at-a-time
// read path.
func WithReadParallelism(n int) Option {
	return func(c *Client) {
		if n < 1 {
			n = 1
		}
		c.readPar = n
	}
}

// WithReadAhead sets how many blocks beyond the current one a Reader
// opened by this client prefetches (default 2). n = 0 disables
// read-ahead: each block is fetched on demand, exactly once.
func WithReadAhead(n int) Option {
	return func(c *Client) {
		if n < 0 {
			n = 0
		}
		c.readAhead = n
	}
}

// WithWriteParallelism bounds how many blocks a Writer keeps in flight at
// once (default 4): each full block is shipped to its datanode pipeline
// by a worker while the caller keeps buffering. n <= 1 restores the
// historical one-block-at-a-time write path.
func WithWriteParallelism(n int) Option {
	return func(c *Client) {
		if n < 1 {
			n = 1
		}
		c.writePar = n
	}
}

// WithChecksums toggles end-to-end block checksums (default on). When
// enabled, the writer computes a CRC32C per real-data block, records it
// at the namenode during allocation, and ships it with the block; every
// read verifies the returned bytes against the located block's
// checksum, and a mismatch fails over to another replica after asking
// the holder to judge its stored copy (dn.verifyBlock). Each served
// block is verified once: by such a read, which tells the datanode so,
// or else — checksums off, or a file written without them — by the
// datanode against its own write-time CRC before it serves. Synthetic
// (size-only) blocks are never checksummed, so experiment-scale
// workloads are unaffected either way.
func WithChecksums(on bool) Option {
	return func(c *Client) { c.checksums = on }
}

// Client is a DFS client handle. It is safe for concurrent use.
type Client struct {
	clock      simclock.Clock
	net        transport.Network
	nnAddr     string
	nnTimeout  time.Duration
	nnAttempts int
	localAddr  string
	observer   func(BlockReadEvent)
	readPar    int
	readAhead  int
	writePar   int
	cacheBytes int64
	cache      *blockcache.Cache
	checksums  bool

	// checksumFailures counts reads whose bytes failed verification
	// against the write-time checksum (each triggers replica failover).
	checksumFailures atomic.Int64

	// allocSeq numbers block-allocation requests so the namenode can
	// recognise (and not repeat) a retried allocation.
	allocSeq atomic.Uint64

	// retryMu guards the retry-jitter rng, a stream separate from the
	// replica-choice rng so retries never perturb replica choices.
	retryMu  sync.Mutex
	retryRNG *rand.Rand

	mu     sync.Mutex
	nn     *transport.Client // current namenode conn; swapped by redialNN
	closed bool
	dns    map[string]*transport.Client
	rng    *rand.Rand

	// notifyMu guards the batch of cache-hit read notifications not yet
	// sent to the namenode.
	notifyMu      sync.Mutex
	pendingNotify map[dfs.JobID][]dfs.BlockID
	pendingCount  int
}

// New dials the namenode and returns a ready client.
func New(clock simclock.Clock, net transport.Network, nnAddr string, opts ...Option) (*Client, error) {
	c := &Client{
		clock:         clock,
		net:           net,
		nnAddr:        nnAddr,
		nnTimeout:     5 * time.Minute,
		nnAttempts:    DefaultNNAttempts,
		dns:           make(map[string]*transport.Client),
		rng:           rand.New(rand.NewSource(1)),
		retryRNG:      rand.New(rand.NewSource(1 ^ 0x7265747279)),
		readPar:       DefaultReadParallelism,
		readAhead:     DefaultReadAhead,
		writePar:      DefaultWriteParallelism,
		checksums:     true,
		pendingNotify: make(map[dfs.JobID][]dfs.BlockID),
	}
	for _, o := range opts {
		o(c)
	}
	nn, err := transport.Dial(clock, net, nnAddr, transport.WithCallTimeout(c.nnTimeout))
	if err != nil {
		return nil, fmt.Errorf("dfs client: %w", err)
	}
	c.nn = nn
	if c.cacheBytes > 0 {
		c.cache = blockcache.New(clock, c.cacheBytes)
	}
	return c, nil
}

// Close flushes pending read notifications and releases the namenode
// and datanode connections.
func (c *Client) Close() {
	c.FlushReadNotifications()
	c.mu.Lock()
	c.closed = true
	nn := c.nn
	dns := c.dns
	c.dns = make(map[string]*transport.Client)
	c.mu.Unlock()
	nn.Close()
	for _, dc := range dns {
		dc.Close()
	}
}

// ---- namespace operations ----

// Create starts a new file and returns a Writer for its content.
func (c *Client) Create(path string, blockSize int64, replication int) (*Writer, error) {
	_, err := callNNOnce[dfs.CreateResp](c, "nn.create", dfs.CreateReq{
		Path: path, BlockSize: blockSize, Replication: replication,
	})
	if err != nil {
		return nil, err
	}
	c.invalidateFile(path)
	info, err := c.Info(path)
	if err != nil {
		return nil, err
	}
	return newWriter(c, path, info.BlockSize), nil
}

// Info fetches file metadata.
func (c *Client) Info(path string) (dfs.FileInfo, error) {
	resp, err := callNN[dfs.GetInfoResp](c, "nn.getInfo", dfs.GetInfoReq{Path: path})
	if err != nil {
		return dfs.FileInfo{}, err
	}
	return resp.Info, nil
}

// Locations fetches the block layout of a file.
func (c *Client) Locations(path string) ([]dfs.LocatedBlock, error) {
	return c.LocationsForJob(path, "")
}

// LocationsForJob fetches the block layout with each block annotated
// with the replica Ignem assigned to job's migration (if any).
func (c *Client) LocationsForJob(path string, job dfs.JobID) ([]dfs.LocatedBlock, error) {
	resp, err := callNN[dfs.GetLocationsResp](c, "nn.getLocations", dfs.GetLocationsReq{Path: path, Job: job})
	if err != nil {
		return nil, err
	}
	return resp.Blocks, nil
}

// Delete removes a file from the namespace. Any blocks of path held in
// the client's block cache are dropped.
func (c *Client) Delete(path string) error {
	_, err := callNNOnce[dfs.DeleteResp](c, "nn.delete", dfs.DeleteReq{Path: path})
	c.invalidateFile(path)
	return err
}

// List returns metadata for files whose path starts with prefix.
func (c *Client) List(prefix string) ([]dfs.FileInfo, error) {
	resp, err := callNN[dfs.ListResp](c, "nn.list", dfs.ListReq{Prefix: prefix})
	if err != nil {
		return nil, err
	}
	return resp.Files, nil
}

// ---- the Ignem extension ----

// Migrate asks Ignem to move the inputs of job into memory ahead of its
// reads. This is the one call a job submitter adds. implicit opts into
// implicit eviction (drop on first read).
// Migration changes where a block should be read from (pinned memory vs
// disk), so cached copies of the affected paths are dropped: the next
// read re-fetches and observes the new placement.
func (c *Client) Migrate(job dfs.JobID, paths []string, implicit bool) (dfs.MigrateResp, error) {
	resp, err := callNNOnce[dfs.MigrateResp](c, "nn.migrate", dfs.MigrateReq{
		Job: job, Paths: paths, Implicit: implicit, SubmitTime: c.clock.Now(),
	})
	c.invalidatePaths(paths)
	return resp, err
}

// Evict tells Ignem the job is done with its inputs. The returned count
// is how many block evict notifications the master issued to its slaves.
// Cached copies of the paths are dropped alongside, so later reads
// observe the post-eviction placement.
func (c *Client) Evict(job dfs.JobID, paths []string) (int, error) {
	// The job is finishing with these inputs: push any pending cache-hit
	// read notifications first so the master's reference lists see every
	// read before the explicit eviction.
	c.FlushReadNotifications()
	resp, err := callNNOnce[dfs.EvictResp](c, "nn.evict", dfs.EvictReq{Job: job, Paths: paths})
	c.invalidatePaths(paths)
	return resp.Blocks, err
}

// ---- read path ----

// ReadBlock reads one located block on behalf of job. Replica choice
// honours the paper's locality preferences: the Ignem-assigned copy when
// pinned, then a migrated copy, then a local copy, then a random
// replica. A failed replica is forgotten and the read transparently
// fails over to the remaining holders.
func (c *Client) ReadBlock(lb dfs.LocatedBlock, job dfs.JobID) (dfs.ReadBlockResp, error) {
	return c.readBlockVia("", lb, job, c.chooseReplica(lb))
}

// readBlockFrom1st is the uncached block read with the first replica
// already chosen. The striped read path and the Reader's prefetcher
// pre-choose replicas on the issuing goroutine so the seeded
// replica-choice rng is drawn in block order, keeping simulations
// deterministic regardless of how the worker goroutines are scheduled.
// It also reports which datanode served the block, so the block cache
// can invalidate by address when a node fails.
func (c *Client) readBlockFrom1st(lb dfs.LocatedBlock, job dfs.JobID, first string) (dfs.ReadBlockResp, string, error) {
	if first == "" {
		return dfs.ReadBlockResp{}, "", fmt.Errorf("dfs client: block %d has no live replica", lb.Block.ID)
	}
	// Happy path first, without building a candidate list: block reads
	// almost always succeed on the chosen replica, and the list showed up
	// as a per-read allocation in read-path profiles.
	resp, err := c.readBlockFrom(first, lb, job)
	if err == nil {
		return resp, first, nil
	}
	lastErr := err
	// The replica is unreachable or lost the block; drop the cached
	// connection so a later retry re-dials, and try the other holders.
	c.ForgetDataNode(first)
	for _, addr := range lb.Nodes {
		if addr == first {
			continue
		}
		resp, err := c.readBlockFrom(addr, lb, job)
		if err == nil {
			return resp, addr, nil
		}
		lastErr = err
		c.ForgetDataNode(addr)
	}
	return dfs.ReadBlockResp{}, "", fmt.Errorf("dfs client: block %d unreadable from all replicas: %w", lb.Block.ID, lastErr)
}

func (c *Client) readBlockFrom(addr string, lb dfs.LocatedBlock, job dfs.JobID) (dfs.ReadBlockResp, error) {
	dc, err := c.datanode(addr)
	if err != nil {
		return dfs.ReadBlockResp{}, err
	}
	local := addr == c.localAddr
	// Every served byte is verified once, by the last party that can:
	// when this read will hold the bytes to the namenode-recorded CRC the
	// request says so and the datanode skips its own pass; otherwise the
	// datanode verifies before serving.
	verify := c.checksums && lb.Checksum != 0
	start := c.clock.Now()
	resp, err := transport.Call[dfs.ReadBlockResp](dc, "dn.readBlock", dfs.ReadBlockReq{
		Block: lb.Block.ID, Job: job, Local: local, ReaderVerifies: verify,
	})
	if err != nil {
		return dfs.ReadBlockResp{}, fmt.Errorf("dfs client: read block %d from %s: %w", lb.Block.ID, addr, err)
	}
	// Payload length is part of replica health: ReadFile lays each block
	// at the offset its located size implies, so a replica that returns
	// any other number of bytes is as wrong as one that fails its CRC,
	// and is the only check left when checksums are off. A synthetic
	// block (no bytes, no checksum) has nothing to measure.
	if n := int64(len(resp.Data)); n != lb.Block.Size && (n > 0 || lb.Checksum != 0) {
		resp.Release()
		if verify {
			secondOpinion(dc, lb.Block.ID)
		}
		return dfs.ReadBlockResp{}, fmt.Errorf("dfs client: read block %d from %s: %w: got %d bytes, want %d",
			lb.Block.ID, addr, dfs.ErrBlockLength, n, lb.Block.Size)
	}
	// End-to-end verification: the returned bytes must match the CRC the
	// writer recorded at allocation time — rot at rest, a stored checksum
	// (wrongly) recomputed after the damage, or corruption on the wire. A
	// mismatch counts as a failed replica, so the caller fails over.
	if verify && len(resp.Data) > 0 && dfs.Checksum(resp.Data) != lb.Checksum {
		resp.Release()
		c.checksumFailures.Add(1)
		secondOpinion(dc, lb.Block.ID)
		return dfs.ReadBlockResp{}, fmt.Errorf("dfs client: read block %d from %s: %w", lb.Block.ID, addr, dfs.ErrChecksum)
	}
	if c.observer != nil {
		c.observer(BlockReadEvent{
			Block:      lb.Block.ID,
			Size:       resp.Size,
			Duration:   c.clock.Now().Sub(start),
			FromMemory: resp.FromMemory,
			Addr:       addr,
			Local:      local,
			Job:        job,
		})
	}
	return resp, nil
}

// secondOpinion asks the holder of a replica that failed this client's
// check to verify its stored copy (dn.verifyBlock), so that rot at rest
// is dropped, reported and re-replicated by the party that can tell it
// from corruption on the wire. It runs on the connection the bytes came
// over, before the caller's failover forgets it. Best effort: a holder
// that is gone, or predates the RPC, changes nothing about the failover.
func secondOpinion(dc *transport.Client, id dfs.BlockID) {
	_, _ = transport.Call[dfs.VerifyBlockResp](dc, "dn.verifyBlock", dfs.VerifyBlockReq{Block: id})
}

// chooseReplica applies migration-aware locality preferences: the
// Ignem-assigned replica when its copy is already pinned (or when it is
// this very node), then any pinned copy, then an SSD-resident copy,
// then a local replica, then any. A not-yet-pinned assigned copy on
// another node is NOT preferred over a local disk replica: a local disk
// read is cheaper than a remote one. The SSD slot draws from the rng
// only when OnSSD is non-empty, so clusters without an SSD tier see
// exactly the legacy draw sequence.
func (c *Client) chooseReplica(lb dfs.LocatedBlock) string {
	if lb.Assigned != "" {
		if lb.Assigned == c.localAddr || contains(lb.Migrated, lb.Assigned) {
			return lb.Assigned
		}
	}
	if c.localAddr != "" {
		for _, a := range lb.Migrated {
			if a == c.localAddr {
				return a
			}
		}
	}
	if len(lb.Migrated) > 0 {
		return c.pick(lb.Migrated)
	}
	if c.localAddr != "" {
		for _, a := range lb.OnSSD {
			if a == c.localAddr {
				return a
			}
		}
	}
	if len(lb.OnSSD) > 0 {
		return c.pick(lb.OnSSD)
	}
	if c.localAddr != "" {
		for _, a := range lb.Nodes {
			if a == c.localAddr {
				return a
			}
		}
	}
	if len(lb.Nodes) > 0 {
		return c.pick(lb.Nodes)
	}
	return ""
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func (c *Client) pick(addrs []string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return addrs[c.rng.Intn(len(addrs))]
}

// DefaultReadParallelism is how many blocks ReadFile keeps in flight
// unless WithReadParallelism overrides it.
const DefaultReadParallelism = 4

// DefaultReadAhead is how many blocks beyond the current one a Reader
// prefetches unless WithReadAhead overrides it.
const DefaultReadAhead = 2

// ReadFile reads a whole file on behalf of job and returns its real
// bytes (nil for synthetic files). Blocks are fetched by a bounded
// worker pool (WithReadParallelism, default 4) striped across the file,
// so independent replicas stream concurrently; bytes are assembled in
// block order. Each block keeps the usual migration-aware replica choice
// and per-block failover.
func (c *Client) ReadFile(path string, job dfs.JobID) ([]byte, error) {
	blocks, err := c.Locations(path)
	if err != nil {
		return nil, err
	}
	return c.readBlocksPath(path, blocks, job)
}

// ReadBlocks fetches the given blocks with the client's read parallelism
// and returns their bytes concatenated in slice order.
func (c *Client) ReadBlocks(blocks []dfs.LocatedBlock, job dfs.JobID) ([]byte, error) {
	return c.readBlocksPath("", blocks, job)
}

// readBlocksPath is ReadBlocks with the owning file known, so cache
// entries installed here can be invalidated when that file mutates.
//
// The result is assembled in place: every block's offset is known from
// its located size before the first byte arrives, so each fetch copies
// its payload to its slot and gives the buffer up at once. Nothing is
// held until the last block lands and nothing is grown.
func (c *Client) readBlocksPath(path string, blocks []dfs.LocatedBlock, job dfs.JobID) ([]byte, error) {
	asm := newAssembly(blocks)
	par := c.readPar
	if par > len(blocks) {
		par = len(blocks)
	}
	if par <= 1 {
		for i, lb := range blocks {
			resp, err := c.readBlockVia(path, lb, job, c.chooseReplica(lb))
			if err != nil {
				return nil, err
			}
			asm.place(i, &resp)
		}
		return asm.result()
	}

	// Pre-choose every block's first replica on this goroutine so the
	// seeded rng is consumed in block order (determinism), then let the
	// pool race over the block list via a shared cursor.
	firsts := make([]string, len(blocks))
	for i, lb := range blocks {
		firsts[i] = c.chooseReplica(lb)
	}
	errs := make([]error, len(blocks))
	var cursor atomic.Int64
	var failed atomic.Bool
	wg := simclock.NewWaitGroup(c.clock)
	for w := 0; w < par; w++ {
		wg.Go(func() {
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(blocks) || failed.Load() {
					return
				}
				resp, err := c.readBlockVia(path, blocks[i], job, firsts[i])
				if err != nil {
					errs[i] = err
					failed.Store(true) // stop issuing new fetches
					continue
				}
				asm.place(i, &resp)
			}
		})
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return asm.result()
}

// assembly lays fetched blocks into one result slice. The slice is
// allocated on the first real payload, at the size the located blocks
// add up to: a synthetic (size-only) file never allocates and reads as
// nil, however large it claims to be.
type assembly struct {
	offs  []int64 // block i fills out[offs[i]:offs[i+1]]
	once  sync.Once
	out   []byte
	empty atomic.Int64 // blocks that came back without bytes
}

func newAssembly(blocks []dfs.LocatedBlock) *assembly {
	a := &assembly{offs: make([]int64, len(blocks)+1)}
	for i, lb := range blocks {
		a.offs[i+1] = a.offs[i] + lb.Block.Size
	}
	return a
}

// place copies block i's payload to its slot and releases the response:
// a pooled TCP buffer goes back to the pool here, not when the whole
// read ends. readBlockFrom has already held the payload to the located
// size. Safe for concurrent use on distinct blocks.
func (a *assembly) place(i int, resp *dfs.ReadBlockResp) {
	if len(resp.Data) == 0 {
		a.empty.Add(1)
		return
	}
	a.once.Do(func() { a.out = make([]byte, a.offs[len(a.offs)-1]) })
	copy(a.out[a.offs[i]:a.offs[i+1]], resp.Data)
	resp.Release()
}

// result returns the assembled bytes, or nil when every block was
// synthetic. Real and size-only blocks cannot share a file, so a mix
// would leave a hole of zeros in the result and is an error.
func (a *assembly) result() ([]byte, error) {
	if a.out != nil && a.empty.Load() > 0 {
		return nil, fmt.Errorf("dfs client: %d blocks returned no bytes in a file with real data: %w", a.empty.Load(), dfs.ErrBlockLength)
	}
	return a.out, nil
}

// ChecksumFailures reports how many block reads failed end-to-end
// checksum verification (each triggered a replica failover).
func (c *Client) ChecksumFailures() int64 { return c.checksumFailures.Load() }

// datanode returns a cached (or fresh) connection to addr.
func (c *Client) datanode(addr string) (*transport.Client, error) {
	c.mu.Lock()
	if dc, ok := c.dns[addr]; ok {
		c.mu.Unlock()
		return dc, nil
	}
	c.mu.Unlock()

	dc, err := transport.Dial(c.clock, c.net, addr, transport.WithCallTimeout(dfs.DefaultDataNodeTimeout))
	if err != nil {
		return nil, fmt.Errorf("dfs client: dial %s: %w", addr, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if existing, ok := c.dns[addr]; ok {
		defer dc.Close()
		return existing, nil
	}
	c.dns[addr] = dc
	return dc, nil
}

// ForgetDataNode drops the cached connection to addr (used after a node
// failure so later reads re-dial a live replica) and evicts every block
// the shared cache holds from that node.
func (c *Client) ForgetDataNode(addr string) {
	c.mu.Lock()
	if dc, ok := c.dns[addr]; ok {
		dc.Close()
		delete(c.dns, addr)
	}
	c.mu.Unlock()
	if c.cache != nil {
		c.cache.InvalidateAddr(addr)
	}
}
