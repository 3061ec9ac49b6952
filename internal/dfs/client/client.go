// Package client implements the DFSClient used by jobs: namespace
// operations, the block write and read paths, and the paper's Migrate and
// Evict extension — the single call a job submitter adds to use Ignem.
package client

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockcache"
	"repro/internal/bufpool"
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
// Striped reads invoke it from multiple goroutines; the callback must
// do its own locking.
func WithReadObserver(fn func(BlockReadEvent)) Option {
	return func(c *Client) { c.observer = fn }
}

// Client is a DFS client handle. It is safe for concurrent use.
type Client struct {
	clock      simclock.Clock
	net        transport.Network
	nnAddr     string
	localAddr  string
	observer   func(BlockReadEvent)
	cacheBytes int64
	cache      *blockcache.Cache

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
		dns:           make(map[string]*transport.Client),
		rng:           rand.New(rand.NewSource(1)),
		retryRNG:      rand.New(rand.NewSource(1 ^ 0x7265747279)), // "retry"
		pendingNotify: make(map[dfs.JobID][]dfs.BlockID),
	}
	for _, o := range opts {
		o(c)
	}
	nn, err := transport.Dial(clock, net, nnAddr, transport.WithCallTimeout(DefaultNNTimeout))
	if err != nil {
		return nil, fmt.Errorf("dfs client: %w", err)
	}
	c.nn = nn
	if c.cacheBytes > 0 {
		c.cache = blockcache.New(clock, c.cacheBytes)
	}
	return c, nil
}

// Close flushes pending read notifications, releases the namenode and
// datanode connections and closes the block cache, whose memory goes
// back to the system once every response still holding a hit is
// released.
func (c *Client) Close() {
	c.FlushReadNotifications()
	if c.cache != nil {
		c.cache.Close()
	}
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

// create starts a new file and returns a writer for its content.
func (c *Client) create(path string, blockSize int64, replication int) (*writer, error) {
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
	return c.LocationsInRange(path, job, 0, 0)
}

// LocationsInRange is LocationsForJob restricted to the blocks that
// overlap the byte range [offset, offset+length) of path; length 0
// means to the end of the file. A range starting at or past the end
// yields no blocks.
func (c *Client) LocationsInRange(path string, job dfs.JobID, offset, length int64) ([]dfs.LocatedBlock, error) {
	resp, err := callNN[dfs.GetLocationsResp](c, "nn.getLocations", dfs.GetLocationsReq{
		Path: path, Job: job, Offset: offset, Length: length,
	})
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
// fails over to the remaining holders. The caller owns the response and
// calls its Release once when done with Data: a block-cache hit holds a
// reference to the cache's slot, which stays pinned until then.
func (c *Client) ReadBlock(lb dfs.LocatedBlock, job dfs.JobID) (dfs.ReadBlockResp, error) {
	return c.readBlockVia("", lb, job, c.chooseReplica(lb), nil)
}

// readBlockFrom1st is the uncached block read with the first replica
// already chosen. ReadFile pre-chooses replicas on the calling
// goroutine so the seeded replica-choice rng is drawn in block order,
// keeping simulations deterministic regardless of how the worker
// goroutines are scheduled.
// It also reports which datanode served the block, so the block cache
// can invalidate by address when a node fails. dst is the read's
// destination (see readBlockFrom); every replica tried gets the same
// one, so a failover simply overwrites what a failed replica left.
func (c *Client) readBlockFrom1st(lb dfs.LocatedBlock, job dfs.JobID, first string, dst []byte) (dfs.ReadBlockResp, string, error) {
	if first == "" {
		return dfs.ReadBlockResp{}, "", fmt.Errorf("dfs client: block %d has no live replica", lb.Block.ID)
	}
	// Happy path first, without building a candidate list: block reads
	// almost always succeed on the chosen replica, and the list showed up
	// as a per-read allocation in read-path profiles.
	resp, err := c.readBlockFrom(first, lb, job, dst)
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
		resp, err := c.readBlockFrom(addr, lb, job, dst)
		if err == nil {
			return resp, addr, nil
		}
		lastErr = err
		c.ForgetDataNode(addr)
	}
	return dfs.ReadBlockResp{}, "", fmt.Errorf("dfs client: block %d unreadable from all replicas: %w", lb.Block.ID, lastErr)
}

// readBlockFrom reads one block from the replica at addr and checks it
// end to end. The writer computes a CRC32C per real-data block, records
// it at the namenode during allocation, and ships it with the block;
// this read verifies the returned bytes against the located block's
// checksum, and a mismatch fails over to another replica after asking
// the holder to judge its stored copy (dn.verifyBlock). Each served
// block is verified once, by the last party that can: a read that will
// check the bytes says so in its request and the datanode skips its own
// pass; a block without a recorded checksum is verified by the datanode
// against its own write-time CRC before it serves. Synthetic
// (size-only) blocks carry no bytes and no checksum.
//
// dst, when not nil, is where the caller wants the bytes: a reply of
// exactly len(dst) bytes is received straight into it, and the response
// borrows it (Pooled is false); any other reply arrives as under a nil
// dst, and the caller copies.
func (c *Client) readBlockFrom(addr string, lb dfs.LocatedBlock, job dfs.JobID, dst []byte) (dfs.ReadBlockResp, error) {
	dc, err := c.datanode(addr)
	if err != nil {
		return dfs.ReadBlockResp{}, err
	}
	local := addr == c.localAddr
	verify := lb.Checksum != 0
	start := c.clock.Now()
	resp, err := transport.CallInto[dfs.ReadBlockResp](dc, "dn.readBlock", dfs.ReadBlockReq{
		Block: lb.Block.ID, Job: job, Local: local, ReaderVerifies: verify,
	}, dst)
	if err != nil {
		return dfs.ReadBlockResp{}, fmt.Errorf("dfs client: read block %d from %s: %w", lb.Block.ID, addr, err)
	}
	// Payload length is part of replica health: ReadFile lays each block
	// at the offset its located size implies, so a replica that returns
	// any other number of bytes is as wrong as one that fails its CRC. A
	// synthetic block (no bytes, no checksum) has nothing to measure.
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
	// mismatch counts as a failed replica, so the caller fails over. The
	// transport summed the bytes as they landed, so this check makes no
	// second pass over them.
	if verify && len(resp.Data) > 0 && resp.DataSum() != lb.Checksum {
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
// Ignem-assigned replica when it is this very node or already pinned in
// RAM, then one walk down the tiers from RAM to HDD, where a local
// replica at the tier wins and otherwise the rng draws among the
// tier's replicas in Nodes order. A not-yet-pinned assigned copy on
// another node is NOT preferred over a local disk replica: a local disk
// read is cheaper than a remote one. A tier with no replica makes no
// draw, so a cluster without an SSD tier never draws for it.
func (c *Client) chooseReplica(lb dfs.LocatedBlock) string {
	if i := slices.Index(lb.Nodes, lb.Assigned); lb.Assigned != "" &&
		(lb.Assigned == c.localAddr || i >= 0 && lb.TierAt(i) == dfs.TierRAM) {
		return lb.Assigned
	}
	for t := dfs.TierRAM; t >= dfs.TierHDD; t-- {
		n := 0
		for i, a := range lb.Nodes {
			if lb.TierAt(i) == t {
				if a == c.localAddr {
					return a
				}
				n++
			}
		}
		if n == 0 {
			continue
		}
		k := c.pick(n)
		for i, a := range lb.Nodes {
			if lb.TierAt(i) == t {
				if k == 0 {
					return a
				}
				k--
			}
		}
	}
	return ""
}

// pick draws a replica index in [0, n) from the replica-choice rng.
func (c *Client) pick(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Intn(n)
}

// DefaultReadParallelism is how many blocks ReadFile keeps in flight.
const DefaultReadParallelism = 4

// ReadFile reads a whole file on behalf of job and returns its real
// bytes (nil for synthetic files). Blocks are fetched by a worker pool
// of min(DefaultReadParallelism, blocks) striped across the file, so
// independent replicas stream concurrently; bytes are assembled in
// block order. Each block keeps the usual migration-aware replica choice
// and per-block failover.
//
// The result is assembled in place: every block's offset is known from
// its located size before the first byte arrives. A file with real
// bytes (any block carries a recorded checksum) allocates the result up
// front and gives each fetch its slot as the destination, so the
// transport fills the result directly and no other user-space copy is
// made besides the checksum. A payload that arrived anywhere else (a
// cache hit, a conn that does not forward destinations, a reply of the
// wrong length) is copied to its slot and its buffer given up at once.
// Nothing is held until the last block lands and nothing is grown.
//
// The result is allocated without zero-fill (bufpool.MakeNoZero): each
// byte is written once, by the socket or the copy. A result is returned
// only when every slot was written: a block that failed on every
// replica fails the read, a payload reaches its slot only at exactly
// its located size (and, when checksummed, matching its CRC), and a
// block that came back without bytes in a file with real data is
// dfs.ErrBlockLength. A failed read returns a nil result, never the
// partly written one.
func (c *Client) ReadFile(path string, job dfs.JobID) ([]byte, error) {
	blocks, err := c.Locations(path)
	if err != nil {
		return nil, err
	}
	asm := newAssembly(blocks)
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
	worker := func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(blocks) || failed.Load() {
				return
			}
			resp, err := c.readBlockVia(path, blocks[i], job, firsts[i], asm.slot(i))
			if err != nil {
				errs[i] = err
				failed.Store(true) // stop issuing new fetches
				continue
			}
			asm.place(i, &resp)
		}
	}
	// A pool of one worker is the caller itself: a one-block (or empty)
	// file spawns nothing.
	if par := min(DefaultReadParallelism, len(blocks)); par <= 1 {
		worker()
	} else {
		wg := simclock.NewWaitGroup(c.clock)
		for w := 0; w < par; w++ {
			wg.Go(worker)
		}
		wg.Wait()
	}

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return asm.result()
}

// assembly lays fetched blocks into one result slice, at the size the
// located blocks add up to. A file with a recorded checksum has real
// bytes and allocates it up front; one without allocates it on the
// first real payload, so a synthetic (size-only) file never allocates
// and reads as nil, however large it claims to be. The result is not
// zeroed: its contents are unspecified until every block is placed,
// and result hands it out only then (see ReadFile).
type assembly struct {
	offs    []int64 // block i fills out[offs[i]:offs[i+1]]
	once    sync.Once
	out     []byte
	upfront bool         // out was allocated before any fetch: slots are destinations
	empty   atomic.Int64 // blocks that came back without bytes
}

func newAssembly(blocks []dfs.LocatedBlock) *assembly {
	a := &assembly{offs: make([]int64, len(blocks)+1)}
	for i, lb := range blocks {
		a.offs[i+1] = a.offs[i] + lb.Block.Size
		a.upfront = a.upfront || lb.Checksum != 0
	}
	if a.upfront {
		a.alloc()
	}
	return a
}

func (a *assembly) alloc() {
	a.once.Do(func() { a.out = bufpool.MakeNoZero(int(a.offs[len(a.offs)-1])) })
}

// slot is block i's destination: its part of the result, capped so
// nothing can grow past it, when the result was allocated up front, and
// nil otherwise.
func (a *assembly) slot(i int) []byte {
	if !a.upfront {
		return nil
	}
	return a.out[a.offs[i]:a.offs[i+1]:a.offs[i+1]]
}

// place lays block i's payload in its slot and releases the response: a
// payload received into the slot is already there, and any other is
// copied, a pooled buffer going back to the pool here rather than
// when the whole read ends. readBlockFrom has already held the payload
// to the located size. Safe for concurrent use on distinct blocks.
func (a *assembly) place(i int, resp *dfs.ReadBlockResp) {
	if len(resp.Data) == 0 {
		a.empty.Add(1)
		return
	}
	a.alloc()
	if slot := a.out[a.offs[i]:a.offs[i+1]]; len(slot) == 0 || &slot[0] != &resp.Data[0] {
		copy(slot, resp.Data)
	}
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
