package namenode

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"repro/internal/dfs"
)

// memNamespace is the metadata plane behind the NameNode's RPC
// handlers: the file table, the block map, and replica placement, under
// one lock with one seeded placement rng. The NameNode keeps everything
// that talks to the outside world — the datanode registry, RPC
// plumbing, the Ignem master — and delegates every metadata mutation
// and lookup here.
type memNamespace struct {
	place placeFunc
	// table interns datanode addresses for the compact block map.
	table *nodeTable

	// mu guards the namespace: files, blocks (and each blockMeta's
	// contents), and nextBlock. Metadata lookups (Info, Resolve, List)
	// take it in read mode so they never contend with each other.
	mu     sync.RWMutex
	files  map[string]*fileEntry
	blocks map[dfs.BlockID]*blockMeta
	// pins holds fast-tier residency, indexed by dfs.Tier: which
	// datanodes hold which blocks pinned in RAM or resident on SSD.
	// pins[dfs.TierHDD] stays nil: the replica set is the base tier.
	pins [dfs.TierRAM + 1]pinMap
	// sums is the sparse write-time checksum map. A side map, not a
	// blockMeta field: most experiment blocks are synthetic and
	// unchecksummed, and blockMeta's flat size class is budget-gated.
	sums      map[dfs.BlockID]uint32
	nextBlock dfs.BlockID

	// The replication sweep's queue (see RepairScan). suspects lists,
	// once each (blockMeta.queued), the blocks whose replica set or
	// healing mark changed since the last sweep, plus the short blocks
	// it found no candidate for; entries of deleted blocks are skipped.
	// Nothing is queued before the first sweep, which scans every block.
	suspects []dfs.BlockID
	swept    bool
	// alive is the last sweep's liveness by node ID; aliveNext is the
	// buffer the next sweep builds its own in.
	alive, aliveNext []bool
	// visits counts the blocks the sweeps have examined, for tests.
	visits int

	// rngMu guards the placement rng. It is a leaf lock: nothing else is
	// acquired while holding it except what placeFunc takes (the
	// registry lock, briefly, in read mode).
	rngMu sync.Mutex
	rng   *rand.Rand
}

func newMemNamespace(seed int64, place placeFunc) *memNamespace {
	return &memNamespace{
		place:  place,
		table:  newNodeTable(),
		files:  make(map[string]*fileEntry),
		blocks: make(map[dfs.BlockID]*blockMeta),
		pins:   [...]pinMap{dfs.TierSSD: make(pinMap), dfs.TierRAM: make(pinMap)},
		sums:   make(map[dfs.BlockID]uint32),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Create registers a new file with resolved (non-zero) block size and
// replication.
func (ns *memNamespace) Create(path string, blockSize int64, replication int) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if _, ok := ns.files[path]; ok {
		return fmt.Errorf("namenode: %s already exists", path)
	}
	ns.files[path] = &fileEntry{info: dfs.FileInfo{
		Path: path, BlockSize: blockSize, Replication: replication,
	}}
	return nil
}

// Allocate appends len(sizes) blocks to an open file, choosing replica
// targets for each, and returns the located blocks in order. sums
// carries the client-computed CRC32C per block (nil, or a slice
// parallel to sizes; zero entries mean unchecksummed) — the namespace
// records them so every later Resolve can hand readers the write-time
// checksum to verify against. reqID (when non-zero) keys a one-deep
// idempotency cache so a retried allocation after a lost reply returns
// the cached result instead of allocating twice.
func (ns *memNamespace) Allocate(path string, sizes []int64, sums []uint32, reqID uint64) ([]dfs.LocatedBlock, error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	f, ok := ns.files[path]
	if !ok {
		return nil, fmt.Errorf("namenode: no such file %s", path)
	}
	if f.info.Complete {
		return nil, fmt.Errorf("namenode: %s is sealed", path)
	}
	for _, size := range sizes {
		if size <= 0 || size > f.info.BlockSize {
			return nil, fmt.Errorf("namenode: bad block size %d (file block size %d)", size, f.info.BlockSize)
		}
	}
	if reqID != 0 && reqID == f.lastAllocID {
		return f.lastAlloc, nil
	}
	out := make([]dfs.LocatedBlock, 0, len(sizes))
	for i, size := range sizes {
		var sum uint32
		if i < len(sums) {
			sum = sums[i]
		}
		lb, err := ns.allocateBlockLocked(f, size, sum)
		if err != nil {
			return nil, err
		}
		out = append(out, lb)
	}
	if reqID != 0 {
		f.lastAllocID, f.lastAlloc = reqID, out
	}
	return out, nil
}

// allocateBlockLocked appends one block to f with freshly chosen replica
// targets. Called with mu held.
func (ns *memNamespace) allocateBlockLocked(f *fileEntry, size int64, sum uint32) (dfs.LocatedBlock, error) {
	targets := ns.chooseTargets(f.info.Replication, nil)
	if len(targets) == 0 {
		return dfs.LocatedBlock{}, fmt.Errorf("namenode: no live datanodes")
	}
	ns.nextBlock++
	b := dfs.Block{ID: ns.nextBlock, Size: size}
	meta := newBlockMeta(ns.table, size, f.info.Replication, targets)
	ns.blocks[b.ID] = meta
	ns.suspectLocked(b.ID, meta)
	if sum != 0 {
		ns.sums[b.ID] = sum
	}
	offset := f.info.Size
	f.blocks = append(f.blocks, b)
	f.info.Size += size
	return dfs.LocatedBlock{Block: b, Offset: offset, Checksum: sum, Nodes: targets}, nil
}

func (ns *memNamespace) chooseTargets(rep int, exclude []string) []string {
	ns.rngMu.Lock()
	defer ns.rngMu.Unlock()
	return ns.place(ns.rng, rep, exclude)
}

// Retarget replaces an allocated block's target set with a fresh
// placement avoiding the excluded nodes, preserving ID and offset.
func (ns *memNamespace) Retarget(path string, block dfs.BlockID, exclude []string) (dfs.LocatedBlock, error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	f, ok := ns.files[path]
	if !ok {
		return dfs.LocatedBlock{}, fmt.Errorf("namenode: no such file %s", path)
	}
	blk, offset, found := findBlock(f, block)
	if !found {
		return dfs.LocatedBlock{}, fmt.Errorf("namenode: block %d not in %s", block, path)
	}
	meta := ns.blocks[block]
	if meta == nil {
		return dfs.LocatedBlock{}, fmt.Errorf("namenode: block %d has no metadata", block)
	}
	targets := ns.chooseTargets(int(meta.want), exclude)
	if len(targets) == 0 {
		return dfs.LocatedBlock{}, fmt.Errorf("namenode: no live datanodes")
	}
	meta.nodes.reset(internAll(ns.table, targets))
	ns.suspectLocked(block, meta)
	return dfs.LocatedBlock{Block: blk, Offset: offset, Checksum: ns.sums[block], Nodes: targets}, nil
}

// Complete seals a file.
func (ns *memNamespace) Complete(path string) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	f, ok := ns.files[path]
	if !ok {
		return fmt.Errorf("namenode: no such file %s", path)
	}
	f.info.Complete = true
	return nil
}

// Info returns a file's metadata.
func (ns *memNamespace) Info(path string) (dfs.FileInfo, error) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	f, ok := ns.files[path]
	if !ok {
		return dfs.FileInfo{}, fmt.Errorf("namenode: no such file %s", path)
	}
	return f.info, nil
}

// Delete removes a file and its blocks, returning the replica deletion
// work per datanode address.
func (ns *memNamespace) Delete(path string) (map[string][]dfs.BlockID, error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	f, ok := ns.files[path]
	if !ok {
		return nil, fmt.Errorf("namenode: no such file %s", path)
	}
	delete(ns.files, path)
	toDelete := make(map[string][]dfs.BlockID)
	addrs := ns.table.addrsView()
	for _, b := range f.blocks {
		if meta := ns.blocks[b.ID]; meta != nil {
			for _, id := range meta.nodes.view() {
				toDelete[addrs[id]] = append(toDelete[addrs[id]], b.ID)
			}
		}
		delete(ns.blocks, b.ID)
		for _, p := range ns.pins[dfs.TierSSD:] {
			delete(p, b.ID)
		}
		delete(ns.sums, b.ID)
	}
	return toDelete, nil
}

// List returns the files under a path prefix, sorted by path.
func (ns *memNamespace) List(prefix string) []dfs.FileInfo {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	var out []dfs.FileInfo
	for path, f := range ns.files {
		if len(path) >= len(prefix) && path[:len(prefix)] == prefix {
			out = append(out, f.info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Resolve maps the blocks of a file that overlap the byte range
// [offset, offset+length) to their raw (liveness-unaware) replica
// holders and each holder's fastest tier; length 0 means to the end of
// the file. The caller filters against the registry. Only overlapping
// blocks are built, and the walk stops past the range, so locating one
// block costs one block however large the file.
func (ns *memNamespace) Resolve(path string, offset, length int64) ([]resolvedBlock, error) {
	if offset < 0 || length < 0 {
		return nil, fmt.Errorf("namenode: bad range offset %d length %d", offset, length)
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	f, ok := ns.files[path]
	if !ok {
		return nil, fmt.Errorf("namenode: no such file %s", path)
	}
	end := f.info.Size
	if length > 0 && length < end-offset {
		end = offset + length
	}
	var out []resolvedBlock
	if offset == 0 && end == f.info.Size {
		out = make([]resolvedBlock, 0, len(f.blocks))
	}
	var start int64
	addrs := ns.table.addrsView()
	for _, b := range f.blocks {
		if start >= end {
			break
		}
		if start+b.Size > offset {
			rb := resolvedBlock{block: b, offset: start, checksum: ns.sums[b.ID]}
			if meta := ns.blocks[b.ID]; meta != nil {
				rb.nodes = idAddrs(addrs, meta.nodes.view())
				slices.Sort(rb.nodes)
				rb.tiers = ns.tiersLocked(b.ID, rb.nodes, addrs)
			}
			out = append(out, rb)
		}
		start += b.Size
	}
	return out, nil
}

// tiersLocked returns the fastest tier of each of b's holders, or nil
// when none is above HDD. A pin from a node that does not hold the
// replica ranks nothing.
func (ns *memNamespace) tiersLocked(b dfs.BlockID, holders, addrs []string) []dfs.Tier {
	var tiers []dfs.Tier
	for t := dfs.TierSSD; t <= dfs.TierRAM; t++ { // faster tiers overwrite
		for _, id := range ns.pins[t].view(b) {
			if i := slices.Index(holders, addrs[id]); i >= 0 {
				if tiers == nil {
					tiers = make([]dfs.Tier, len(holders))
				}
				tiers[i] = t
			}
		}
	}
	return tiers
}

// Reconcile makes the location map agree with a datanode's actual
// replica inventory: entries it no longer holds are dropped (with their
// pins); entries it holds, for blocks the namespace still knows, are
// added back.
func (ns *memNamespace) Reconcile(addr string, held []dfs.BlockID) {
	node := ns.table.intern(addr)
	holds := make(map[dfs.BlockID]struct{}, len(held))
	for _, id := range held {
		holds[id] = struct{}{}
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for id, meta := range ns.blocks {
		if _, ok := holds[id]; ok {
			if meta.nodes.add(node) {
				ns.suspectLocked(id, meta)
			}
		} else {
			if meta.nodes.remove(node) {
				ns.suspectLocked(id, meta)
			}
			ns.dropPinLocked(id, node)
		}
	}
}

// ApplyReplicaDeltas applies an incremental block report: addr now also
// holds added and no longer holds removed. O(delta), never a full-table
// scan. A removed replica also drops the node's pins — storage gone
// means the pinned copy is gone too. Unknown block IDs are ignored (the
// namespace may have deleted the file since the datanode queued the
// delta).
func (ns *memNamespace) ApplyReplicaDeltas(addr string, added, removed []dfs.BlockID) {
	node := ns.table.intern(addr)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for _, b := range added {
		if meta := ns.blocks[b]; meta != nil && meta.nodes.add(node) {
			ns.suspectLocked(b, meta)
		}
	}
	for _, b := range removed {
		if meta := ns.blocks[b]; meta != nil {
			if meta.nodes.remove(node) {
				ns.suspectLocked(b, meta)
			}
			ns.dropPinLocked(b, node)
		}
	}
}

// dropPinLocked drops node's residency of b on every fast tier.
func (ns *memNamespace) dropPinLocked(b dfs.BlockID, node nodeID) {
	for _, p := range ns.pins[dfs.TierSSD:] {
		p.remove(b, node)
	}
}

// TierDeltas applies a heartbeat's residency deltas at a fast tier:
// the blocks addr now holds pinned there, and those it released.
func (ns *memNamespace) TierDeltas(addr string, tier dfs.Tier, pinned, unpinned []dfs.BlockID) {
	id := ns.table.intern(addr)
	p := ns.pins[tier]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for _, b := range pinned {
		if _, ok := ns.blocks[b]; ok {
			p.add(b, id)
		}
	}
	for _, b := range unpinned {
		p.remove(b, id)
	}
}

// Resident reports whether the datanode at addr holds block resident
// at a fast tier, per the heartbeat-maintained side tables (never at
// TierHDD, which has none). Master recovery reconciles the replayed
// journal against this authoritative view: pin and unpin deltas the
// dead master consumed without journaling are still reflected here.
func (ns *memNamespace) Resident(block dfs.BlockID, addr string, tier dfs.Tier) bool {
	id, ok := ns.table.lookup(addr)
	if !ok {
		return false
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return ns.pins[tier].has(block, id)
}

// DropPinned drops all pinned state (both fast tiers) for the given
// (dead) datanodes. Addresses the node table never saw hold no pins.
func (ns *memNamespace) DropPinned(addrs []string) {
	ids := make([]nodeID, 0, len(addrs))
	for _, a := range addrs {
		if id, ok := ns.table.lookup(a); ok {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for _, p := range ns.pins[dfs.TierSSD:] {
		p.dropNodes(ids)
	}
}

// RepairScan finds under-replicated blocks given the current liveness
// map: for each block with fewer live replicas than its file requested,
// a live non-holder is chosen to pull a copy from a surviving holder,
// and the block is marked healing. The caller runs the pulls and
// reports back through RepairDone. The seeded draws are made block by
// block in ID order, each from sorted holder and candidate lists, and
// the jobs come back in that order, so a seed fixes which block gets
// which pull however the block map iterates.
//
// Like HDFS's queue of blocks needing replication, the sweep examines
// only the queued suspects. A block's shortness depends only on its
// replica set, its healing mark and the liveness of its holders, and
// every change to the first two queues the block, so when liveness by
// node ID is what the last sweep saw, no unqueued block can be short.
// The first sweep, and any sweep whose liveness differs, scans every
// block instead. Either way the short blocks, and so the jobs and the
// draws, are exactly those of a full scan.
func (ns *memNamespace) RepairScan(live map[string]bool) []repairJob {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	addrs := ns.table.addrsView()
	// Liveness by node ID, built once per sweep, so checking a holder is
	// an index rather than a string-map lookup.
	alive := ns.aliveNext[:0]
	for _, addr := range addrs {
		alive = append(alive, live[addr])
	}
	full := !ns.swept || !slices.Equal(alive, ns.alive)
	ns.alive, ns.aliveNext, ns.swept = alive, ns.alive, true
	queued := ns.suspects
	for _, id := range queued {
		if meta := ns.blocks[id]; meta != nil {
			meta.queued = false
		}
	}
	ns.suspects = queued[:0]
	var short []dfs.BlockID
	if full {
		for id, meta := range ns.blocks {
			if ns.shortLocked(meta, alive) {
				short = append(short, id)
			}
		}
	} else {
		for _, id := range queued {
			if meta := ns.blocks[id]; meta != nil && ns.shortLocked(meta, alive) {
				short = append(short, id)
			}
		}
	}
	if len(short) == 0 {
		return nil
	}
	slices.Sort(short)
	var liveAddrs []string
	for addr, ok := range live {
		if ok {
			liveAddrs = append(liveAddrs, addr)
		}
	}
	sort.Strings(liveAddrs)
	var jobs []repairJob
	for _, id := range short {
		meta := ns.blocks[id]
		var holders []string
		for _, nid := range meta.nodes.view() {
			if alive[nid] {
				holders = append(holders, addrs[nid])
			}
		}
		sort.Strings(holders)
		var candidates []string
		for _, addr := range liveAddrs {
			if nid, known := ns.table.lookup(addr); !known || !meta.nodes.contains(nid) {
				candidates = append(candidates, addr)
			}
		}
		if len(candidates) == 0 {
			ns.suspectLocked(id, meta) // look again next sweep
			continue
		}
		ns.rngMu.Lock()
		target := candidates[ns.rng.Intn(len(candidates))]
		source := holders[ns.rng.Intn(len(holders))]
		ns.rngMu.Unlock()
		meta.healing = true
		jobs = append(jobs, repairJob{
			block:  dfs.Block{ID: id, Size: meta.size},
			source: source,
			target: target,
		})
	}
	return jobs
}

// RepairDone clears a block's healing mark; on ok the target is
// recorded as a replica holder.
func (ns *memNamespace) RepairDone(block dfs.BlockID, target string, ok bool) {
	id := ns.table.intern(target)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	meta := ns.blocks[block]
	if meta == nil {
		return
	}
	meta.healing = false
	if ok {
		meta.nodes.add(id)
	}
	ns.suspectLocked(block, meta)
}

// suspectLocked queues a block for the next replication sweep, once.
// Called with mu held.
func (ns *memNamespace) suspectLocked(id dfs.BlockID, meta *blockMeta) {
	if ns.swept && !meta.queued {
		meta.queued = true
		ns.suspects = append(ns.suspects, id)
	}
}

// shortLocked reports whether a block is under-replicated and not
// already healing: some, but fewer than wanted, of its holders are
// alive. It allocates nothing, as nearly every block it sees is
// healthy. Called with mu held.
func (ns *memNamespace) shortLocked(meta *blockMeta, alive []bool) bool {
	ns.visits++
	if meta.healing {
		return false
	}
	n := 0
	for _, nid := range meta.nodes.view() {
		if alive[nid] {
			n++
		}
	}
	return n > 0 && n < int(meta.want)
}

// findBlock locates a block in a file's block list, returning its copy
// and byte offset.
func findBlock(f *fileEntry, id dfs.BlockID) (dfs.Block, int64, bool) {
	var offset int64
	for _, b := range f.blocks {
		if b.ID == id {
			return b, offset, true
		}
		offset += b.Size
	}
	return dfs.Block{}, 0, false
}

// newBlockMeta builds a block-map entry with the given replica targets
// interned through t.
func newBlockMeta(t *nodeTable, size int64, want int, targets []string) *blockMeta {
	meta := &blockMeta{size: size, want: uint16(want)}
	meta.nodes.reset(internAll(t, targets))
	return meta
}

// internAll interns a target list, preserving order.
func internAll(t *nodeTable, addrs []string) []nodeID {
	out := make([]nodeID, len(addrs))
	for i, a := range addrs {
		out[i] = t.intern(a)
	}
	return out
}

// idAddrs maps node IDs back to address strings through an addrsView
// snapshot.
func idAddrs(addrs []string, ids []nodeID) []string {
	if len(ids) == 0 {
		return nil
	}
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, addrs[id])
	}
	return out
}
