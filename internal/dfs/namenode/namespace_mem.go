package namenode

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/dfs"
)

// memNamespace is the historical unsharded namespace: one lock over the
// file table and block map, one seeded placement rng. It is the
// reference implementation the sharded plane is measured against —
// shardedNamespace at shard count 1 must be operation-for-operation
// equivalent, including the placement rng draws.
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
	pins   pinMap
	// ssd mirrors pins for the flash tier: which datanodes hold which
	// blocks SSD-resident. Same sparse side-table reasoning.
	ssd pinMap
	// sums is the sparse write-time checksum map. A side map, not a
	// blockMeta field: most experiment blocks are synthetic and
	// unchecksummed, and blockMeta's flat size class is budget-gated.
	sums      map[dfs.BlockID]uint32
	nextBlock dfs.BlockID

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
		pins:   make(pinMap),
		ssd:    make(pinMap),
		sums:   make(map[dfs.BlockID]uint32),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

func (ns *memNamespace) Shards() int { return 1 }

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

func (ns *memNamespace) Allocate(path string, sizes []int64, sums []uint32, exclude []string, reqID uint64, batch bool) ([]dfs.LocatedBlock, error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	f, err := openFile(ns.files, path, sizes)
	if err != nil {
		return nil, err
	}
	if cached, ok := cachedAlloc(f, reqID, batch); ok {
		return cached, nil
	}
	out := make([]dfs.LocatedBlock, 0, len(sizes))
	for i, size := range sizes {
		lb, err := ns.allocateBlockLocked(f, size, sumAt(sums, i), exclude)
		if err != nil {
			return nil, err
		}
		out = append(out, lb)
	}
	rememberAlloc(f, reqID, batch, out)
	return out, nil
}

// allocateBlockLocked appends one block to f with freshly chosen replica
// targets. Called with mu held.
func (ns *memNamespace) allocateBlockLocked(f *fileEntry, size int64, sum uint32, exclude []string) (dfs.LocatedBlock, error) {
	targets := ns.chooseTargets(f.info.Replication, exclude)
	if len(targets) == 0 {
		return dfs.LocatedBlock{}, fmt.Errorf("namenode: no live datanodes")
	}
	ns.nextBlock++
	b := dfs.Block{ID: ns.nextBlock, Size: size}
	meta := newBlockMeta(ns.table, size, f.info.Replication, targets)
	ns.blocks[b.ID] = meta
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
	return dfs.LocatedBlock{Block: blk, Offset: offset, Checksum: ns.sums[block], Nodes: targets}, nil
}

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

func (ns *memNamespace) Info(path string) (dfs.FileInfo, error) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	f, ok := ns.files[path]
	if !ok {
		return dfs.FileInfo{}, fmt.Errorf("namenode: no such file %s", path)
	}
	return f.info, nil
}

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
		delete(ns.pins, b.ID)
		delete(ns.ssd, b.ID)
		delete(ns.sums, b.ID)
	}
	return toDelete, nil
}

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

func (ns *memNamespace) Resolve(path string) ([]resolvedBlock, error) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	f, ok := ns.files[path]
	if !ok {
		return nil, fmt.Errorf("namenode: no such file %s", path)
	}
	out := make([]resolvedBlock, 0, len(f.blocks))
	var offset int64
	addrs := ns.table.addrsView()
	for _, b := range f.blocks {
		rb := resolvedBlock{block: b, offset: offset, checksum: ns.sums[b.ID]}
		if meta := ns.blocks[b.ID]; meta != nil {
			rb.nodes = addrSlice(addrs, &meta.nodes)
			rb.pinned = idAddrs(addrs, ns.pins.view(b.ID))
			rb.onSSD = idAddrs(addrs, ns.ssd.view(b.ID))
		}
		offset += b.Size
		out = append(out, rb)
	}
	return out, nil
}

func (ns *memNamespace) Reconcile(addr string, held []dfs.BlockID) {
	id := ns.table.intern(addr)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	reconcileBlocks(ns.blocks, ns.pins, ns.ssd, id, held)
}

func (ns *memNamespace) ApplyReplicaDeltas(addr string, added, removed []dfs.BlockID) {
	id := ns.table.intern(addr)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	applyReplicaDeltas(ns.blocks, ns.pins, ns.ssd, id, added, removed)
}

func (ns *memNamespace) PinDeltas(addr string, pinned, unpinned []dfs.BlockID) {
	id := ns.table.intern(addr)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for _, b := range pinned {
		if _, ok := ns.blocks[b]; ok {
			ns.pins.add(b, id)
		}
	}
	for _, b := range unpinned {
		ns.pins.remove(b, id)
	}
}

func (ns *memNamespace) SSDDeltas(addr string, pinned, unpinned []dfs.BlockID) {
	id := ns.table.intern(addr)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for _, b := range pinned {
		if _, ok := ns.blocks[b]; ok {
			ns.ssd.add(b, id)
		}
	}
	for _, b := range unpinned {
		ns.ssd.remove(b, id)
	}
}

func (ns *memNamespace) FastTierHolders(block dfs.BlockID) (ram, ssd []string) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	addrs := ns.table.addrsView()
	return idAddrs(addrs, ns.pins.view(block)), idAddrs(addrs, ns.ssd.view(block))
}

func (ns *memNamespace) DropPinned(addrs []string) {
	ids := lookupAll(ns.table, addrs)
	if len(ids) == 0 {
		return
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.pins.dropNodes(ids)
	ns.ssd.dropNodes(ids)
}

func (ns *memNamespace) RepairScan(live map[string]bool) []repairJob {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return scanShardForRepair(ns.blocks, ns.table, live, &ns.rngMu, ns.rng)
}

func (ns *memNamespace) RepairDone(block dfs.BlockID, target string, ok bool) {
	id := ns.table.intern(target)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	repairDone(ns.blocks, block, id, ok)
}

// ---- logic shared by both namespace implementations ----

// openFile looks up an open (unsealed) file and validates the proposed
// block sizes against its block size. Called with the owning lock held.
func openFile(files map[string]*fileEntry, path string, sizes []int64) (*fileEntry, error) {
	f, ok := files[path]
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
	return f, nil
}

// cachedAlloc checks the file's one-deep idempotent allocation cache.
func cachedAlloc(f *fileEntry, reqID uint64, batch bool) ([]dfs.LocatedBlock, bool) {
	if reqID != 0 && reqID == f.lastAllocID && batch == f.lastAllocBatch {
		return f.lastAlloc, true
	}
	return nil, false
}

func rememberAlloc(f *fileEntry, reqID uint64, batch bool, out []dfs.LocatedBlock) {
	if reqID != 0 {
		f.lastAllocID, f.lastAllocBatch, f.lastAlloc = reqID, batch, out
	}
}

// sumAt indexes an optional checksum slice: nil (or short) means
// unchecksummed.
func sumAt(sums []uint32, i int) uint32 {
	if i < len(sums) {
		return sums[i]
	}
	return 0
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

// lookupAll resolves already-interned addresses, skipping unknown ones
// (an address the table never saw cannot appear in any nodeSet).
func lookupAll(t *nodeTable, addrs []string) []nodeID {
	out := make([]nodeID, 0, len(addrs))
	for _, a := range addrs {
		if id, ok := t.lookup(a); ok {
			out = append(out, id)
		}
	}
	return out
}

// addrSlice maps a nodeSet back to address strings through an
// addrsView snapshot.
func addrSlice(addrs []string, set *nodeSet) []string {
	return idAddrs(addrs, set.view())
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

// reconcileBlocks makes one block table agree with a datanode's actual
// replica inventory: entries it no longer holds are dropped; entries it
// holds (for blocks the namespace still knows) are added back. Called
// with the table's lock held.
func reconcileBlocks(blocks map[dfs.BlockID]*blockMeta, pins, ssd pinMap, node nodeID, held []dfs.BlockID) {
	holds := make(map[dfs.BlockID]struct{}, len(held))
	for _, id := range held {
		holds[id] = struct{}{}
	}
	for id, meta := range blocks {
		if _, ok := holds[id]; ok {
			meta.nodes.add(node)
		} else {
			meta.nodes.remove(node)
			pins.remove(id, node)
			ssd.remove(id, node)
		}
	}
}

// applyReplicaDeltas applies an incremental report to one block table:
// O(delta), never a full-table scan. A removed replica also drops the
// node's pin — storage gone means the pinned copy is gone too. Called
// with the table's lock held.
func applyReplicaDeltas(blocks map[dfs.BlockID]*blockMeta, pins, ssd pinMap, node nodeID, added, removed []dfs.BlockID) {
	for _, b := range added {
		if meta := blocks[b]; meta != nil {
			meta.nodes.add(node)
		}
	}
	for _, b := range removed {
		if meta := blocks[b]; meta != nil {
			meta.nodes.remove(node)
			pins.remove(b, node)
			ssd.remove(b, node)
		}
	}
}

// scanShardForRepair finds under-replicated blocks in one block table:
// for each block with fewer live replicas than its file requested, a
// live non-holder is chosen to pull a copy from a surviving holder, and
// the block is marked healing. Called with the table's lock held; takes
// the rng lock per chosen block. Holder and candidate lists are built
// and sorted as address strings, exactly as the historical map-of-maps
// scan did, so the seeded draws are unchanged.
func scanShardForRepair(blocks map[dfs.BlockID]*blockMeta, table *nodeTable, live map[string]bool, rngMu *sync.Mutex, rng *rand.Rand) []repairJob {
	var jobs []repairJob
	addrs := table.addrsView()
	for id, meta := range blocks {
		if meta.healing {
			continue
		}
		// Count before building anything: nearly every block of every
		// sweep is healthy, and a healthy block must cost no allocation.
		n := 0
		for _, nid := range meta.nodes.view() {
			if live[addrs[nid]] {
				n++
			}
		}
		if n == 0 || n >= int(meta.want) {
			continue
		}
		holders := make([]string, 0, n)
		for _, nid := range meta.nodes.view() {
			if live[addrs[nid]] {
				holders = append(holders, addrs[nid])
			}
		}
		sort.Strings(holders)
		var candidates []string
		for addr, ok := range live {
			if !ok {
				continue
			}
			if nid, known := table.lookup(addr); !known || !meta.nodes.contains(nid) {
				candidates = append(candidates, addr)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		sort.Strings(candidates)
		rngMu.Lock()
		target := candidates[rng.Intn(len(candidates))]
		source := holders[rng.Intn(len(holders))]
		rngMu.Unlock()
		meta.healing = true
		jobs = append(jobs, repairJob{
			block:  dfs.Block{ID: id, Size: meta.size},
			source: source,
			target: target,
		})
	}
	return jobs
}

// repairDone clears a block's healing mark and records the new holder on
// success. Called with the table's lock held.
func repairDone(blocks map[dfs.BlockID]*blockMeta, block dfs.BlockID, target nodeID, ok bool) {
	meta := blocks[block]
	if meta == nil {
		return
	}
	meta.healing = false
	if ok {
		meta.nodes.add(target)
	}
}
