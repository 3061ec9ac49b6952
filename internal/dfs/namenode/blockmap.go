package namenode

import (
	"sort"
	"sync"

	"repro/internal/dfs"
)

// Compact block-map building blocks. The block map is the NameNode's
// dominant heap consumer: one entry per block, two replica-location sets
// per entry. A map[string]struct{} per set would cost two map headers, their buckets, and a copy of every
// datanode address string per block. At a million blocks that is
// hundreds of megabytes of pure bookkeeping.
//
// Instead, datanode addresses are interned once into a process-wide
// table (a datanode population is small and append-only), and each
// block's replica and pin sets hold sorted 4-byte node IDs, inline up
// to the default replication factor of 3 ("sorted replica triples"),
// spilling to a slice only for over-replicated blocks. A blockMeta is
// one flat allocation.

// nodeID is the dense index of a datanode address in a nodeTable.
type nodeID uint32

// nodeTable interns datanode addresses. IDs are dense indices into
// addrs, assigned in first-seen order and never reused — a dead
// datanode's entry stays (the population is bounded), which keeps every
// nodeID held by a nodeSet valid forever.
type nodeTable struct {
	mu    sync.RWMutex
	ids   map[string]nodeID
	addrs []string
}

func newNodeTable() *nodeTable {
	return &nodeTable{ids: make(map[string]nodeID)}
}

// intern returns addr's ID, assigning one on first sight.
func (t *nodeTable) intern(addr string) nodeID {
	t.mu.RLock()
	id, ok := t.ids[addr]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[addr]; ok {
		return id
	}
	id = nodeID(len(t.addrs))
	t.addrs = append(t.addrs, addr)
	t.ids[addr] = id
	return id
}

// lookup returns addr's ID without assigning one.
func (t *nodeTable) lookup(addr string) (nodeID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.ids[addr]
	return id, ok
}

// addrsView snapshots the ID→address mapping. The returned slice is
// immutable for every index that existed at capture time (entries are
// append-only), so callers may index it freely without further locking;
// any nodeID read from a nodeSet was interned before the capture.
func (t *nodeTable) addrsView() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.addrs
}

// nodeSetInline is how many members a nodeSet holds without a separate
// allocation — the default replication factor, so the common case (a
// fully replicated, not over-replicated block) stays flat.
const nodeSetInline = 3

// nodeSet is a small sorted set of node IDs. Up to nodeSetInline
// members live in the inline array; beyond that all members move to the
// spill slice (exactly one of the two representations is active). The
// spill slice is held behind a pointer: over-replication is transient
// and rare, and the indirection keeps the embedded set at 24 bytes,
// which is what holds blockMeta in the 48-byte allocation class.
// Guarded by the namespace lock, like the rest of blockMeta.
type nodeSet struct {
	n      uint16
	inline [nodeSetInline]nodeID
	spill  *[]nodeID
}

func (s *nodeSet) len() int { return int(s.n) }

// view returns the sorted members, borrowed: valid only until the next
// mutation, never to be modified by the caller.
func (s *nodeSet) view() []nodeID {
	if s.spill != nil {
		return *s.spill
	}
	return s.inline[:s.n]
}

func (s *nodeSet) contains(id nodeID) bool {
	v := s.view()
	// Inline sets are ≤3 long; a linear scan beats binary search there,
	// and spilled sets stay small enough that it hardly matters.
	if len(v) <= nodeSetInline {
		for _, m := range v {
			if m == id {
				return true
			}
		}
		return false
	}
	i := sort.Search(len(v), func(i int) bool { return v[i] >= id })
	return i < len(v) && v[i] == id
}

// add inserts id keeping the set sorted; it reports whether the set
// changed.
func (s *nodeSet) add(id nodeID) bool {
	if s.contains(id) {
		return false
	}
	if s.spill == nil && int(s.n) < nodeSetInline {
		i := int(s.n)
		for i > 0 && s.inline[i-1] > id {
			s.inline[i] = s.inline[i-1]
			i--
		}
		s.inline[i] = id
		s.n++
		return true
	}
	if s.spill == nil {
		sp := append(make([]nodeID, 0, nodeSetInline+1), s.inline[:s.n]...)
		s.spill = &sp
	}
	sp := *s.spill
	i := sort.Search(len(sp), func(i int) bool { return sp[i] >= id })
	sp = append(sp, 0)
	copy(sp[i+1:], sp[i:])
	sp[i] = id
	*s.spill = sp
	s.n++
	return true
}

// remove deletes id; it reports whether the set changed. A spilled set
// shrinking back to the inline capacity returns to the inline
// representation, releasing the spill allocation.
func (s *nodeSet) remove(id nodeID) bool {
	if s.spill != nil {
		sp := *s.spill
		i := sort.Search(len(sp), func(i int) bool { return sp[i] >= id })
		if i >= len(sp) || sp[i] != id {
			return false
		}
		sp = append(sp[:i], sp[i+1:]...)
		s.n--
		if int(s.n) <= nodeSetInline {
			copy(s.inline[:], sp)
			s.spill = nil
		} else {
			*s.spill = sp
		}
		return true
	}
	for i := 0; i < int(s.n); i++ {
		if s.inline[i] == id {
			copy(s.inline[i:], s.inline[i+1:int(s.n)])
			s.n--
			return true
		}
	}
	return false
}

// reset replaces the members with ids (copied, deduplicated, sorted).
func (s *nodeSet) reset(ids []nodeID) {
	*s = nodeSet{}
	for _, id := range ids {
		s.add(id)
	}
}

// pinMap tracks which datanodes hold which blocks pinned in memory. It
// is a sparse side table keyed by block rather than a field on every
// blockMeta: pinned memory is a small fraction of storage (the paper's
// whole premise), so most blocks have no pin state at all and should
// not pay 24 bytes reserving room for it. An entry exists only while
// its set is non-empty. Guarded by the namespace lock.
type pinMap map[dfs.BlockID]*nodeSet

// add records that node holds b pinned.
func (p pinMap) add(b dfs.BlockID, node nodeID) {
	s := p[b]
	if s == nil {
		s = new(nodeSet)
		p[b] = s
	}
	s.add(node)
}

// remove drops node's pin on b, releasing the entry when it empties.
func (p pinMap) remove(b dfs.BlockID, node nodeID) {
	if s := p[b]; s != nil {
		if s.remove(node) && s.len() == 0 {
			delete(p, b)
		}
	}
}

// dropNodes drops every pin held by the given (dead) nodes.
func (p pinMap) dropNodes(ids []nodeID) {
	for b, s := range p {
		for _, id := range ids {
			s.remove(id)
		}
		if s.len() == 0 {
			delete(p, b)
		}
	}
}

// has reports whether node holds b pinned.
func (p pinMap) has(b dfs.BlockID, node nodeID) bool {
	s := p[b]
	return s != nil && s.contains(node)
}

// view returns b's sorted pin holders, borrowed (nil when unpinned).
func (p pinMap) view(b dfs.BlockID) []nodeID {
	if s := p[b]; s != nil {
		return s.view()
	}
	return nil
}
