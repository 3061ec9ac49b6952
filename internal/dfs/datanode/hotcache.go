package datanode

import (
	"container/list"
	"sync"

	"repro/internal/dfs"
)

// hotCache is an LRU cache of recently read blocks: the PACMan /
// Triple-H class of baseline the paper contrasts Ignem with. Blocks
// enter the cache only after being read from the cold device (reactive),
// never ahead of their first access (proactive migration is Ignem's
// job).
type hotCache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	order    *list.List // front = most recently used; values are cacheEntry
	byID     map[dfs.BlockID]*list.Element
}

type cacheEntry struct {
	id   dfs.BlockID
	size int64
}

func newHotCache(capacity int64) *hotCache {
	return &hotCache{
		capacity: capacity,
		order:    list.New(),
		byID:     make(map[dfs.BlockID]*list.Element),
	}
}

// touch reports whether the block is resident, refreshing its recency.
func (h *hotCache) touch(id dfs.BlockID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	el, ok := h.byID[id]
	if !ok {
		return false
	}
	h.order.MoveToFront(el)
	return true
}

// insert retains a just-read block, evicting least-recently-used blocks
// as needed. Blocks larger than the whole cache are not retained.
func (h *hotCache) insert(id dfs.BlockID, size int64) {
	if size > h.capacity {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.byID[id]; dup {
		return
	}
	for h.used+size > h.capacity {
		back := h.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(cacheEntry)
		h.order.Remove(back)
		delete(h.byID, e.id)
		h.used -= e.size
	}
	h.byID[id] = h.order.PushFront(cacheEntry{id: id, size: size})
	h.used += size
}
