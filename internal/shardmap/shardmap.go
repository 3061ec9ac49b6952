// Package shardmap provides the deterministic routing maps the sharded
// metadata plane is built on: a consistent-hash ring assigning uint64
// keys (block IDs) to shards, and a directory-prefix path hash assigning
// files to shards so a directory's entries colocate.
//
// Both maps are pure functions of their inputs — no process state, no
// randomness — so every party (namenode shards, the Ignem coordinator,
// shard-routing clients) derives the identical map from the shard count
// alone. Determinism is a hard requirement: the seeded experiment
// figures replay bit-for-bit only if routing never depends on map
// iteration order or address-space layout.
package shardmap

import (
	"hash/fnv"
	"sort"
	"strings"
)

// VNodes is the number of virtual nodes each shard contributes to the
// ring. 64 keeps the per-shard key share within a few percent of uniform
// at the shard counts the metadata plane runs (1–64) while the ring
// stays small enough to rebuild on every NameNode start.
const VNodes = 64

// Ring is a consistent-hash map from uint64 keys to shard indices.
//
// Stability guarantee: growing a ring from n to n+1 shards moves only
// the keys that now land on the new shard's virtual nodes — keys that
// stay map to the same shard index as before, because every existing
// virtual node keeps its position and owner. Shrinking is symmetric.
// (The table-driven tests pin both directions.)
type Ring struct {
	shards int
	points []ringPoint // sorted by position
}

type ringPoint struct {
	pos   uint64
	shard int
}

// NewRing builds the ring for the given shard count. Counts below 1 are
// treated as 1.
func NewRing(shards int) *Ring {
	if shards < 1 {
		shards = 1
	}
	r := &Ring{shards: shards}
	r.points = make([]ringPoint, 0, shards*VNodes)
	for s := 0; s < shards; s++ {
		for v := 0; v < VNodes; v++ {
			r.points = append(r.points, ringPoint{
				pos:   mix64(uint64(s)<<32 | uint64(v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		// A position collision (astronomically unlikely but possible)
		// breaks the tie by shard index so the order — and therefore the
		// key ownership — is still a pure function of the shard count.
		return a.shard < b.shard
	})
	return r
}

// Shard maps a key to its owning shard: the first virtual node at or
// clockwise after the key's position.
func (r *Ring) Shard(key uint64) int {
	if r.shards == 1 {
		return 0
	}
	pos := mix64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].shard
}

// BlockShard maps a block ID to its shard. Block IDs are small dense
// integers, so they pass through the same avalanche mix the ring points
// use; without it consecutive IDs would cluster on one arc.
func (r *Ring) BlockShard(id uint64) int { return r.Shard(id) }

// FileShard maps a file path to the shard that owns its namespace entry.
// Routing hashes the directory prefix, not the full path, so all entries
// of one directory colocate on one shard — a directory listing or a
// job's per-directory input scan stays a single-shard operation.
func FileShard(path string, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(DirKey(path) % uint64(shards))
}

// DirKey hashes the directory prefix of a path: everything up to and
// including the final '/'. A path with no '/' hashes as its own key.
func DirKey(path string) uint64 {
	dir := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		dir = path[:i+1]
	}
	h := fnv.New64a()
	h.Write([]byte(dir))
	return h.Sum64()
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on
// uint64, so dense inputs (block IDs, shard×vnode indices) spread
// uniformly over the ring.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
