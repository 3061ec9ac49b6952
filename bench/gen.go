package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
)

// geometry sizes the workloads. fullGeometry is what every measured
// run uses and is fixed on every commit: changing it starts a new
// baseline. smokeGeometry is the same shape at a size `go test` can
// afford; its numbers mean nothing.
type geometry struct {
	// scan_cold: files written at set-up and scanned.
	scanFiles, scanFileSize, scanBlockSize int
	// ingest_rescan: per worker, a ring of files whose oldest is
	// replaced each round, a hot set re-read each round with one member
	// overwritten, and the distinct payloads cycled in seeded order.
	ingestFileSize, ingestBlockSize, ingestRing, ingestHot, ingestPayloads int
	// meta_migrate: one-block files per job, Locations calls per cycle,
	// and the one-block files written at set-up and left standing, so
	// the control plane is measured over a namespace that is not empty.
	metaFilesPerJob, metaBlockSize, metaLocations, metaStanding int
	// paper_sim: the paper's SWIM run (§IV-A) and BENCH_tier.json's tier
	// run, whose RAM budget is a quarter of its input.
	swimJobs  int
	swimBytes int64
	simNodes  int
	tierJobs  int
	tierBytes int64
	// setupRepeats is how many times a workload is set up in one run;
	// setup_s is the median and the last set-up is the one measured.
	// paper_sim has its own count: its set-up is a quarter of a second,
	// so five cost little and steady the median.
	setupRepeats, simSetupRepeats int
	// probeDiv divides the probes' iteration counts.
	probeDiv int
	// isolation turns on the traced run's isolation checks; they hold
	// at full geometry only.
	isolation bool
}

var fullGeometry = geometry{
	scanFiles: 8, scanFileSize: 64 << 20, scanBlockSize: 4 << 20,
	ingestFileSize: 8 << 20, ingestBlockSize: 1 << 20, ingestRing: 16, ingestHot: 4, ingestPayloads: 4,
	metaFilesPerJob: 4, metaBlockSize: 64 << 10, metaLocations: 8, metaStanding: 1024,
	swimJobs: 200, swimBytes: 170 << 30, simNodes: 8, tierJobs: 48, tierBytes: 12 << 30,
	setupRepeats: 3, simSetupRepeats: 5, probeDiv: 1, isolation: true,
}

var smokeGeometry = geometry{
	scanFiles: 2, scanFileSize: 4 << 20, scanBlockSize: 1 << 20,
	ingestFileSize: 1 << 20, ingestBlockSize: 256 << 10, ingestRing: 4, ingestHot: 2, ingestPayloads: 2,
	metaFilesPerJob: 4, metaBlockSize: 64 << 10, metaLocations: 8, metaStanding: 8,
	swimJobs: 12, swimBytes: 2 << 30, simNodes: 4, tierJobs: 8, tierBytes: 1 << 30,
	setupRepeats: 1, simSetupRepeats: 1, probeDiv: 20,
}

// g is the geometry in force.
var g = fullGeometry

const (
	replication = 2
	dataNodes   = 4

	// scheduleLen is how many seeded choices each worker draws; the
	// timed loop cycles through them, so a run of any length uses the
	// same order.
	scheduleLen = 4096
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc32c(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// fillPayload writes a seeded byte stream (splitmix64) into b. It is a
// generator, not a cipher: fast enough that building 512 MiB of input
// does not dominate set-up, and distinct per seed so a block served for
// the wrong file fails its CRC.
func fillPayload(b []byte, seed uint64) {
	x := seed
	i := 0
	for ; i+8 <= len(b); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(b[i:], z^(z>>31))
	}
	for ; i < len(b); i++ {
		x += 0x9e3779b97f4a7c15
		b[i] = byte(x >> 56)
	}
}

// plan is everything a workload's inputs depend on, derived from
// (workload, seed, workers) and nothing else.
type plan struct {
	Workload string
	Seed     int64
	Workers  int
	// PayloadSeeds seed fillPayload for each generated file or payload.
	PayloadSeeds []uint64
	// Order is each worker's seeded choice sequence: file index to read
	// (scan_cold), payload index to write (ingest_rescan), file index
	// to locate (meta_migrate). Empty for paper_sim, whose inputs are
	// fixed.
	Order [][]int
}

func newPlan(workload string, seed int64, workers int) (*plan, error) {
	p := &plan{Workload: workload, Seed: seed, Workers: workers}
	rng := rand.New(rand.NewSource(seed ^ int64(fnv64(workload))))
	var payloads, choices int
	switch workload {
	case wlScanCold:
		payloads, choices = g.scanFiles, g.scanFiles
	case wlIngestRescan:
		payloads, choices = workers*g.ingestPayloads, g.ingestPayloads
	case wlMetaMigrate:
		payloads, choices = g.metaFilesPerJob, g.metaFilesPerJob
	case wlPaperSim:
		// Nothing is generated: the simulations run the traces and
		// cluster seeds the committed figures were made with (wl_sim.go).
		return p, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	for i := 0; i < payloads; i++ {
		p.PayloadSeeds = append(p.PayloadSeeds, rng.Uint64())
	}
	for w := 0; w < workers; w++ {
		order := make([]int, scheduleLen)
		for i := range order {
			order[i] = rng.Intn(choices)
		}
		p.Order = append(p.Order, order)
	}
	return p, nil
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// hash fingerprints the generated inputs, so two runs can be shown to
// have had the same ones.
func (p *plan) hash() string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(p.Workload))
	put(uint64(p.Workers))
	for _, s := range p.PayloadSeeds {
		put(s)
	}
	for _, order := range p.Order {
		for _, v := range order {
			put(uint64(v))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
