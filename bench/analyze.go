package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// bulkThreshold splits RPCs into bulk (block payloads) and control.
const bulkThreshold = 32 << 10

// nnServeMethods maps the namenode handlers the layer table breaks out
// to their metric suffix. A writer allocates a window of one block with
// nn.addBlock and a larger one with nn.addBlocks.
var nnServeMethods = map[string]string{
	"nn.getLocations": "locations",
	"nn.create":       "create",
	"nn.addBlock":     "addblocks",
	"nn.addBlocks":    "addblocks",
	"nn.complete":     "complete",
	"nn.delete":       "delete",
	"nn.migrate":      "migrate",
	"nn.evict":        "evict",
}

// analysis is what the traced spans add up to.
type analysis struct {
	spans    []span
	kids     [][]int
	unplaced int

	roots      int
	rootNs     int64
	byLayer    map[string]float64 // ns, sums to rootNs
	nnServeSec float64            // seconds in the nnServeMethods handlers

	durNs  map[string]int64 // by "side:method": summed duration
	selfNs map[string]int64 // by "side:method": summed self time
	count  map[string]int64 // by "side:method"
	allocs map[string]uint64

	bulkWireNs, ctlWireNs int64
	bulkBytes, ctlCalls   int64
	placedCalls           int64 // caller-side spans under a root
	placedBytes           int64
	clientNNCalls         int64
	forwardNs, forwards   int64
	cmdNs, cmds           int64
	migrateBatches        int64
}

func analyze(spans []span, unplaced int) *analysis {
	a := &analysis{
		spans: spans, kids: childIndex(spans), unplaced: unplaced,
		durNs: make(map[string]int64), selfNs: make(map[string]int64),
		count: make(map[string]int64), allocs: make(map[string]uint64),
	}
	a.byLayer = attribute(spans, a.kids)
	for i := range spans {
		s := &spans[i]
		key := s.Side + ":" + s.Name
		a.count[key]++
		a.durNs[key] += s.dur()
		a.selfNs[key] += selfTime(i, spans, a.kids)
		a.allocs[key] += s.Allocs
		switch s.Side {
		case sideRoot:
			a.roots++
			a.rootNs += s.dur()
		case sideCaller:
			if s.Trace >= 0 {
				a.placedCalls++
				a.placedBytes += s.Bytes
			}
			if s.Node == clientNode && layerOfMethod(s.Name) == layerNameNode {
				a.clientNNCalls++
			}
			if s.Node != clientNode && s.Name == "dn.writeBlock" {
				a.forwardNs += s.dur()
				a.forwards++
			}
			if layerOfMethod(s.Name) == layerIgnem {
				a.cmdNs += s.dur()
				a.cmds++
				if s.Name == "ignem.migrateBatch" {
					a.migrateBatches++
				}
			}
			// Wire time needs the callee's view of the same call.
			for _, k := range a.kids[i] {
				if spans[k].Side != sideCallee {
					continue
				}
				wire := s.dur() - spans[k].dur()
				if s.Bytes >= bulkThreshold {
					a.bulkWireNs += wire
					a.bulkBytes += s.Bytes
				} else {
					a.ctlWireNs += wire
					a.ctlCalls++
				}
			}
		case sideCallee:
			if _, ok := nnServeMethods[s.Name]; ok && s.Trace >= 0 {
				a.nnServeSec += float64(s.dur()) / 1e9
			}
		}
	}
	return a
}

// perCall is the mean of a summed duration in µs; 0 when nothing ran.
func perCall(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e3
}

// layerMetrics adds the span-derived per-layer metrics.
func (a *analysis) layerMetrics(rec *WorkloadRecord, workload string) {
	ops := int64(a.roots)
	if workload != wlScanCold {
		// One op is a round or a job cycle of several roots; the step
		// that closes it is the delete of the round's/cycle's first file.
		ops = a.opsFromRoots(workload)
	}
	// Blocks handed to and taken from the client API, whether or not
	// they crossed the network (a cache hit is still a block read).
	perFile := blocksPerFile(workload)
	blocksRead := a.count[sideRoot+":read_file"] * perFile
	clientWrites := a.count[sideRoot+":write_file"] * perFile
	if blocksRead > 0 {
		rec.add("client.read_self_us_per_block", perCall(a.selfNs[sideRoot+":read_file"], blocksRead))
		rec.add("client.allocs_per_block_read", float64(a.allocs[sideRoot+":read_file"])/float64(blocksRead))
	}
	if clientWrites > 0 {
		rec.add("client.write_self_us_per_block", perCall(a.selfNs[sideRoot+":write_file"], clientWrites))
		rec.add("client.allocs_per_block_write", float64(a.allocs[sideRoot+":write_file"])/float64(clientWrites))
	}
	if ops > 0 {
		rec.add("client.nn_calls_per_cycle", float64(a.clientNNCalls)/float64(ops))
		rec.add("transport.calls_per_op", float64(a.placedCalls)/float64(ops))
		rec.add("transport.bulk_kib_per_op", float64(a.placedBytes)/1024/float64(ops))
	}
	if a.bulkBytes > 0 {
		rec.add("transport.bulk_wire_us_per_mib", float64(a.bulkWireNs)/1e3/(float64(a.bulkBytes)/(1<<20)))
	}
	rec.add("transport.ctl_wire_us_per_call", perCall(a.ctlWireNs, a.ctlCalls))
	serveNs, serves := make(map[string]int64), make(map[string]int64)
	for method, suffix := range nnServeMethods {
		serveNs[suffix] += a.durNs[sideCallee+":"+method]
		serves[suffix] += a.count[sideCallee+":"+method]
	}
	for _, suffix := range []string{"locations", "create", "addblocks", "complete", "delete", "migrate", "evict"} {
		if serves[suffix] > 0 {
			rec.add("namenode.serve_us."+suffix, perCall(serveNs[suffix], serves[suffix]))
		}
	}
	if key := sideCallee + ":dn.readBlock"; a.count[key] > 0 {
		rec.add("datanode.serve_read_us_per_block", perCall(a.durNs[key], a.count[key]))
	}
	if key := sideCallee + ":dn.writeBlock"; a.count[key] > 0 {
		// Self time: a pipeline head's span also covers its forward.
		rec.add("datanode.serve_write_us_per_block", perCall(a.selfNs[key], a.count[key]))
	}
	if a.forwards > 0 {
		rec.add("datanode.pipeline_forward_us_per_block", perCall(a.forwardNs, a.forwards))
	}
	if a.cmds > 0 {
		rec.add("ignem.cmd_rpc_us_per_batch", perCall(a.cmdNs, a.cmds))
	}
	if n := a.count[sideCallee+":nn.migrate"]; n > 0 {
		rec.add("ignem.cmd_batches_per_migrate", float64(a.migrateBatches)/float64(n))
	}
	var layerSum float64
	for _, ns := range a.byLayer {
		layerSum += ns
	}
	if a.rootNs > 0 {
		rec.add("trace.layer_sum_over_root", layerSum/float64(a.rootNs))
	}
	if nonRoot := len(a.spans) - a.roots; nonRoot > 0 {
		rec.add("trace.unplaced_span_frac", float64(a.unplaced)/float64(nonRoot))
	}
}

func blocksPerFile(workload string) int64 {
	switch workload {
	case wlScanCold:
		return int64(g.scanFileSize / g.scanBlockSize)
	case wlIngestRescan:
		return int64(g.ingestFileSize / g.ingestBlockSize)
	}
	return 1
}

// opsFromRoots counts primary ops from the roots each one ends with.
func (a *analysis) opsFromRoots(workload string) int64 {
	switch workload {
	case wlIngestRescan:
		return a.count[sideRoot+":read_file"] / int64(g.ingestHot)
	case wlMetaMigrate:
		return a.count[sideRoot+":evict"]
	}
	return int64(a.roots)
}

// printLayerTable prints where the operations' wall time went.
func (a *analysis) printLayerTable(w io.Writer) {
	fmt.Fprintf(w, "-- layer attribution: %d root spans, %.1f ms total, %d spans, %d unplaced\n",
		a.roots, float64(a.rootNs)/1e6, len(a.spans), a.unplaced)
	layers := make([]string, 0, len(a.byLayer))
	for l := range a.byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return a.byLayer[layers[i]] > a.byLayer[layers[j]] })
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tself ms\tshare\tus per root")
	for _, l := range layers {
		ns := a.byLayer[l]
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f%%\t%.1f\n", l, ns/1e6, 100*ns/float64(a.rootNs), ns/1e3/float64(a.roots))
	}
	tw.Flush()
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
