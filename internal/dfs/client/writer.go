package client

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/dfs"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// DefaultWriteParallelism is how many blocks a writer keeps in flight.
const DefaultWriteParallelism = 4

// writer streams a file into the DFS block by block. It keeps a window
// of up to DefaultWriteParallelism blocks in flight: each full block is
// shipped to its datanode pipeline by a worker goroutine while the
// caller dispatches the next, and block allocation is batched (one
// nn.addBlocks round trip per window) on the caller's goroutine so
// blocks are appended — and placement is drawn — in file order
// regardless of worker scheduling. The first in-flight failure stops
// further dispatch and surfaces by close at the latest.
//
// A writer is not safe for concurrent use.
type writer struct {
	c         *Client
	path      string
	blockSize int64
	buf       []byte

	// mu guards the in-flight window; cond is signalled when a worker
	// completes. werr is sticky: the first in-flight failure fails every
	// subsequent dispatch.
	mu       sync.Mutex
	cond     *simclock.Cond
	inflight int
	werr     error
}

func newWriter(c *Client, path string, blockSize int64) *writer {
	w := &writer{c: c, path: path, blockSize: blockSize}
	w.cond = simclock.NewCond(c.clock, &w.mu)
	return w
}

// write sends p as the file's content, flushing its full blocks. The
// writer's blocks are p's own memory: checksums, dispatch, failover
// retries and close's tail block all read p, so the caller must leave p
// untouched until close returns.
func (w *writer) write(p []byte) error {
	w.buf = p
	return w.flushFullBlocks()
}

// flushFullBlocks drains every full block in the buffer: it allocates
// a window of blocks in one nn.addBlocks call and hands each to the
// bounded in-flight window.
func (w *writer) flushFullBlocks() error {
	for int64(len(w.buf)) >= w.blockSize {
		n := min(int(int64(len(w.buf))/w.blockSize), DefaultWriteParallelism)
		sizes := make([]int64, n)
		for i := range sizes {
			sizes[i] = w.blockSize
		}
		sums := make([]uint32, n)
		for i := range sums {
			sums[i] = dfs.Checksum(w.buf[int64(i)*w.blockSize : int64(i+1)*w.blockSize])
		}
		lbs, err := w.c.addBlocks(w.path, sizes, sums)
		if err != nil {
			return err
		}
		for _, lb := range lbs {
			data := w.buf[:w.blockSize]
			w.buf = w.buf[w.blockSize:]
			if err := w.dispatch(lb, data); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSynthetic appends size bytes of synthetic (unmaterialized) data,
// used by experiment-scale workloads so terabyte files don't allocate
// terabytes.
func (w *writer) writeSynthetic(size int64) error {
	if size < 0 {
		return fmt.Errorf("dfs client: negative synthetic size %d", size)
	}
	for size > 0 {
		var sizes []int64
		for len(sizes) < DefaultWriteParallelism && size > 0 {
			n := min(size, w.blockSize)
			sizes = append(sizes, n)
			size -= n
		}
		lbs, err := w.c.addBlocks(w.path, sizes, nil)
		if err != nil {
			return err
		}
		for _, lb := range lbs {
			if err := w.dispatch(lb, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// dispatch hands one allocated block to the in-flight window, blocking
// (on the clock) while the window is full. A sticky in-flight error
// aborts the dispatch and is returned instead.
func (w *writer) dispatch(lb dfs.LocatedBlock, data []byte) error {
	w.mu.Lock()
	for w.inflight >= DefaultWriteParallelism && w.werr == nil {
		w.cond.Wait()
	}
	if w.werr != nil {
		err := w.werr
		w.mu.Unlock()
		return err
	}
	w.inflight++
	w.mu.Unlock()
	w.c.clock.Go(func() {
		err := w.c.writeBlockWithFailover(w.path, lb, data)
		w.mu.Lock()
		if err != nil && w.werr == nil {
			w.werr = err
		}
		w.inflight--
		w.cond.Broadcast()
		w.mu.Unlock()
	})
	return nil
}

// drain waits for the in-flight window to empty and returns the sticky
// error, if any.
func (w *writer) drain() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.inflight > 0 {
		w.cond.Wait()
	}
	return w.werr
}

// asyncErr reports the sticky in-flight error without waiting.
func (w *writer) asyncErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.werr
}

// close flushes the remaining partial block, drains the in-flight
// window, and seals the file unless a block failed.
func (w *writer) close() error {
	var flushErr error
	if len(w.buf) > 0 {
		if flushErr = w.asyncErr(); flushErr == nil {
			var lbs []dfs.LocatedBlock
			lbs, flushErr = w.c.addBlocks(w.path, []int64{int64(len(w.buf))}, []uint32{dfs.Checksum(w.buf)})
			if flushErr == nil {
				flushErr = w.dispatch(lbs[0], w.buf)
			}
		}
	}
	if err := w.drain(); flushErr == nil {
		flushErr = err
	}
	// The file's content just changed (created or appended); drop any
	// blocks of it the shared cache still holds, error or not.
	w.c.invalidateFile(w.path)
	if flushErr != nil {
		return flushErr
	}
	// Sealing is idempotent, so a lost reply is safely retried.
	_, err := callNN[dfs.CompleteResp](w.c, "nn.complete", dfs.CompleteReq{Path: w.path})
	return err
}

// maxBlockWriteAttempts bounds how many target sets a block write tries
// before surfacing the failure.
const maxBlockWriteAttempts = 4

// writeBlockWithFailover ships one allocated block to its pipeline,
// surviving datanode deaths mid-write: when the pipeline fails, the
// node that failed is identified (the unreachable entry node from the
// *transport.CallError, or the downstream victim named in the
// datanode's pipeline error), the namenode re-targets the same block
// excluding every node seen to fail so far, and the block is re-sent to
// the fresh pipeline. The block's ID and file offset never change, so
// concurrent in-flight writes of later blocks are unaffected.
func (c *Client) writeBlockWithFailover(path string, lb dfs.LocatedBlock, data []byte) error {
	var exclude []string
	for attempt := 1; ; attempt++ {
		err := c.sendBlock(lb, data)
		if err == nil {
			return nil
		}
		if attempt >= maxBlockWriteAttempts {
			return err
		}
		for _, victim := range failedPipelineNodes(err, lb) {
			// Drop the cached conn so a later use re-dials, and never
			// place this block there again.
			c.ForgetDataNode(victim)
			exclude = append(exclude, victim)
		}
		resp, rerr := callNN[dfs.RetargetBlockResp](c, "nn.retargetBlock", dfs.RetargetBlockReq{
			Path: path, Block: lb.Block.ID, Exclude: exclude,
		})
		if rerr != nil {
			return fmt.Errorf("dfs client: retarget block %d after %w: %v", lb.Block.ID, err, rerr)
		}
		lb = resp.Located
	}
}

// failedPipelineNodes names the datanodes implicated in a failed block
// write. A transport-level failure talking to the entry node implicates
// it directly; a pipeline error reported by a datanode names the
// downstream victim in its message ("datanode: pipeline to X: ..." —
// the innermost, i.e. last, occurrence is the edge that actually
// failed). The victim is the pipeline member whose address, followed by
// ':', starts the text after that occurrence: an address may contain
// ':' itself (host:port), so the text is matched, not cut. When neither
// identifies a node, the entry node is blamed: retrying through it is
// what just failed.
func failedPipelineNodes(err error, lb dfs.LocatedBlock) []string {
	var ce *transport.CallError
	if errors.As(err, &ce) && ce.Addr != "" {
		return []string{ce.Addr}
	}
	var re *transport.RemoteError
	if errors.As(err, &re) {
		if i := strings.LastIndex(re.Msg, "pipeline to "); i >= 0 {
			rest := re.Msg[i+len("pipeline to "):]
			for _, addr := range lb.Nodes {
				if strings.HasPrefix(rest, addr+":") {
					return []string{addr}
				}
			}
		}
	}
	if len(lb.Nodes) > 0 {
		return []string{lb.Nodes[0]}
	}
	return nil
}

// sendBlock writes one allocated block to its replica pipeline:
// HDFS-style, the client sends once to the first target, which stores
// its replica while forwarding down the chain.
func (c *Client) sendBlock(lb dfs.LocatedBlock, data []byte) error {
	if len(lb.Nodes) == 0 {
		return fmt.Errorf("dfs client: block %d allocated with no targets", lb.Block.ID)
	}
	req := dfs.WriteBlockReq{Block: lb.Block, Data: data, Checksum: lb.Checksum, Pipeline: lb.Nodes[1:]}
	dc, err := c.datanode(lb.Nodes[0])
	if err != nil {
		return err
	}
	if _, err := transport.Call[dfs.WriteBlockResp](dc, "dn.writeBlock", req); err != nil {
		return fmt.Errorf("dfs client: write block %d via %s: %w", lb.Block.ID, lb.Nodes[0], err)
	}
	return nil
}

// addBlocks allocates len(sizes) blocks for path in one namenode round
// trip, registering each block's write-time checksum (sums may be nil).
// The request carries a fresh request ID, so the transport-level retry
// in callNN cannot double-allocate: a retry of a request whose reply was
// lost gets the blocks the first attempt allocated.
func (c *Client) addBlocks(path string, sizes []int64, sums []uint32) ([]dfs.LocatedBlock, error) {
	req := dfs.AddBlocksReq{Path: path, Sizes: sizes, Checksums: sums, ReqID: c.allocSeq.Add(1)}
	resp, err := callNN[dfs.AddBlocksResp](c, "nn.addBlocks", req)
	if err != nil {
		return nil, fmt.Errorf("dfs client: addBlocks: %w", err)
	}
	if len(resp.Located) != len(sizes) {
		return nil, fmt.Errorf("dfs client: addBlocks returned %d blocks, want %d", len(resp.Located), len(sizes))
	}
	return resp.Located, nil
}

// WriteFile creates path and writes data in one call. It reads data
// until it returns and never after, so the caller may reuse data then.
//
// The blocks are sent from data itself, with no staging copy: WriteFile
// returns only after close has drained every block in flight, and
// either transport gives a datanode its own copy of each payload. One
// stale reader remains: a conn wrapper that holds a block attempt and
// sends it after its call timed out, and so possibly after WriteFile
// returned. The datanode's CRC check rejects bytes the caller changed
// since.
func (c *Client) WriteFile(path string, data []byte, blockSize int64, replication int) error {
	w, err := c.create(path, blockSize, replication)
	if err != nil {
		return err
	}
	if err := w.write(data); err != nil {
		_ = w.close() // drain in-flight blocks; the write already failed
		return err
	}
	return w.close()
}

// WriteSyntheticFile creates path with size bytes of synthetic data.
func (c *Client) WriteSyntheticFile(path string, size int64, blockSize int64, replication int) error {
	w, err := c.create(path, blockSize, replication)
	if err != nil {
		return err
	}
	if err := w.writeSynthetic(size); err != nil {
		_ = w.close()
		return err
	}
	return w.close()
}
