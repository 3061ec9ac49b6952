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

// DefaultWriteParallelism is how many blocks a Writer keeps in flight
// unless WithWriteParallelism overrides it.
const DefaultWriteParallelism = 4

// writeMode distinguishes real-byte files from synthetic (size-only)
// files; the two cannot be mixed in one file.
type writeMode int

const (
	modeUnset writeMode = iota
	modeReal
	modeSynthetic
)

// Writer streams a file into the DFS block by block. With write
// parallelism > 1 (the default) it keeps a bounded window of blocks in
// flight: each full block is shipped to its datanode pipeline by a
// worker goroutine while the caller keeps buffering, and block
// allocation is batched (one nn.addBlocks round trip per window) on the
// caller's goroutine so blocks are appended — and placement is drawn —
// in file order regardless of worker scheduling. Errors from in-flight
// blocks surface on the next Write, WriteSynthetic, or Close.
//
// A Writer is not safe for concurrent use.
type Writer struct {
	c         *Client
	path      string
	blockSize int64
	par       int
	buf       []byte
	closed    bool
	mode      writeMode

	// mu guards the in-flight window; cond is signalled when a worker
	// completes. werr is sticky: the first in-flight failure fails every
	// subsequent call.
	mu       sync.Mutex
	cond     *simclock.Cond
	inflight int
	werr     error
}

func newWriter(c *Client, path string, blockSize int64) *Writer {
	w := &Writer{c: c, path: path, blockSize: blockSize, par: c.writePar}
	w.cond = simclock.NewCond(c.clock, &w.mu)
	return w
}

// Write buffers p, flushing full blocks to the cluster. The returned
// count is the number of bytes of p the writer consumed — on error after
// some bytes were buffered or handed to a flush it reports those bytes
// as consumed, so a caller that retries from the count does not
// duplicate data.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("dfs client: write to closed writer")
	}
	if w.mode == modeSynthetic {
		return 0, fmt.Errorf("dfs client: cannot mix real and synthetic writes")
	}
	if err := w.asyncErr(); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	w.mode = modeReal
	w.buf = append(w.buf, p...)
	if err := w.flushFullBlocks(); err != nil {
		// Everything in p is already in the writer's buffer or window.
		return len(p), err
	}
	return len(p), nil
}

// flushFullBlocks drains every full block in the buffer. Serial writers
// allocate and ship one block per round trip; parallel writers allocate
// a window of blocks in one nn.addBlocks call and hand each to the
// bounded in-flight window.
func (w *Writer) flushFullBlocks() error {
	for int64(len(w.buf)) >= w.blockSize {
		if w.par <= 1 {
			if err := w.flushBlock(w.buf[:w.blockSize], nil); err != nil {
				return err
			}
			w.buf = w.buf[w.blockSize:]
			continue
		}
		n := int(int64(len(w.buf)) / w.blockSize)
		if n > w.par {
			n = w.par
		}
		sizes := make([]int64, n)
		for i := range sizes {
			sizes[i] = w.blockSize
		}
		var sums []uint32
		if w.c.checksums {
			sums = make([]uint32, n)
			for i := range sums {
				sums[i] = dfs.Checksum(w.buf[int64(i)*w.blockSize : int64(i+1)*w.blockSize])
			}
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

// WriteSynthetic appends size bytes of synthetic (unmaterialized) data,
// used by experiment-scale workloads so terabyte files don't allocate
// terabytes. Mixing Write and WriteSynthetic on one file is not allowed.
func (w *Writer) WriteSynthetic(size int64) error {
	if w.closed {
		return fmt.Errorf("dfs client: write to closed writer")
	}
	if w.mode == modeReal || len(w.buf) > 0 {
		return fmt.Errorf("dfs client: cannot mix real and synthetic writes")
	}
	if size < 0 {
		return fmt.Errorf("dfs client: negative synthetic size %d", size)
	}
	if err := w.asyncErr(); err != nil {
		return err
	}
	if size == 0 {
		return nil
	}
	w.mode = modeSynthetic
	if w.par <= 1 {
		for size > 0 {
			n := size
			if n > w.blockSize {
				n = w.blockSize
			}
			if err := w.flushBlock(nil, &n); err != nil {
				return err
			}
			size -= n
		}
		return nil
	}
	for size > 0 {
		var sizes []int64
		for len(sizes) < w.par && size > 0 {
			n := size
			if n > w.blockSize {
				n = w.blockSize
			}
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

// flushBlock allocates a block at the namenode and writes it to every
// replica target — the serial write path.
func (w *Writer) flushBlock(data []byte, synthSize *int64) error {
	size := int64(len(data))
	if synthSize != nil {
		size = *synthSize
	}
	lbs, err := w.c.addBlocks(w.path, []int64{size}, w.c.blockSums(data))
	if err != nil {
		return err
	}
	return w.c.writeBlockWithFailover(w.path, lbs[0], data, false)
}

// dispatch hands one allocated block to the in-flight window, blocking
// (on the clock) while the window is full. A sticky in-flight error
// aborts the dispatch and is returned instead.
func (w *Writer) dispatch(lb dfs.LocatedBlock, data []byte) error {
	w.mu.Lock()
	for w.inflight >= w.par && w.werr == nil {
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
		err := w.c.writeBlockWithFailover(w.path, lb, data, true)
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
func (w *Writer) drain() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.inflight > 0 {
		w.cond.Wait()
	}
	return w.werr
}

// asyncErr reports the sticky in-flight error without waiting.
func (w *Writer) asyncErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.werr
}

// Close flushes the remaining partial block, drains the in-flight
// window, and seals the file. The writer is marked closed and its buffer
// released even when a flush fails, so a retried Close is a no-op rather
// than a second flush or nn.complete.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	var flushErr error
	if len(w.buf) > 0 {
		if w.par <= 1 {
			flushErr = w.flushBlock(w.buf, nil)
		} else if flushErr = w.asyncErr(); flushErr == nil {
			var lbs []dfs.LocatedBlock
			lbs, flushErr = w.c.addBlocks(w.path, []int64{int64(len(w.buf))}, w.c.blockSums(w.buf))
			if flushErr == nil {
				flushErr = w.dispatch(lbs[0], w.buf)
			}
		}
	}
	if err := w.drain(); flushErr == nil {
		flushErr = err
	}
	w.buf = nil
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
func (c *Client) writeBlockWithFailover(path string, lb dfs.LocatedBlock, data []byte, eager bool) error {
	var exclude []string
	for attempt := 1; ; attempt++ {
		err := c.sendBlock(lb, data, eager)
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
// failed). When neither identifies a node, the entry node is blamed:
// retrying through it is what just failed.
func failedPipelineNodes(err error, lb dfs.LocatedBlock) []string {
	var ce *transport.CallError
	if errors.As(err, &ce) && ce.Addr != "" {
		return []string{ce.Addr}
	}
	var re *transport.RemoteError
	if errors.As(err, &re) {
		if i := strings.LastIndex(re.Msg, "pipeline to "); i >= 0 {
			rest := re.Msg[i+len("pipeline to "):]
			if j := strings.IndexByte(rest, ':'); j > 0 {
				return []string{rest[:j]}
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
// its replica and forwards down the chain. eager asks the datanodes to
// overlap their local store with the downstream forward.
func (c *Client) sendBlock(lb dfs.LocatedBlock, data []byte, eager bool) error {
	if len(lb.Nodes) == 0 {
		return fmt.Errorf("dfs client: block %d allocated with no targets", lb.Block.ID)
	}
	req := dfs.WriteBlockReq{Block: lb.Block, Data: data, Checksum: lb.Checksum, Pipeline: lb.Nodes[1:], EagerPipeline: eager}
	dc, err := c.datanode(lb.Nodes[0])
	if err != nil {
		return err
	}
	if _, err := transport.Call[dfs.WriteBlockResp](dc, "dn.writeBlock", req); err != nil {
		return fmt.Errorf("dfs client: write block %d via %s: %w", lb.Block.ID, lb.Nodes[0], err)
	}
	return nil
}

// blockSums wraps one real-data block's CRC32C for an allocation
// request; nil when checksums are disabled or the block is synthetic.
func (c *Client) blockSums(data []byte) []uint32 {
	if !c.checksums || len(data) == 0 {
		return nil
	}
	return []uint32{dfs.Checksum(data)}
}

// addBlocks allocates len(sizes) blocks for path in one namenode round
// trip (a plain nn.addBlock when the window holds a single block),
// registering each block's write-time checksum (sums may be nil). The
// request carries a fresh request ID, so the transport-level retry in
// callNN cannot double-allocate: a retry of a request whose reply was
// lost gets the blocks the first attempt allocated.
func (c *Client) addBlocks(path string, sizes []int64, sums []uint32) ([]dfs.LocatedBlock, error) {
	reqID := c.allocSeq.Add(1)
	if len(sizes) == 1 {
		req := dfs.AddBlockReq{Path: path, Size: sizes[0], ReqID: reqID}
		if len(sums) > 0 {
			req.Checksum = sums[0]
		}
		resp, err := callNN[dfs.AddBlockResp](c, "nn.addBlock", req)
		if err != nil {
			return nil, fmt.Errorf("dfs client: addBlock: %w", err)
		}
		return []dfs.LocatedBlock{resp.Located}, nil
	}
	resp, err := callNN[dfs.AddBlocksResp](c, "nn.addBlocks", dfs.AddBlocksReq{Path: path, Sizes: sizes, Checksums: sums, ReqID: reqID})
	if err != nil {
		return nil, fmt.Errorf("dfs client: addBlocks: %w", err)
	}
	if len(resp.Located) != len(sizes) {
		return nil, fmt.Errorf("dfs client: addBlocks returned %d blocks, want %d", len(resp.Located), len(sizes))
	}
	return resp.Located, nil
}

// WriteFile creates path and writes data in one call.
func (c *Client) WriteFile(path string, data []byte, blockSize int64, replication int) error {
	w, err := c.Create(path, blockSize, replication)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		_ = w.Close() // drain in-flight blocks; the write already failed
		return err
	}
	return w.Close()
}

// WriteSyntheticFile creates path with size bytes of synthetic data.
func (c *Client) WriteSyntheticFile(path string, size int64, blockSize int64, replication int) error {
	w, err := c.Create(path, blockSize, replication)
	if err != nil {
		return err
	}
	if err := w.WriteSynthetic(size); err != nil {
		_ = w.Close()
		return err
	}
	return w.Close()
}
