package main

import (
	"sort"
)

// backgroundMethods are RPCs no client operation causes: datanode
// liveness and block reports. They never nest under a root.
var backgroundMethods = map[string]bool{
	"nn.heartbeat":   true,
	"nn.register":    true,
	"nn.blockReport": true,
	"nn.epoch":       true,
}

// assemble links the spans of a single-worker traced run into trees and
// returns how many spans found no parent (background traffic excluded).
//
//   - A root contains the caller-side spans its client made (by time:
//     one worker runs one operation at a time).
//   - A callee-side span nests under the caller-side span with the same
//     connection, method and message ID that contains it.
//   - Anything else a server records (a datanode forwarding down the
//     write pipeline, the namenode commanding a slave, a WAL append)
//     nests under the tightest callee-side span on that node that
//     contains it.
//
// Spans are renumbered: ID is the index in the returned slice, Parent
// is -1 for roots and unplaced spans, Trace is the root's ID.
func assemble(spans []span) (out []span, unplaced int) {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for i := range spans {
		spans[i].ID, spans[i].Parent, spans[i].Trace = i, -1, -1
	}

	var roots []int
	type callKey struct {
		peer, method string
		id           uint64
	}
	callers := make(map[callKey][]int)
	calleesByNode := make(map[string][]int)
	for i, s := range spans {
		switch s.Side {
		case sideRoot:
			roots = append(roots, i)
			spans[i].Trace = i
		case sideCaller:
			k := callKey{s.Peer, s.Name, s.MsgID}
			callers[k] = append(callers[k], i)
		case sideCallee:
			calleesByNode[s.Node] = append(calleesByNode[s.Node], i)
		}
	}
	contains := func(outer, inner *span) bool {
		return outer.Start <= inner.Start && inner.End <= outer.End
	}
	// tightest returns the latest-starting candidate that contains s.
	// cands are in start order.
	tightest := func(cands []int, s *span) int {
		hi := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].Start > s.Start })
		for k := hi - 1; k >= 0; k-- {
			if c := cands[k]; c != s.ID && contains(&spans[c], s) {
				return c
			}
		}
		return -1
	}
	// rootAt returns the root running when s started. A call the client
	// finishes in the background (a batched read notification) may end
	// after its operation returned; it still belongs to it.
	rootAt := func(s *span) int {
		k := sort.Search(len(roots), func(k int) bool { return spans[roots[k]].Start > s.Start }) - 1
		if k >= 0 && s.Start <= spans[roots[k]].End {
			return roots[k]
		}
		return -1
	}

	for i := range spans {
		s := &spans[i]
		switch {
		case s.Side == sideRoot:
		case s.Side == sideCaller && s.Node == clientNode:
			s.Parent = rootAt(s)
		case s.Side == sideCallee:
			s.Parent = tightest(callers[callKey{s.Peer, s.Name, s.MsgID}], s)
		case backgroundMethods[s.Name]:
		default:
			s.Parent = tightest(calleesByNode[s.Node], s)
		}
	}
	for i := range spans {
		top := i
		for spans[top].Parent >= 0 {
			top = spans[top].Parent
		}
		if spans[top].Side == sideRoot {
			spans[i].Trace = top
		} else if !backgroundMethods[spans[i].Name] {
			unplaced++
		}
	}
	return spans, unplaced
}

// childIndex lists each span's children, in start order.
func childIndex(spans []span) [][]int {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	return kids
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent *span, spans []span, kids []int) int64 {
	var total, reach int64
	reach = parent.Start
	for _, k := range kids { // start order
		s, e := spans[k].Start, spans[k].End
		if s < reach {
			s = reach
		}
		if e > parent.End {
			e = parent.End
		}
		if e > s {
			total += e - s
			reach = e
		}
	}
	return total
}

// selfTime is a span's duration minus the part of that interval its
// child spans cover.
func selfTime(i int, spans []span, kids [][]int) int64 {
	return spans[i].dur() - covered(&spans[i], spans, kids[i])
}

// attribute splits every root's duration among layers. A span keeps its
// self time. Children that overlap in time (the striped block reads of
// one ReadFile) share the wall time they cover together, in proportion
// to their durations, so parallel work accounts for the time it took
// and not for its multiple; a child that ran alone keeps all of its
// own. By construction the layer times of one tree sum to its root's
// duration.
func attribute(spans []span, kids [][]int) map[string]float64 {
	byLayer := make(map[string]float64)
	var walk func(i int, weight float64)
	walk = func(i int, weight float64) {
		p := &spans[i]
		byLayer[p.Layer] += weight * float64(p.dur()-covered(p, spans, kids[i]))
		// Cut the children (in start order) into runs that overlap.
		for lo := 0; lo < len(kids[i]); {
			hi, reach := lo+1, spans[kids[i][lo]].End
			for hi < len(kids[i]) && spans[kids[i][hi]].Start < reach {
				if e := spans[kids[i][hi]].End; e > reach {
					reach = e
				}
				hi++
			}
			run := kids[i][lo:hi]
			var sum int64
			for _, k := range run {
				sum += spans[k].dur()
			}
			if sum > 0 {
				share := weight * float64(covered(p, spans, run)) / float64(sum)
				for _, k := range run {
					walk(k, share)
				}
			}
			lo = hi
		}
	}
	for i, s := range spans {
		if s.Side == sideRoot {
			walk(i, 1)
		}
	}
	return byLayer
}
