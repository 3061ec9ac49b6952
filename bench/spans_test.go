package main

import (
	"math"
	"testing"
)

// handBuilt is one ReadFile-like operation: a namenode lookup, then two
// block reads that overlap, the second of which makes its datanode call
// a peer.
//
//	root        [0 ........................................ 100]
//	 nn call      [5..15]  served [8..12]
//	 dn0 call              [20 ........ 60]  served [25 .... 55]
//	 dn1 call                   [40 .............. 90]  served [45 ... 85]
//	   dn1 -> dn2 forward                [50 ... 70]  served [55..65]
func handBuilt() []span {
	return []span{
		{Layer: layerClient, Name: "read_file", Side: sideRoot, Node: clientNode, Start: 0, End: 100},
		{Layer: layerTransport, Name: "nn.getLocations", Side: sideCaller, Node: clientNode, Peer: "nn", MsgID: 1, Start: 5, End: 15},
		{Layer: layerNameNode, Name: "nn.getLocations", Side: sideCallee, Node: "namenode", Peer: "nn", MsgID: 1, Start: 8, End: 12},
		{Layer: layerTransport, Name: "dn.readBlock", Side: sideCaller, Node: clientNode, Peer: "dn0", MsgID: 1, Start: 20, End: 60},
		{Layer: layerDataNode, Name: "dn.readBlock", Side: sideCallee, Node: "dn0", Peer: "dn0", MsgID: 1, Start: 25, End: 55},
		{Layer: layerTransport, Name: "dn.readBlock", Side: sideCaller, Node: clientNode, Peer: "dn1", MsgID: 1, Start: 40, End: 90},
		{Layer: layerDataNode, Name: "dn.readBlock", Side: sideCallee, Node: "dn1", Peer: "dn1", MsgID: 1, Start: 45, End: 85},
		{Layer: layerTransport, Name: "dn.writeBlock", Side: sideCaller, Node: "dn1", Peer: "dn2", MsgID: 7, Start: 50, End: 70},
		{Layer: layerDataNode, Name: "dn.writeBlock", Side: sideCallee, Node: "dn2", Peer: "dn2", MsgID: 7, Start: 55, End: 65},
		// Background traffic: never part of an operation.
		{Layer: layerTransport, Name: "nn.heartbeat", Side: sideCaller, Node: "dn0", Peer: "nn", MsgID: 9, Start: 30, End: 33},
		{Layer: layerNameNode, Name: "nn.heartbeat", Side: sideCallee, Node: "namenode", Peer: "nn", MsgID: 9, Start: 31, End: 32},
	}
}

func find(t *testing.T, spans []span, side, name, node string) int {
	t.Helper()
	for i, s := range spans {
		if s.Side == side && s.Name == name && s.Node == node {
			return i
		}
	}
	t.Fatalf("no %s span %s on %s", side, name, node)
	return -1
}

func TestAssembleNestsByCallAndContainment(t *testing.T) {
	spans, unplaced := assemble(handBuilt())
	if unplaced != 0 {
		t.Errorf("unplaced = %d, want 0", unplaced)
	}
	root := find(t, spans, sideRoot, "read_file", clientNode)
	for _, tc := range []struct {
		side, name, node              string
		parentSide, parentName, pNode string
	}{
		{sideCaller, "nn.getLocations", clientNode, sideRoot, "read_file", clientNode},
		{sideCallee, "nn.getLocations", "namenode", sideCaller, "nn.getLocations", clientNode},
		{sideCallee, "dn.readBlock", "dn0", sideCaller, "dn.readBlock", clientNode},
		{sideCaller, "dn.writeBlock", "dn1", sideCallee, "dn.readBlock", "dn1"},
		{sideCallee, "dn.writeBlock", "dn2", sideCaller, "dn.writeBlock", "dn1"},
	} {
		s := spans[find(t, spans, tc.side, tc.name, tc.node)]
		if s.Parent < 0 {
			t.Errorf("%s %s on %s has no parent", tc.side, tc.name, tc.node)
			continue
		}
		p := spans[s.Parent]
		if p.Side != tc.parentSide || p.Name != tc.parentName || p.Node != tc.pNode {
			t.Errorf("%s %s on %s: parent is %s %s on %s, want %s %s on %s",
				tc.side, tc.name, tc.node, p.Side, p.Name, p.Node, tc.parentSide, tc.parentName, tc.pNode)
		}
		if s.Trace != root {
			t.Errorf("%s %s on %s: trace %d, want the root %d", tc.side, tc.name, tc.node, s.Trace, root)
		}
	}
	hb := spans[find(t, spans, sideCaller, "nn.heartbeat", "dn0")]
	if hb.Parent != -1 || hb.Trace != -1 {
		t.Errorf("heartbeat nested under parent %d trace %d; background traffic belongs to no operation", hb.Parent, hb.Trace)
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans, _ := assemble(handBuilt())
	kids := childIndex(spans)
	for _, tc := range []struct {
		side, name, node string
		want             int64
	}{
		// Children cover [5,15] and [20,90] (the two reads overlap).
		{sideRoot, "read_file", clientNode, 100 - 10 - 70},
		{sideCaller, "nn.getLocations", clientNode, 10 - 4},
		{sideCallee, "dn.readBlock", "dn0", 30},
		{sideCallee, "dn.readBlock", "dn1", 40 - 20},
		{sideCaller, "dn.writeBlock", "dn1", 20 - 10},
		{sideCallee, "dn.writeBlock", "dn2", 10},
	} {
		i := find(t, spans, tc.side, tc.name, tc.node)
		if got := selfTime(i, spans, kids); got != tc.want {
			t.Errorf("self time of %s %s on %s = %d, want %d", tc.side, tc.name, tc.node, got, tc.want)
		}
	}
}

func TestAttributeSumsToRootTime(t *testing.T) {
	spans, _ := assemble(handBuilt())
	by := attribute(spans, childIndex(spans))
	var sum float64
	for _, ns := range by {
		sum += ns
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("layers sum to %v, want the root's 100 (%v)", sum, by)
	}
	if got := by[layerClient]; got != 20 {
		t.Errorf("client self time = %v, want 20", got)
	}
	// The lookup runs alone, so its 4 ns of handler time count in full.
	// The reads cover 70 ns with 90 ns of spans, so each of their
	// nanoseconds counts 7/9: dn0 30, dn1 20, dn2 10.
	if got, want := by[layerNameNode], 4.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("namenode time = %v, want %v", got, want)
	}
	if got, want := by[layerDataNode], 60*7.0/9; math.Abs(got-want) > 1e-9 {
		t.Errorf("datanode time = %v, want %v", got, want)
	}
}
