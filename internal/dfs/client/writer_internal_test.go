package client

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dfs"
	"repro/internal/transport"
)

// TestFailedPipelineNodes names the dead node of a failed pipelined
// write from the datanodes' nested "pipeline to <addr>: …" errors, for
// in-memory names and for host:port addresses (whose own ':' must not
// cut the name short), and falls back to the entry node when the
// message names no pipeline member.
func TestFailedPipelineNodes(t *testing.T) {
	remote := func(msg string) error {
		return fmt.Errorf("dfs client: write block 7: %w", &transport.RemoteError{Method: "dn.writeBlock", Msg: msg})
	}
	inmem := dfs.LocatedBlock{Nodes: []string{"dn1", "dn10", "dn2"}}
	tcp := dfs.LocatedBlock{Nodes: []string{"127.0.0.1:40001", "127.0.0.1:40002", "127.0.0.1:40003"}}
	cases := []struct {
		name string
		err  error
		lb   dfs.LocatedBlock
		want []string
	}{
		{"inmem single", remote("datanode: pipeline to dn10: transport: closed"), inmem, []string{"dn10"}},
		{"inmem nested",
			remote("datanode: pipeline to dn10: transport: remote dn.writeBlock: datanode: pipeline to dn2: transport: closed"),
			inmem, []string{"dn2"}},
		{"tcp single", remote("datanode: pipeline to 127.0.0.1:40002: transport: closed"), tcp, []string{"127.0.0.1:40002"}},
		{"tcp nested",
			remote("datanode: pipeline to 127.0.0.1:40002: transport: remote dn.writeBlock: datanode: pipeline to 127.0.0.1:40003: transport: closed"),
			tcp, []string{"127.0.0.1:40003"}},
		{"unknown victim falls back to entry", remote("datanode: pipeline to 10.0.0.9:1: transport: closed"), tcp, []string{"127.0.0.1:40001"}},
		{"no pipeline text blames entry", remote("datanode: disk full"), tcp, []string{"127.0.0.1:40001"}},
		{"call error names its address",
			fmt.Errorf("wrapped: %w", &transport.CallError{Method: "dn.writeBlock", Addr: "127.0.0.1:40001", Err: transport.ErrClosed}),
			tcp, []string{"127.0.0.1:40001"}},
		{"no nodes", remote("datanode: disk full"), dfs.LocatedBlock{}, nil},
	}
	for _, tc := range cases {
		if got := failedPipelineNodes(tc.err, tc.lb); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: failedPipelineNodes = %q, want %q", tc.name, got, tc.want)
		}
	}
}
