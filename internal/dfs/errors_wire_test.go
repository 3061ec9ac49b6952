package dfs

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/transport"
)

// Every dfs sentinel a handler returns still matches errors.Is on the
// caller's side of either transport: bare, wrapped as handlers wrap it,
// and passed on inside a peer's remote error (a datanode relaying the
// failure of a pull, say). A message that merely mentions a sentinel
// before going on does not match it.
func TestSentinelErrorsCrossTheWire(t *testing.T) {
	sentinels := []error{ErrBusy, ErrChecksum, ErrBlockLength}
	wraps := map[string]func(error) error{
		"bare":    func(s error) error { return s },
		"wrapped": func(s error) error { return fmt.Errorf("datanode: read block 7 on dn1: %w", s) },
		"relayed": func(s error) error {
			peer := &transport.RemoteError{Method: "dn.readBlock", Msg: "datanode: read block 7: " + s.Error()}
			return fmt.Errorf("datanode: pull block 7: %w", peer)
		},
	}
	for _, tcp := range []bool{true, false} {
		name, addr := "inmem", "errsrv"
		clock := simclock.NewReal()
		var tnet transport.Network = transport.NewInmemNetwork(clock)
		if tcp {
			name, addr, tnet = "tcp", "127.0.0.1:0", transport.NewTCPNetwork()
		}
		t.Run(name, func(t *testing.T) {
			l, err := tnet.Listen(addr)
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			defer l.Close()
			srv := transport.NewServer(clock)
			for i, s := range sentinels {
				for kind, wrap := range wraps {
					err := wrap(s)
					srv.Handle(fmt.Sprintf("%s/%d", kind, i), func(any) (any, error) { return nil, err })
				}
				mention := fmt.Errorf("%w, and then something else", s)
				srv.Handle(fmt.Sprintf("mention/%d", i), func(any) (any, error) { return nil, mention })
			}
			srv.ServeBackground(l)
			defer srv.Close()
			c, err := transport.Dial(clock, tnet, l.Addr(), transport.WithCallTimeout(30*time.Second))
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer c.Close()

			for i, s := range sentinels {
				for kind := range wraps {
					_, err := transport.Call[GetInfoResp](c, fmt.Sprintf("%s/%d", kind, i), GetInfoReq{})
					var re *transport.RemoteError
					if !errors.As(err, &re) {
						t.Fatalf("%s %q: err = %v, want a RemoteError", kind, s, err)
					}
					for j, other := range sentinels {
						if got := errors.Is(err, other); got != (i == j) {
							t.Errorf("%s %q: errors.Is(err, %q) = %v", kind, s, other, got)
						}
					}
				}
				_, err := transport.Call[GetInfoResp](c, fmt.Sprintf("mention/%d", i), GetInfoReq{})
				if err == nil || errors.Is(err, s) {
					t.Errorf("a message that only mentions %q matched it: %v", s, err)
				}
			}
		})
	}
}
