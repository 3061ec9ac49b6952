package transport

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/simclock"
)

// fuzzBlob is a test-only fast-path body: a tag plus bulk bytes, enough
// structure to exercise every field of the fast-unit format.
type fuzzBlob struct {
	Tag  string
	Data []byte
}

func (b *fuzzBlob) AppendFrame(buf []byte) []byte {
	buf = appendUvarintLen(buf, len(b.Tag))
	buf = append(buf, b.Tag...)
	buf = appendUvarintLen(buf, len(b.Data))
	return append(buf, b.Data...)
}

func (b *fuzzBlob) DecodeFrame(payload []byte) error {
	tag, rest, err := uvarintBytes(payload)
	if err != nil {
		return err
	}
	data, rest, err := uvarintBytes(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errFrame
	}
	b.Tag = string(tag)
	// Copy: payload is transport receive scratch (the Framer contract).
	b.Data = append([]byte(nil), data...)
	return nil
}

func appendUvarintLen(buf []byte, n int) []byte {
	// Tiny local helper so the test framer reads like the dfs ones.
	for x := uint64(n); ; {
		if x < 0x80 {
			return append(buf, byte(x))
		}
		buf = append(buf, byte(x)|0x80)
		x >>= 7
	}
}

// fuzzBulk is the test-only bulk body: the tag is its head, Data its
// bulk. Like the dfs block messages it adopts the pooled buffer a bulk
// unit hands it and copies out of a whole frame.
type fuzzBulk struct {
	Tag    string
	Data   []byte
	pooled bool
}

func (b *fuzzBulk) AppendHead(buf []byte) []byte {
	buf = appendUvarintLen(buf, len(b.Tag))
	return append(buf, b.Tag...)
}

func (b *fuzzBulk) Bulk() []byte { return b.Data }

func (b *fuzzBulk) AppendFrame(buf []byte) []byte {
	buf = appendUvarintLen(b.AppendHead(buf), len(b.Data))
	return append(buf, b.Data...)
}

func (b *fuzzBulk) DecodeHead(head, bulk []byte) error {
	tag, rest, err := uvarintBytes(head)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errFrame
	}
	b.Tag, b.Data, b.pooled = string(tag), bulk, bulk != nil
	return nil
}

func (b *fuzzBulk) DecodeFrame(payload []byte) error {
	tag, rest, err := uvarintBytes(payload)
	if err != nil {
		return err
	}
	data, rest, err := uvarintBytes(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errFrame
	}
	b.Tag, b.Data, b.pooled = string(tag), append([]byte(nil), data...), false
	return nil
}

var registerFuzzBlob = sync.OnceFunc(func() {
	RegisterFramer[fuzzBlob, *fuzzBlob]()
	RegisterType(fuzzBlob{})
	RegisterFramer[fuzzBulk, *fuzzBulk]()
	RegisterType(fuzzBulk{})
})

// bulkUnit frames head and bulk as one bulk unit, with the lengths the
// caller claims rather than the true ones, so seeds can lie.
func bulkUnit(head, bulk []byte, headLen, bulkLen int) []byte {
	unit := []byte{unitBulk}
	unit = appendUvarintLen(unit, headLen)
	unit = appendUvarintLen(unit, bulkLen)
	unit = append(unit, head...)
	return append(unit, bulk...)
}

// FuzzFastUnitPayload hammers the fast-unit decoder with arbitrary
// bytes: it must never panic, and whatever it accepts must survive a
// re-encode/decode round trip unchanged.
func FuzzFastUnitPayload(f *testing.F) {
	registerFuzzBlob()
	// Structured seed: a real request payload produced by the encoder.
	seed := appendFastUnitPayload(nil, &Message{
		ID:     7,
		Method: "dn.readBlock",
		Body:   fuzzBlob{Tag: "job-1", Data: []byte("block bytes")},
	}, mustLookupFramer(f, fuzzBlob{}))
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated mid-payload
	f.Add([]byte{})
	// The head of a bulk unit shares the envelope, so the same bytes are
	// also offered to the bulk decoder (below): a real head, one with
	// trailing bytes, and one naming a type that is not a BulkFramer.
	head, _ := appendBulkUnitHead(nil, &Message{
		ID: 9, Reply: true, Body: fuzzBulk{Tag: "job-1", Data: []byte("bulk")},
	}, mustLookupFramer(f, fuzzBulk{}))
	f.Add(head)
	f.Add(append(append([]byte(nil), head...), 0x00))
	f.Add(appendEnvelope(nil, &Message{ID: 9}, mustLookupFramer(f, fuzzBlob{})))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzBulkHead(t, data)
		m, err := decodeFastUnitPayload(data)
		if err != nil {
			return
		}
		body, ok := m.Body.(fuzzBlob)
		if !ok {
			// Some other registered framer type decoded; nothing further
			// to assert without knowing its shape.
			return
		}
		fi, _ := lookupFramer(body)
		re := appendFastUnitPayload(nil, &m, fi)
		m2, err := decodeFastUnitPayload(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded unit failed: %v", err)
		}
		b2 := m2.Body.(fuzzBlob)
		if m2.ID != m.ID || m2.Reply != m.Reply || m2.Method != m.Method ||
			m2.Err != m.Err || b2.Tag != body.Tag || !bytes.Equal(b2.Data, body.Data) {
			t.Fatalf("round trip changed message: %+v -> %+v", m, m2)
		}
	})
}

// fuzzBulkHead offers data to the bulk-unit decoder as a head, beside a
// pooled bulk buffer. A head it accepts must re-encode to a head that
// decodes to the same message, and the body must have adopted the very
// buffer it was given; a head it rejects must leave the buffer alone.
func fuzzBulkHead(t *testing.T, data []byte) {
	bulk := bufpool.Get(600)
	for i := range bulk {
		bulk[i] = byte(i)
	}
	defer bufpool.Put(bulk) // still ours either way: nothing below releases it
	m, err := decodeBulkUnit(data, bulk)
	if err != nil {
		return
	}
	body, ok := m.Body.(fuzzBulk)
	if !ok {
		return // some other registered bulk type
	}
	if !body.pooled || &body.Data[0] != &bulk[0] || len(body.Data) != len(bulk) {
		t.Fatal("decoded body did not adopt the buffer it was handed")
	}
	fi, _ := lookupFramer(body)
	head, reBulk := appendBulkUnitHead(nil, &m, fi)
	if &reBulk[0] != &bulk[0] {
		t.Fatal("Bulk() is not the body's own slice")
	}
	m2, err := decodeBulkUnit(head, reBulk)
	if err != nil {
		t.Fatalf("re-decode of re-encoded head failed: %v", err)
	}
	b2 := m2.Body.(fuzzBulk)
	if m2.ID != m.ID || m2.Reply != m.Reply || m2.Method != m.Method || m2.Err != m.Err || b2.Tag != body.Tag {
		t.Fatalf("round trip changed message: %+v -> %+v", m, m2)
	}
}

func mustLookupFramer(tb testing.TB, body any) *framerInfo {
	tb.Helper()
	fi, ok := lookupFramer(body)
	if !ok {
		tb.Fatalf("no framer registered for %T", body)
	}
	return fi
}

// FuzzTCPRecvStream feeds arbitrary bytes into a tcpConn's receive side:
// unit headers with unknown kinds, corrupted or oversized length
// prefixes, and truncated payloads must all surface as errors, never
// panics or giant allocations.
func FuzzTCPRecvStream(f *testing.F) {
	registerFuzzBlob()
	// A well-formed fast unit, so mutations explore the near-valid space.
	payload := appendFastUnitPayload(nil, &Message{
		ID:     1,
		Method: "echo",
		Body:   fuzzBlob{Tag: "t", Data: []byte("d")},
	}, mustLookupFramer(f, fuzzBlob{}))
	unit := []byte{unitFast}
	unit = appendUvarintLen(unit, len(payload))
	unit = append(unit, payload...)
	f.Add(unit)
	f.Add([]byte{0xFF, 0x00})     // unknown unit kind
	f.Add([]byte{unitFast, 0x05}) // promised 5 payload bytes, stream ends
	f.Add([]byte{unitGob, 0x00})  // zero-length gob unit
	// Bulk units: well formed, then each way the two lengths can lie.
	head, bulk := appendBulkUnitHead(nil, &Message{
		ID:     2,
		Method: "echo",
		Body:   fuzzBulk{Tag: "t", Data: bytes.Repeat([]byte{0xB7}, 700)},
	}, mustLookupFramer(f, fuzzBulk{}))
	f.Add(bulkUnit(head, bulk, len(head), len(bulk)))
	f.Add(bulkUnit(head, nil, len(head), 0))                          // empty bulk (synthetic block)
	f.Add(bulkUnit(head, bulk[:300], len(head), len(bulk)))           // truncated bulk
	f.Add(bulkUnit(head, nil, len(head), maxUnitSize+1))              // bulk length over the cap
	f.Add(bulkUnit(head, nil, maxHeadSize+1, 0))                      // head length over the cap
	f.Add(bulkUnit(head, bulk, len(bulk), len(head)))                 // lengths swapped
	f.Add(bulkUnit(append(head, 0x00), bulk, len(head)+1, len(bulk))) // trailing byte in the head
	f.Add(bulkUnit(payload, bulk, len(payload), len(bulk)))           // head is a whole fast payload
	f.Add(bulkUnit(head[:len(head)/2], bulk, len(head)/2, len(bulk))) // head cut mid-envelope
	f.Add([]byte{unitBulk, 0x05})                                     // stream ends inside the header
	f.Fuzz(func(t *testing.T, data []byte) {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			client.SetWriteDeadline(time.Now().Add(2 * time.Second))
			client.Write(data)
			client.Close()
		}()
		conn := newTCPConn(server, tcpConfig{fastPath: true})
		server.SetReadDeadline(time.Now().Add(2 * time.Second))
		for i := 0; i < 64; i++ { // bound: each Recv consumes ≥1 byte or errors
			if _, err := conn.Recv(); err != nil {
				break
			}
		}
		conn.Close()
		<-done
	})
}

// TestTCPFastGobInterop proves the cross-compat claim behind
// WithTCPFastPath: a fast-path sender and a gob-only sender interoperate
// on the same stream, because every conn decodes both unit kinds.
func TestTCPFastGobInterop(t *testing.T) {
	registerFuzzBlob()
	clock := simclock.NewReal()
	payload := bytes.Repeat([]byte{0xA5}, 1<<16)

	for _, tc := range []struct {
		name       string
		serverFast bool
		clientFast bool
	}{
		{"fastClient_gobServer", false, true},
		{"gobClient_fastServer", true, false},
		{"gobBoth", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snet := NewTCPNetwork(WithTCPFastPath(tc.serverFast))
			cnet := NewTCPNetwork(WithTCPFastPath(tc.clientFast))
			srv := NewServer(clock)
			srv.Handle("swap", func(arg any) (any, error) {
				b := arg.(fuzzBlob)
				return fuzzBlob{Tag: b.Tag + "/reply", Data: b.Data}, nil
			})
			l, err := snet.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			defer l.Close()
			srv.ServeBackground(l)
			defer srv.Close()

			c, err := Dial(clock, cnet, l.Addr(), WithCallTimeout(5*time.Second))
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer c.Close()
			got, err := Call[fuzzBlob](c, "swap", fuzzBlob{Tag: "req", Data: payload})
			if err != nil {
				t.Fatalf("Call: %v", err)
			}
			if got.Tag != "req/reply" || !bytes.Equal(got.Data, payload) {
				t.Errorf("swap reply corrupted: tag %q, %d bytes", got.Tag, len(got.Data))
			}
		})
	}
}
