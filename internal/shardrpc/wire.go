package shardrpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Frame header layout (little-endian, like every integer on this wire;
// 20 bytes):
//
//	offset 0  u32 magic "RBPC"
//	offset 4  u32 payload length
//	offset 8  u32 sequence number (echoed by replies)
//	offset 12 u8  frame type
//	offset 13 u8  flags (frame-type specific)
//	offset 14 u16 reserved (zero)
//	offset 16 u32 CRC-32C (Castagnoli) of the payload
const (
	headerSize = 20
	wireMagic  = 0x43504252 // "RBPC"
	// maxFrame bounds one payload; a full-mesh overlay snapshot of the
	// largest deployment fits in a fraction of this.
	maxFrame = 64 << 20
	// readBuffer is the size of a connection's buffered reader: one read
	// call brings in a header with its payload, and usually several frames
	// (a 512-pair answer batch is 4.6 KB). A frame that does not fit is
	// read into the connection's own growable buffer instead.
	readBuffer = 64 << 10
)

// Frame types. Direction is fixed per type; replies echo the request's
// sequence number.
const (
	ftAttach      byte = 1  // coord→worker: flags = connection role
	ftHello       byte = 2  // worker→coord: shard/topology contract
	ftBurst       byte = 3  // coord→worker: fail/repair events
	ftBurstAck    byte = 4  // worker→coord: events absorbed
	ftSnapshot    byte = 5  // worker→coord: epoch overlay (unsolicited)
	ftFlush       byte = 6  // coord→worker: barrier
	ftFlushAck    byte = 7  // worker→coord: epoch after barrier
	ftDrain       byte = 8  // coord→worker: settle queues
	ftDrainAck    byte = 9  // worker→coord
	ftQueryBatch  byte = 10 // coord→worker: src/dst pairs
	ftAnswerBatch byte = 11 // worker→coord: per-pair verdicts
	ftQuery       byte = 12 // coord→worker: one pair + optional probe edge
	ftAnswer      byte = 13 // worker→coord: full route + epoch + probe verdict
	ftStats       byte = 14 // coord→worker
	ftStatsAck    byte = 15 // worker→coord: engine.Stats
	ftPing        byte = 16 // coord→worker: health check
	ftPong        byte = 17 // worker→coord
)

// Connection roles carried in the ftAttach flags byte.
const (
	roleControl byte = 0 // bursts, flush, stats, snapshots back
	roleQuery   byte = 1 // query/answer traffic only
)

// Answer flag bits (ftAnswerBatch entries, ftAnswer). In an answer batch
// ansRoutable is the negation of what Stats().Unroutable counts: a route
// exists, or the pair is a self-pair, whose empty path costs 0 — the
// engine does not count those unroutable either.
const (
	ansRoutable       byte = 1 << 0
	ansDelivered      byte = 1 << 1
	ansFailedContains byte = 1 << 2
)

// Frame-level flag bits.
const (
	flagShed byte = 1 << 0 // ftAnswerBatch: whole batch refused at admission
)

// Conn frames one transport connection. Reads are single-goroutine
// (payloads are valid only until the next ReadFrame — the read buffers are
// reused) and go through one buffered reader; writes are internally locked
// so the worker's snapshot tap and ack writes can share the control
// connection without interleaving frames. A checksum mismatch drops the
// frame (the length prefix keeps the stream framed), counts it, and reads
// on — exactly the torn-frame behavior the chaos fault proves is caught
// downstream.
type Conn struct {
	nc   net.Conn
	br   *bufio.Reader
	rbuf []byte // payloads larger than the reader's buffer

	wmu  sync.Mutex
	wbuf []byte
	// corrupt, when non-nil, may mutate the payload of a frame after its
	// checksum is computed — the write-side fault-injection hook.
	corrupt func(typ byte, payload []byte)

	// torn counts the frames this end dropped. A client and a worker
	// point every connection they own at one shared counter.
	torn *atomic.Int64
}

// NewConn frames a transport connection.
func NewConn(nc net.Conn) *Conn { return newConn(nc, new(atomic.Int64)) }

// newConn frames a connection that counts its torn frames into torn.
func newConn(nc net.Conn, torn *atomic.Int64) *Conn {
	return &Conn{nc: nc, br: bufio.NewReaderSize(nc, readBuffer), torn: torn}
}

// Close closes the underlying connection (unblocking any reader).
func (c *Conn) Close() error { return c.nc.Close() }

// Torn reports how many checksum-failed frames this end has dropped.
func (c *Conn) Torn() int64 { return c.torn.Load() }

// ReadFrame returns the next intact frame. The payload slice aliases one
// of the connection's reusable buffers — the buffered reader's own when
// the frame fits in it, so a frame is not copied on its way in: it is
// valid only until the next ReadFrame. Torn frames (checksum mismatch) are
// counted and skipped.
func (c *Conn) ReadFrame() (typ byte, flags byte, seq uint32, payload []byte, err error) {
	for {
		hdr, err := c.br.Peek(headerSize)
		if err != nil {
			if err == io.EOF && len(hdr) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, 0, nil, err
		}
		if m := binary.LittleEndian.Uint32(hdr[0:]); m != wireMagic {
			return 0, 0, 0, nil, fmt.Errorf("shardrpc: bad frame magic %#x", m)
		}
		n := int(binary.LittleEndian.Uint32(hdr[4:]))
		if n > maxFrame {
			return 0, 0, 0, nil, fmt.Errorf("shardrpc: frame length %d exceeds limit", n)
		}
		// The header's fields are read out before the next Peek, which may
		// move the bytes hdr aliases.
		seq, typ, flags = binary.LittleEndian.Uint32(hdr[8:]), hdr[12], hdr[13]
		sum := binary.LittleEndian.Uint32(hdr[16:])
		if headerSize+n <= readBuffer {
			frame, err := c.br.Peek(headerSize + n)
			if err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return 0, 0, 0, nil, err
			}
			payload = frame[headerSize:]
			c.br.Discard(len(frame)) // cannot fail: the bytes are buffered
		} else {
			c.br.Discard(headerSize)
			c.rbuf = grow(c.rbuf, n)
			payload = c.rbuf
			if _, err := io.ReadFull(c.br, payload); err != nil {
				return 0, 0, 0, nil, err
			}
		}
		if checksum(payload) != sum {
			c.torn.Add(1)
			continue // torn frame: drop, stream stays framed
		}
		return typ, flags, seq, payload, nil
	}
}

// WriteFrame sends one frame; payload may be nil. The header and payload
// are coalesced into one reused buffer and written with a single call.
func (c *Conn) WriteFrame(typ, flags byte, seq uint32, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	n := headerSize + len(payload)
	if cap(c.wbuf) < n {
		c.wbuf = make([]byte, n)
	}
	b := c.wbuf[:n]
	binary.LittleEndian.PutUint32(b[0:], wireMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[8:], seq)
	b[12] = typ
	b[13] = flags
	b[14], b[15] = 0, 0
	binary.LittleEndian.PutUint32(b[16:], checksum(payload))
	copy(b[headerSize:], payload)
	if c.corrupt != nil {
		c.corrupt(typ, b[headerSize:])
	}
	_, err := c.nc.Write(b)
	return err
}

// castagnoli is the CRC-32C table: built once, and on amd64 and arm64 only
// a marker that sends crc32.Checksum to the CRC32 instruction.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the payload checksum: CRC-32C, which detects every burst of
// up to 32 flipped bits — any torn byte — and runs at memory speed
// (BenchmarkFrameChecksum: ~20 GB/s, against 0.8 GB/s for the byte-at-a-time
// FNV-1a it replaces and ~19 GB/s for a four-lane multiply-rotate over
// words, which detects nothing in particular).
//
//rbpc:hotpath
func checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// grow returns buf resized to n bytes, reallocating only when capacity
// demands — the cold half of the reused-buffer discipline (hot fillers
// then index into the result).
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}
