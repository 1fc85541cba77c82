package shardrpc

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Frame header layout (little-endian, 20 bytes):
//
//	offset 0  u32 magic "RBPC"
//	offset 4  u32 payload length
//	offset 8  u32 sequence number (echoed by replies)
//	offset 12 u8  frame type
//	offset 13 u8  flags (frame-type specific)
//	offset 14 u16 reserved (zero)
//	offset 16 u32 FNV-1a checksum of the payload
const (
	headerSize = 20
	wireMagic  = 0x43504252 // "RBPC"
	// maxFrame bounds one payload; a full-mesh overlay snapshot of the
	// largest deployment fits in a fraction of this.
	maxFrame = 64 << 20
)

// Frame types. Direction is fixed per type; replies echo the request's
// sequence number.
const (
	ftAttach      byte = 1  // coord→worker: flags = connection role
	ftHello       byte = 2  // worker→coord: ring/topology contract
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

// Answer flag bits (ftAnswerBatch entries, ftAnswer).
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
// (payloads are valid only until the next ReadFrame — the read buffer is
// reused); writes are internally locked so the worker's snapshot tap and
// ack writes can share the control connection without interleaving
// frames. A checksum mismatch drops the frame (the length prefix keeps
// the stream framed), counts it, and reads on — exactly the torn-frame
// behavior the chaos fault proves is caught downstream.
type Conn struct {
	nc   net.Conn
	rbuf []byte
	hdr  [headerSize]byte

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
	return &Conn{nc: nc, torn: torn}
}

// Close closes the underlying connection (unblocking any reader).
func (c *Conn) Close() error { return c.nc.Close() }

// Torn reports how many checksum-failed frames this end has dropped.
func (c *Conn) Torn() int64 { return c.torn.Load() }

// ReadFrame returns the next intact frame. The payload slice aliases the
// connection's reusable buffer: it is valid only until the next
// ReadFrame. Torn frames (checksum mismatch) are counted and skipped.
func (c *Conn) ReadFrame() (typ byte, flags byte, seq uint32, payload []byte, err error) {
	for {
		if _, err = io.ReadFull(c.nc, c.hdr[:]); err != nil {
			return 0, 0, 0, nil, err
		}
		if getU32(c.hdr[:], 0) != wireMagic {
			return 0, 0, 0, nil, fmt.Errorf("shardrpc: bad frame magic %#x", getU32(c.hdr[:], 0))
		}
		n := int(getU32(c.hdr[:], 4))
		if n > maxFrame {
			return 0, 0, 0, nil, fmt.Errorf("shardrpc: frame length %d exceeds limit", n)
		}
		if cap(c.rbuf) < n {
			c.rbuf = make([]byte, n)
		}
		payload = c.rbuf[:n]
		if _, err = io.ReadFull(c.nc, payload); err != nil {
			return 0, 0, 0, nil, err
		}
		if fnv1a(payload) != getU32(c.hdr[:], 16) {
			c.torn.Add(1)
			continue // torn frame: drop, stream stays framed
		}
		return c.hdr[12], c.hdr[13], getU32(c.hdr[:], 8), payload, nil
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
	putU32(b, 0, wireMagic)
	putU32(b, 4, uint32(len(payload)))
	putU32(b, 8, seq)
	b[12] = typ
	b[13] = flags
	b[14], b[15] = 0, 0
	putU32(b, 16, fnv1a(payload))
	copy(b[headerSize:], payload)
	if c.corrupt != nil {
		c.corrupt(typ, b[headerSize:])
	}
	_, err := c.nc.Write(b)
	return err
}

// fnv1a is the payload checksum: FNV-1a 32-bit, hand-rolled so the frame
// read/write path stays allocation-free.
//
//rbpc:hotpath
func fnv1a(p []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(p); i++ {
		h ^= uint32(p[i])
		h *= 16777619
	}
	return h
}

// Fixed-offset little-endian primitives: the hot codec functions below
// write into buffers their callers have already grown, so the steady
// state query path never allocates.

//rbpc:hotpath
func putU32(b []byte, off int, v uint32) {
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
	b[off+2] = byte(v >> 16)
	b[off+3] = byte(v >> 24)
}

//rbpc:hotpath
func putU64(b []byte, off int, v uint64) {
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
	b[off+2] = byte(v >> 16)
	b[off+3] = byte(v >> 24)
	b[off+4] = byte(v >> 32)
	b[off+5] = byte(v >> 40)
	b[off+6] = byte(v >> 48)
	b[off+7] = byte(v >> 56)
}

//rbpc:hotpath
func getU32(b []byte, off int) uint32 {
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
}

//rbpc:hotpath
func getU64(b []byte, off int) uint64 {
	return uint64(b[off]) | uint64(b[off+1])<<8 | uint64(b[off+2])<<16 | uint64(b[off+3])<<24 |
		uint64(b[off+4])<<32 | uint64(b[off+5])<<40 | uint64(b[off+6])<<48 | uint64(b[off+7])<<56
}

// grow returns buf resized to n bytes, reallocating only when capacity
// demands — the cold half of the reused-buffer discipline (hot fillers
// then index into the result).
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}
