package simnet

import (
	"encoding/binary"
	"fmt"
	"io"
)

// MaxFrame bounds a control-channel message. The cluster ships env
// snapshots and image blobs, not bulk data; a frame claiming more than
// this is a corrupt or hostile peer and the read fails instead of
// allocating.
const MaxFrame = 64 << 20

// ErrFrameTooBig reports a control frame whose length prefix exceeds
// MaxFrame.
var ErrFrameTooBig = fmt.Errorf("simnet: control frame exceeds %d bytes", MaxFrame)

// MsgConn frames a Conn into length-prefixed messages — the cluster's
// node-to-node control channel. A stream Conn delivers a byte pipe;
// membership, replication, and migration traffic needs message
// boundaries, so every frame is a 4-byte big-endian length followed by
// the payload. MsgConn is not safe for concurrent Send or concurrent
// Recv; the cluster's control protocol is strictly request/response per
// connection.
type MsgConn struct {
	c   *Conn
	len [4]byte
}

// NewMsgConn wraps an established connection.
func NewMsgConn(c *Conn) *MsgConn { return &MsgConn{c: c} }

// Send writes one framed message.
func (m *MsgConn) Send(p []byte) error {
	if len(p) > MaxFrame {
		return ErrFrameTooBig
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(p)))
	if err := m.writeFull(hdr[:]); err != nil {
		return err
	}
	return m.writeFull(p)
}

// Recv reads one framed message. A peer close between frames surfaces
// as ErrClosed; a close mid-frame is a truncation error.
func (m *MsgConn) Recv() ([]byte, error) {
	if err := m.readFull(m.len[:], false); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(m.len[:])
	if n > MaxFrame {
		return nil, ErrFrameTooBig
	}
	p := make([]byte, n)
	if err := m.readFull(p, true); err != nil {
		return nil, err
	}
	return p, nil
}

// Close shuts the underlying connection down.
func (m *MsgConn) Close() error { return m.c.Close() }

func (m *MsgConn) writeFull(p []byte) error {
	for len(p) > 0 {
		n, err := m.c.Write(p)
		if err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}

// readFull fills p. mid marks a read past the first byte of a frame,
// where EOF means the peer died mid-message rather than between
// messages.
func (m *MsgConn) readFull(p []byte, mid bool) error {
	got := 0
	for got < len(p) {
		n, err := m.c.Read(p[got:])
		got += n
		if err != nil {
			if err == ErrClosed && (mid || got > 0) {
				return fmt.Errorf("simnet: control frame truncated at %d/%d bytes: %w",
					got, len(p), io.ErrUnexpectedEOF)
			}
			return err
		}
	}
	return nil
}
