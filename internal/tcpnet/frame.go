package tcpnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// dialRetry is the dial loop node processes use to reach neighbors
// before StartAt: it dials addr and writes hello, retrying every retry
// until both succeed, deadline passes (zero: never) or stop closes.
func dialRetry(addr string, hello []byte, retry time.Duration, deadline time.Time, stop <-chan struct{}) (net.Conn, error) {
	for {
		c, err := net.DialTimeout("tcp", addr, retry*4)
		if err == nil {
			if _, err = c.Write(hello); err == nil {
				return c, nil
			}
			c.Close()
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, fmt.Errorf("tcpnet: dial %s: %w", addr, err)
		}
		select {
		case <-stop:
			return nil, fmt.Errorf("tcpnet: dial %s: shut down", addr)
		case <-time.After(retry):
		}
	}
}

// WriteFrame sends one [len:4][payload] frame — the generic framing
// under the node plane, which prefixes the payload with a sender ID. The
// write is a single Write call, so concurrent writers need external
// serialization.
func WriteFrame(c net.Conn, payload []byte) error {
	buf := make([]byte, 4, 4+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	_, err := c.Write(append(buf, payload...))
	return err
}

// ReadFrame reads one [len:4][payload] frame. max bounds the payload
// size (≤ 0 means the package's 1 MiB default); an oversized length is a
// protocol violation and returns an error without consuming the payload,
// after which the connection should be dropped.
func ReadFrame(c net.Conn, max int) ([]byte, error) {
	if max <= 0 {
		max = maxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > uint32(max) {
		return nil, fmt.Errorf("tcpnet: frame of %d bytes exceeds the %d-byte bound", size, max)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(c, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
