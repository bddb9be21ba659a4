package sim

import (
	"errors"
	"net"
	"time"
)

// Conn is a write-only, datagram-style net.Conn from one simulated
// process to another over a Network — the socket a component that dials
// its peers (federation.Config.Dial) writes to on the simulator. Each
// Write is one frame. All frames written at one simulated instant travel
// as one Network message: one partition check, one loss draw and one
// delay draw for the bundle, handed to deliver together, in write order,
// at the arrival time. Writes at different instants are separate
// messages. Like the Network, a Conn is not safe for concurrent use.
type Conn struct {
	net      *Network
	from, to string
	deliver  func(frames [][]byte, arrived time.Time)
	closed   bool
	// open is the message of instant at until it is delivered; later
	// writes at that instant join it.
	open *[][]byte
	at   time.Time
}

// Dial returns a Conn from process from to process to whose messages
// arrive through deliver.
func (n *Network) Dial(from, to string, deliver func(frames [][]byte, arrived time.Time)) *Conn {
	return &Conn{net: n, from: from, to: to, deliver: deliver}
}

// Write copies p into the current instant's message; the first write
// of an instant sends it.
func (c *Conn) Write(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	c.net.counters.Frames++
	if now := c.net.sim.Now(); c.open == nil || !now.Equal(c.at) {
		frames := new([][]byte)
		c.open, c.at = frames, now
		c.net.Send(c.from, c.to, func(arrived time.Time) {
			if c.open == frames {
				c.open = nil
			}
			c.deliver(*frames, arrived)
		})
	}
	*c.open = append(*c.open, append([]byte(nil), p...))
	return len(p), nil
}

// Read always fails: a Conn only sends.
func (c *Conn) Read([]byte) (int, error) { return 0, errors.New("sim: Conn is write-only") }

// Close makes later writes fail; a message already sent still arrives.
func (c *Conn) Close() error { c.closed = true; return nil }

// LocalAddr returns the sending process's name.
func (c *Conn) LocalAddr() net.Addr { return Addr(c.from) }

// RemoteAddr returns the receiving process's name.
func (c *Conn) RemoteAddr() net.Addr { return Addr(c.to) }

// SetDeadline, SetReadDeadline and SetWriteDeadline do nothing: a
// write never blocks.
func (c *Conn) SetDeadline(time.Time) error      { return nil }
func (c *Conn) SetReadDeadline(time.Time) error  { return nil }
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }

// Addr is the net.Addr of a simulated process: its name.
type Addr string

// Network returns "sim".
func (Addr) Network() string { return "sim" }

// String returns the process name.
func (a Addr) String() string { return string(a) }
