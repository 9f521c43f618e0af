package server

import (
	"context"
	"fmt"
	"net"
	"time"
)

// Client is a minimal synchronous client for the frame protocol: one
// request in flight at a time, ID assignment, deadline plumbing. The load
// generator and the tests both drive the server through it, so protocol
// drift breaks loudly in both places. Not safe for concurrent use; open
// one Client per session.
type Client struct {
	fr     framer
	nextID uint64
	// req and resp are the frames in flight. They live here because a frame
	// the typed codec declines goes to encoding/json by reference: as locals
	// of Do each would be a heap allocation per request.
	req  Request
	resp Response
	// err is the first failure of Do. After one, the stream's position is
	// unknown — the response may still arrive, into the socket or the read
	// buffer, where the next Do would take it for its own — so the client
	// is finished and every later Do returns err; callers reconnect.
	err error
}

// Dial opens a session to addr, failing after timeout.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{fr: newFramer(conn)}, nil
}

// Close ends the session.
func (c *Client) Close() error { return c.fr.conn.Close() }

// Conn exposes the raw connection for chaos injection (slow writes,
// malformed frames, mid-request hangups).
func (c *Client) Conn() net.Conn { return c.fr.conn }

// Do sends one request and waits for its response. The ctx deadline, when
// present, bounds both the write and the read. An error from Do is final
// for the Client: later calls return the same error without touching the
// connection.
func (c *Client) Do(ctx context.Context, req Request) (Response, error) {
	if c.err != nil {
		return Response{}, c.err
	}
	resp, err := c.do(ctx, req)
	if err != nil {
		c.err = err
		return Response{}, err
	}
	return resp, nil
}

func (c *Client) do(ctx context.Context, req Request) (Response, error) {
	c.nextID++
	req.ID = c.nextID
	dl, _ := ctx.Deadline() // the zero time, when there is none, clears the deadline
	if err := c.fr.conn.SetDeadline(dl); err != nil {
		return Response{}, err
	}
	c.req = req
	if err := c.fr.write(&c.req); err != nil {
		return Response{}, err
	}
	c.resp = Response{}
	if _, _, err := c.fr.read(&c.resp, nil); err != nil {
		return Response{}, err
	}
	if c.resp.ID != req.ID {
		return Response{}, fmt.Errorf("server: response id %d for request %d", c.resp.ID, req.ID)
	}
	return c.resp, nil
}

// Create allocates an object and returns its OID.
func (c *Client) Create(ctx context.Context, size, slots int) (uint64, error) {
	resp, err := c.Do(ctx, Request{Op: OpCreate, Size: size, Slots: slots})
	if err != nil {
		return 0, err
	}
	if resp.Status != StatusOK {
		return 0, fmt.Errorf("server: create: %s (%s)", resp.Status, resp.Error)
	}
	return resp.OID, nil
}

// Set points oid's slot at dst (0 for nil), returning the old value.
func (c *Client) Set(ctx context.Context, oid uint64, slot int, dst uint64) (uint64, error) {
	resp, err := c.Do(ctx, Request{Op: OpSet, OID: oid, Slot: slot, Dst: dst})
	if err != nil {
		return 0, err
	}
	if resp.Status != StatusOK {
		return 0, fmt.Errorf("server: set: %s (%s)", resp.Status, resp.Error)
	}
	return resp.Old, nil
}

// Stats fetches the server's statistics snapshot.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	resp, err := c.Do(ctx, Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK || resp.Stats == nil {
		return nil, fmt.Errorf("server: stats: %s (%s)", resp.Status, resp.Error)
	}
	return resp.Stats, nil
}
