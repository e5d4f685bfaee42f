package client

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"hawq/internal/types"
)

// Conn is a client connection to a HAWQ server.
type Conn struct {
	c    net.Conn
	rw   *bufio.ReadWriter
	addr string
	// key is the server-issued backend key identifying this session in
	// cancel requests.
	key uint64
}

// Result is one statement's outcome on the client side.
type Result struct {
	Schema *types.Schema
	Rows   []types.Row
	Tag    string
}

// Connect dials the server, records the backend key, and waits for
// ready.
func Connect(addr string) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	conn := &Conn{
		c:    c,
		rw:   bufio.NewReadWriter(bufio.NewReader(c), bufio.NewWriter(c)),
		addr: addr,
	}
	for {
		typ, payload, err := readMsg(conn.rw)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("client: bad greeting (%v)", err)
		}
		switch typ {
		case MsgBackendKey:
			if len(payload) == 8 {
				conn.key = binary.BigEndian.Uint64(payload)
			}
		case MsgReady:
			return conn, nil
		default:
			c.Close()
			return nil, fmt.Errorf("client: unexpected greeting message %q", typ)
		}
	}
}

// Cancel asks the server to abort the statement this connection is
// currently executing. As in PostgreSQL, the request travels on a
// fresh connection carrying the backend key — the original connection
// is busy streaming the query — so it is safe to call from another
// goroutine while Query blocks. A no-op if nothing is running.
func (c *Conn) Cancel() error {
	cc, err := net.DialTimeout("tcp", c.addr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("client: cancel: %w", err)
	}
	defer cc.Close()
	rw := bufio.NewReadWriter(bufio.NewReader(cc), bufio.NewWriter(cc))
	// Consume the greeting (the cancel connection gets its own key).
	for {
		typ, _, err := readMsg(rw)
		if err != nil {
			return fmt.Errorf("client: cancel: %w", err)
		}
		if typ == MsgReady {
			break
		}
	}
	var keyBuf [8]byte
	binary.BigEndian.PutUint64(keyBuf[:], c.key)
	if err := writeMsg(rw, MsgCancel, keyBuf[:]); err != nil {
		return fmt.Errorf("client: cancel: %w", err)
	}
	return rw.Flush()
}

// Query sends SQL (possibly several statements) and collects the
// results, one per statement.
func (c *Conn) Query(sql string) ([]*Result, error) {
	if err := writeMsg(c.rw, MsgQuery, []byte(sql)); err != nil {
		return nil, err
	}
	if err := c.rw.Flush(); err != nil {
		return nil, err
	}
	var out []*Result
	cur := &Result{}
	for {
		typ, payload, err := readMsg(c.rw)
		if err != nil {
			return nil, err
		}
		switch typ {
		case MsgRowDesc:
			schema, err := decodeSchema(payload)
			if err != nil {
				return nil, err
			}
			cur.Schema = schema
		case MsgDataRow:
			row, _, err := types.DecodeRow(payload)
			if err != nil {
				return nil, err
			}
			cur.Rows = append(cur.Rows, row)
		case MsgComplete:
			cur.Tag = string(payload)
			out = append(out, cur)
			cur = &Result{}
		case MsgError:
			// Drain to ready, then surface the error.
			for {
				t2, _, err2 := readMsg(c.rw)
				if err2 != nil || t2 == MsgReady {
					break
				}
			}
			return out, fmt.Errorf("server: %s", payload)
		case MsgReady:
			return out, nil
		default:
			return nil, fmt.Errorf("client: unexpected message %q", typ)
		}
	}
}

// readUnit collects one ready-terminated response unit, returning the
// result (when the unit carried one) or the server's error.
func (c *Conn) readUnit() (*Result, error) {
	cur := &Result{}
	var serverErr error
	for {
		typ, payload, err := readMsg(c.rw)
		if err != nil {
			return nil, err
		}
		switch typ {
		case MsgRowDesc:
			schema, err := decodeSchema(payload)
			if err != nil {
				return nil, err
			}
			cur.Schema = schema
		case MsgDataRow:
			row, _, err := types.DecodeRow(payload)
			if err != nil {
				return nil, err
			}
			cur.Rows = append(cur.Rows, row)
		case MsgComplete:
			cur.Tag = string(payload)
		case MsgParseOK:
			// The acknowledgement carries no data.
		case MsgError:
			serverErr = fmt.Errorf("server: %s", payload)
		case MsgReady:
			return cur, serverErr
		default:
			return nil, fmt.Errorf("client: unexpected message %q", typ)
		}
	}
}

// Prepare registers a named prepared statement via the extended
// protocol's Parse message. The SQL may use $1..$n placeholders.
func (c *Conn) Prepare(name, sql string) error {
	if err := writeMsg(c.rw, MsgParse, encodeParse(name, sql)); err != nil {
		return err
	}
	if err := c.rw.Flush(); err != nil {
		return err
	}
	_, err := c.readUnit()
	return err
}

// ExecPrepared runs a prepared statement with the given argument
// values: one Execute message out, one unit back.
func (c *Conn) ExecPrepared(name string, args ...types.Datum) (*Result, error) {
	if err := writeMsg(c.rw, MsgExecute, encodeExecute(name, args)); err != nil {
		return nil, err
	}
	if err := c.rw.Flush(); err != nil {
		return nil, err
	}
	return c.readUnit()
}

// Deallocate drops a prepared statement ("" drops all), via simple
// query.
func (c *Conn) Deallocate(name string) error {
	if name == "" {
		_, err := c.QueryOne("DEALLOCATE ALL")
		return err
	}
	_, err := c.QueryOne("DEALLOCATE " + name)
	return err
}

// Set changes a session setting (work_mem, resource_queue,
// statement_timeout, ...). The value travels single-quoted so sizes
// like "64kB" survive the round trip.
func (c *Conn) Set(name, value string) error {
	_, err := c.QueryOne(fmt.Sprintf("SET %s = '%s'", name, value))
	return err
}

// QueryOne runs SQL and returns the last statement's result.
func (c *Conn) QueryOne(sql string) (*Result, error) {
	res, err := c.Query(sql)
	if err != nil {
		return nil, err
	}
	if len(res) == 0 {
		return &Result{}, nil
	}
	return res[len(res)-1], nil
}

// Close sends a terminate message (best effort) and closes the socket,
// returning the first error encountered.
func (c *Conn) Close() error {
	err := writeMsg(c.rw, MsgTerminate, nil)
	if ferr := c.rw.Flush(); err == nil {
		err = ferr
	}
	if cerr := c.c.Close(); err == nil {
		err = cerr
	}
	return err
}
