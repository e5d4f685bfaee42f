// Package client implements a libpq-style wire protocol for HAWQ (§2.1:
// applications interact with the master through standard protocols;
// libpq is the one PostgreSQL and Greenplum use). The server side wraps
// an engine.Engine; the client side is a small Go driver. Message
// framing follows the PostgreSQL convention: a one-byte type tag and a
// 32-bit big-endian length, then the payload.
//
// Messages:
//
//	client → server:  'Q' simple query (SQL text)
//	                  'P' parse (prepare a named statement from SQL)
//	                  'E' execute (a prepared statement's name and the
//	                      argument row to run it with)
//	                  'X' terminate
//	                  'F' cancel request (8-byte backend key; sent on a
//	                      separate connection, as in PostgreSQL)
//	server → client:  'K' backend key data (8-byte cancellation key),
//	                  'T' row description, 'D' data row,
//	                  'C' command complete (tag), '1' parse complete,
//	                  'E' error, 'Z' ready
//
// ('E' appears in both directions with different meanings, as a type
// tag is only interpreted in the direction it travels.) Every client →
// server message is answered by a unit of responses terminated by
// ready, so messages may be pipelined. A prepared execution is one
// message and one unit: row description, data rows, complete, ready.
// There are no portals: libpq clients only ever bind the unnamed one,
// and binding it is what Execute's argument row does.
package client

import (
	"encoding/binary"
	"fmt"
	"io"

	"hawq/internal/types"
)

// Message type tags.
const (
	MsgQuery      = 'Q'
	MsgParse      = 'P'
	MsgExecute    = 'E'
	MsgTerminate  = 'X'
	MsgCancel     = 'F'
	MsgBackendKey = 'K'
	MsgRowDesc    = 'T'
	MsgDataRow    = 'D'
	MsgComplete   = 'C'
	MsgParseOK    = '1'
	MsgError      = 'E'
	MsgReady      = 'Z'
)

// maxMessage bounds a single protocol message.
const maxMessage = 64 << 20

// writeMsg frames one message into w. Both ends hand it a bufio.Writer,
// so a frame costs no write of its own: header and payload leave with
// whatever else the writer holds when it is flushed.
func writeMsg(w io.Writer, typ byte, payload []byte) error {
	hdr := [5]byte{typ}
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil || len(payload) == 0 {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readMsg reads one framed message.
func readMsg(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxMessage {
		return 0, nil, fmt.Errorf("client: message of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// appendString appends a uvarint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// readString reads a uvarint-length-prefixed string, returning the
// bytes consumed. It never reads past the buffer: malformed input is an
// error, not a panic (these decoders face untrusted peers).
func readString(buf []byte) (string, int, error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 || l > uint64(len(buf)-n) {
		return "", 0, fmt.Errorf("client: truncated string field")
	}
	return string(buf[n : n+int(l)]), n + int(l), nil
}

// encodeParse renders a Parse payload: statement name, then SQL text.
func encodeParse(name, sql string) []byte {
	return append(appendString(nil, name), sql...)
}

// decodeParse reverses encodeParse.
func decodeParse(buf []byte) (name, sql string, err error) {
	name, n, err := readString(buf)
	if err != nil {
		return "", "", fmt.Errorf("client: bad parse message: %w", err)
	}
	return name, string(buf[n:]), nil
}

// encodeExecute renders an Execute payload: the prepared statement's
// name, then the argument values as an encoded row.
func encodeExecute(stmt string, args []types.Datum) []byte {
	return types.EncodeRow(appendString(nil, stmt), types.Row(args))
}

// decodeExecute reverses encodeExecute. The argument row must end the
// payload.
func decodeExecute(buf []byte) (stmt string, args types.Row, err error) {
	stmt, n, err := readString(buf)
	if err != nil {
		return "", nil, fmt.Errorf("client: bad execute message: %w", err)
	}
	args, m, err := types.DecodeRow(buf[n:])
	if err != nil {
		return "", nil, fmt.Errorf("client: bad execute message: %w", err)
	}
	if n+m != len(buf) {
		return "", nil, fmt.Errorf("client: bad execute message: %d trailing bytes", len(buf)-n-m)
	}
	return stmt, args, nil
}

// encodeSchema renders a row description payload.
func encodeSchema(s *types.Schema) []byte {
	buf := binary.AppendUvarint(nil, uint64(s.Len()))
	for _, c := range s.Columns {
		buf = binary.AppendUvarint(buf, uint64(len(c.Name)))
		buf = append(buf, c.Name...)
		buf = append(buf, byte(c.Kind), byte(c.Scale))
	}
	return buf
}

// decodeSchema reverses encodeSchema.
func decodeSchema(buf []byte) (*types.Schema, error) {
	n, consumed := binary.Uvarint(buf)
	if consumed <= 0 {
		return nil, fmt.Errorf("client: bad row description")
	}
	pos := consumed
	cols := make([]types.Column, n)
	for i := range cols {
		l, c := binary.Uvarint(buf[pos:])
		if c <= 0 || pos+c+int(l)+2 > len(buf) {
			return nil, fmt.Errorf("client: truncated row description")
		}
		pos += c
		cols[i].Name = string(buf[pos : pos+int(l)])
		pos += int(l)
		cols[i].Kind = types.Kind(buf[pos])
		cols[i].Scale = int8(buf[pos+1])
		pos += 2
	}
	return &types.Schema{Columns: cols}, nil
}
