package catalog

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"hawq/internal/tx"
	"hawq/internal/types"
)

// Snapshot serialization: the payload of a checkpoint file and the
// bootstrap state shipped to a freshly attached standby.
//
//	magic "HAWQSNAP" | version (1) | uvarint nextOID | uvarint nextXID |
//	uvarint nTables | per table (sorted by name):
//	  uvarint len(name) | name | uvarint nextRow | uvarint nRows |
//	  per row (by ID): uvarint id | uvarint xmin | uvarint xmax |
//	                   uvarint len(enc) | enc (types.EncodeRow)
const (
	snapMagic   = "HAWQSNAP"
	snapVersion = 1
)

// Snapshot serializes the catalog. nextXID, when non-nil, is sampled
// AFTER every table is serialized and recorded as the restored manager's
// XID floor: every xmin the snapshot can contain was assigned before the
// sample, so all of them restore as committed — sampling before
// serialization would let a transaction that commits mid-snapshot land
// above the floor and lose its rows. committed filters row stamps:
// versions whose xmin is not committed are dropped and delete stamps
// from uncommitted transactions cleared, which is what a checkpoint
// wants (in-flight effects are re-derived from the log or discarded). A
// nil filter keeps every version verbatim — the full-fidelity copy a
// standby bootstraps from, relying on the shared CLOG for visibility.
func (c *Catalog) Snapshot(nextXID func() tx.XID, committed func(tx.XID) bool) []byte {
	c.mu.Lock()
	nextOID := c.nextOID
	names := make([]string, 0, len(c.sys))
	for name := range c.sys {
		names = append(names, name)
	}
	c.mu.Unlock()
	sort.Strings(names)

	var body []byte
	body = binary.AppendUvarint(body, uint64(len(names)))
	for _, name := range names {
		rows, nextRow := c.sys[name].state()
		sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
		kept := rows[:0]
		for _, r := range rows {
			if committed != nil {
				if !committed(r.xmin) {
					continue
				}
				if r.xmax != tx.InvalidXID && !committed(r.xmax) {
					r.xmax = tx.InvalidXID
				}
			}
			kept = append(kept, r)
		}
		body = binary.AppendUvarint(body, uint64(len(name)))
		body = append(body, name...)
		body = binary.AppendUvarint(body, nextRow)
		body = binary.AppendUvarint(body, uint64(len(kept)))
		for _, r := range kept {
			body = binary.AppendUvarint(body, r.id)
			body = binary.AppendUvarint(body, uint64(r.xmin))
			body = binary.AppendUvarint(body, uint64(r.xmax))
			enc := types.EncodeRow(nil, r.data)
			body = binary.AppendUvarint(body, uint64(len(enc)))
			body = append(body, enc...)
		}
	}
	var floor tx.XID
	if nextXID != nil {
		floor = nextXID()
	}
	buf := []byte(snapMagic)
	buf = append(buf, snapVersion)
	buf = binary.AppendUvarint(buf, uint64(nextOID))
	buf = binary.AppendUvarint(buf, uint64(floor))
	return append(buf, body...)
}

type snapReader struct {
	buf []byte
	err error
}

func (s *snapReader) uvarint(what string) uint64 {
	if s.err != nil {
		return 0
	}
	v, n := binary.Uvarint(s.buf)
	if n <= 0 {
		s.err = fmt.Errorf("catalog: snapshot: truncated %s", what)
		return 0
	}
	s.buf = s.buf[n:]
	return v
}

func (s *snapReader) bytes(n uint64, what string) []byte {
	if s.err != nil {
		return nil
	}
	if uint64(len(s.buf)) < n {
		s.err = fmt.Errorf("catalog: snapshot: truncated %s", what)
		return nil
	}
	out := s.buf[:n]
	s.buf = s.buf[n:]
	return out
}

// RestoreSnapshot loads a snapshot produced by Snapshot into this
// catalog, replacing the contents of every system table it names. It
// returns the nextXID recorded at snapshot time (the restored
// transaction manager's floor).
func (c *Catalog) RestoreSnapshot(data []byte) (tx.XID, error) {
	if len(data) < len(snapMagic)+1 || string(data[:len(snapMagic)]) != snapMagic {
		return 0, fmt.Errorf("catalog: snapshot: bad magic")
	}
	if v := data[len(snapMagic)]; v != snapVersion {
		return 0, fmt.Errorf("catalog: snapshot: unsupported version %d", v)
	}
	s := &snapReader{buf: data[len(snapMagic)+1:]}
	nextOID := s.uvarint("nextOID")
	nextXID := s.uvarint("nextXID")
	nTables := s.uvarint("table count")
	type tableState struct {
		t       *SysTable
		rows    []sysRow
		nextRow uint64
	}
	var states []tableState
	for i := uint64(0); i < nTables && s.err == nil; i++ {
		nameLen := s.uvarint("name length")
		name := string(s.bytes(nameLen, "name"))
		nextRow := s.uvarint("nextRow")
		nRows := s.uvarint("row count")
		if s.err != nil {
			break
		}
		t, ok := c.sys[name]
		if !ok {
			return 0, fmt.Errorf("catalog: snapshot names unknown table %q", name)
		}
		rows := make([]sysRow, 0, nRows)
		for j := uint64(0); j < nRows && s.err == nil; j++ {
			id := s.uvarint("row id")
			xmin := s.uvarint("xmin")
			xmax := s.uvarint("xmax")
			encLen := s.uvarint("row length")
			enc := s.bytes(encLen, "row data")
			if s.err != nil {
				break
			}
			row, _, err := types.DecodeRow(enc)
			if err != nil {
				return 0, fmt.Errorf("catalog: snapshot row decode: %w", err)
			}
			rows = append(rows, sysRow{id: id, xmin: tx.XID(xmin), xmax: tx.XID(xmax), data: row})
		}
		states = append(states, tableState{t: t, rows: rows, nextRow: nextRow})
	}
	if s.err != nil {
		return 0, s.err
	}
	// Decode fully validated before any table is touched: a corrupt
	// snapshot must not leave the catalog half-restored.
	for _, st := range states {
		st.t.restore(st.rows, st.nextRow)
	}
	c.mu.Lock()
	if int64(nextOID) > c.nextOID {
		c.nextOID = int64(nextOID)
	}
	c.mu.Unlock()
	return tx.XID(nextXID), nil
}

// DiscardUncommitted removes every row version created by a transaction
// the filter does not report committed and clears delete stamps from
// such transactions. Promotion runs it on the standby's replica so the
// failed primary's in-flight transactions vanish. It returns the number
// of versions touched.
func (c *Catalog) DiscardUncommitted(committed func(tx.XID) bool) int {
	c.mu.Lock()
	tables := make([]*SysTable, 0, len(c.sys))
	for _, t := range c.sys {
		tables = append(tables, t)
	}
	c.mu.Unlock()
	n := 0
	for _, t := range tables {
		n += t.discardUncommitted(committed)
	}
	return n
}

// Dump renders every row visible to the snapshot as a canonical sorted
// text form: the crash harness's equality witness. Two catalogs holding
// the same committed state dump byte-identically regardless of the
// physical order mutations arrived in.
func (c *Catalog) Dump(snap tx.Snapshot) string {
	c.mu.Lock()
	names := make([]string, 0, len(c.sys))
	for name := range c.sys {
		names = append(names, name)
	}
	c.mu.Unlock()
	sort.Strings(names)
	var b strings.Builder
	type version struct {
		id  uint64
		row types.Row
	}
	for _, name := range names {
		var vs []version
		c.sys[name].Select(snap, nil, func(id uint64, row types.Row) bool {
			vs = append(vs, version{id, row})
			return true
		})
		sort.Slice(vs, func(i, j int) bool { return vs[i].id < vs[j].id })
		for _, v := range vs {
			fmt.Fprintf(&b, "%s %d %s\n", name, v.id, v.row.String())
		}
	}
	return b.String()
}
