// Package pxf implements the Pivotal Extension Framework (§6): SQL
// access to external data stores through pluggable connectors. The
// plugin API mirrors §6.4 — Fragmenter, Accessor, Resolver, and the
// optional Analyzer — and the engine binding assigns fragments to
// segments with locality awareness and forwards pushed-down filters
// (§6.3).
//
// Built-in connectors: delimited text and JSON files on HDFS, a
// sequence-file-like binary record format, and an HBase-style in-memory
// store with region fragments and row-key filter pushdown.
package pxf

import (
	"fmt"
	"net/url"
	"sort"
	"strings"
	"sync"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/hdfs"
	"hawq/internal/plan"
	"hawq/internal/types"
)

// Location is a parsed pxf:// URI:
//
//	pxf://<service>/<path>?profile=<name>&k=v...
type Location struct {
	Service string
	Path    string
	Profile string
	Options map[string]string
	Raw     string
}

// ParseLocation parses a pxf:// external table location (§6.1).
func ParseLocation(raw string) (*Location, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("pxf: bad location %q: %w", raw, err)
	}
	if u.Scheme != "pxf" {
		return nil, fmt.Errorf("pxf: location %q must use the pxf:// scheme", raw)
	}
	loc := &Location{
		Service: u.Host,
		Path:    "/" + strings.TrimPrefix(u.Path, "/"),
		Options: map[string]string{},
		Raw:     raw,
	}
	for k, vs := range u.Query() {
		if len(vs) > 0 {
			loc.Options[strings.ToLower(k)] = vs[0]
		}
	}
	loc.Profile = loc.Options["profile"]
	if loc.Profile == "" {
		return nil, fmt.Errorf("pxf: location %q has no profile", raw)
	}
	return loc, nil
}

// Fragment is one parallel unit of work: an HDFS block, an HBase region,
// or whatever the connector splits its source into (§6.3).
type Fragment struct {
	// Index is the fragment's position in the source.
	Index int
	// Source names the piece (a file path, a region name).
	Source string
	// Offset/Length bound the fragment within Source when applicable.
	Offset, Length int64
	// Hosts are locality hints (DataNode names holding the data).
	Hosts []string
}

// Request carries the scan context to a connector: location, the target
// schema, and the pushed-down filter (§6.3; connectors are free to ignore
// it — the executor re-applies the scan's whole predicate).
type Request struct {
	Loc    *Location
	Schema *types.Schema
	// Filter lists comparisons of a table column (Col indexes Schema)
	// with a constant, every one of which a row the scan keeps satisfies:
	// the top-level conjuncts of the scan predicate that have that shape.
	Filter []expr.ColCmp
}

// Fragmenter lists a source's fragments (§6.4).
type Fragmenter interface {
	Fragments(req *Request) ([]Fragment, error)
}

// Accessor reads the records of one fragment (§6.4). Records are opaque
// bytes interpreted by the Resolver.
type Accessor interface {
	ReadFragment(req *Request, f Fragment) (RecordReader, error)
}

// RecordReader is one fragment's records, pulled one at a time. A reader
// holds the fragment's bytes and no lock or handle, so it is dropped, not
// closed.
type RecordReader interface {
	// Next returns the next record, valid until the following call, or
	// nil at the end of the fragment.
	Next() ([]byte, error)
}

// Resolver deserializes one record into a row matching the request
// schema (§6.4).
type Resolver interface {
	Resolve(req *Request, record []byte) (types.Row, error)
}

// Analyzer is the optional statistics plugin (§6.4).
type Analyzer interface {
	Estimate(req *Request) (rows, bytes int64, err error)
}

// Connector bundles the three mandatory plugins.
type Connector interface {
	Fragmenter
	Accessor
	Resolver
}

// Engine is the PXF runtime bound into the executor: it resolves
// profiles, assigns fragments to segments with locality awareness, and
// drives the plugin pipeline.
type Engine struct {
	FS *hdfs.FileSystem

	mu       sync.RWMutex
	profiles map[string]Connector
}

// NewEngine creates a PXF engine with the built-in connectors
// registered: "text", "csv", "json", "sequence" (HDFS formats) and
// "hbase" when an HBase store is supplied via RegisterHBase.
func NewEngine(fs *hdfs.FileSystem) *Engine {
	e := &Engine{FS: fs, profiles: map[string]Connector{}}
	e.Register("text", &TextConnector{FS: fs, Delimiter: "|"})
	e.Register("csv", &TextConnector{FS: fs, Delimiter: ","})
	e.Register("json", &JSONConnector{FS: fs})
	e.Register("sequence", &SeqConnector{FS: fs})
	return e
}

// Register adds a connector under a profile name (§6.4: user-built
// connectors plug in the same way).
func (e *Engine) Register(profile string, c Connector) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.profiles[strings.ToLower(profile)] = c
}

// connector resolves a profile.
func (e *Engine) connector(profile string) (Connector, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	c, ok := e.profiles[strings.ToLower(profile)]
	if !ok {
		return nil, fmt.Errorf("pxf: no connector for profile %q", profile)
	}
	return c, nil
}

// assignFragments maps fragments to segments: fragments whose locality
// hints name a segment's collocated DataNode go to that segment, the
// rest round-robin (§6.3 data locality awareness).
func assignFragments(frags []Fragment, numSegments int) map[int][]Fragment {
	out := make(map[int][]Fragment, numSegments)
	rr := 0
	for _, f := range frags {
		target := -1
		for _, h := range f.Hosts {
			// DataNode names are "dn<i>"; segment i is collocated with
			// dn(i % numDataNodes). Prefer the exact match.
			var dn int
			if _, err := fmt.Sscanf(h, "dn%d", &dn); err == nil && dn < numSegments {
				target = dn
				break
			}
		}
		if target < 0 {
			target = rr % numSegments
			rr++
		}
		out[target] = append(out[target], f)
	}
	return out
}

// OpenExternal implements the executor binding: next pulls the rows of
// the fragments assigned to one segment, projected to scan.Proj order.
func (e *Engine) OpenExternal(scan *plan.ExternalScan, segment int) (next func() (types.Row, error), err error) {
	loc, err := ParseLocation(scan.Table.Location)
	if err != nil {
		return nil, err
	}
	c, err := e.connector(loc.Profile)
	if err != nil {
		return nil, err
	}
	req := &Request{Loc: loc, Schema: scan.Table.Schema}
	for _, cmp := range expr.CompileFilter(scan.Filter).Cmps() {
		if cmp.Col < len(scan.Proj) {
			cmp.Col = scan.Proj[cmp.Col]
			req.Filter = append(req.Filter, cmp)
		}
	}
	frags, err := c.Fragments(req)
	if err != nil {
		return nil, err
	}
	sort.Slice(frags, func(i, j int) bool { return frags[i].Index < frags[j].Index })
	r := &rowReader{
		c: c, req: req, proj: scan.Proj, out: make(types.Row, len(scan.Proj)),
		frags: assignFragments(frags, scan.NumSegments)[segment],
	}
	return r.next, nil
}

// rowReader resolves and projects the records of a list of fragments,
// one fragment open at a time.
type rowReader struct {
	c     Connector
	req   *Request
	proj  []int
	out   types.Row
	frags []Fragment   // not yet opened
	at    Fragment     // the open one
	cur   RecordReader // nil between fragments
}

// next returns the next row, valid until the following call, or nil
// after the last fragment.
func (r *rowReader) next() (types.Row, error) {
	for {
		if r.cur == nil {
			if len(r.frags) == 0 {
				return nil, nil
			}
			r.at, r.frags = r.frags[0], r.frags[1:]
			cur, err := r.c.ReadFragment(r.req, r.at)
			if err != nil {
				return nil, r.fail(err)
			}
			r.cur = cur
		}
		record, err := r.cur.Next()
		if err != nil {
			return nil, r.fail(err)
		}
		if record == nil {
			r.cur = nil
			continue
		}
		row, err := r.c.Resolve(r.req, record)
		if err != nil {
			return nil, r.fail(err)
		}
		for i, idx := range r.proj {
			r.out[i] = row[idx]
		}
		return r.out, nil
	}
}

// fail names the fragment an error came from and ends the stream.
func (r *rowReader) fail(err error) error {
	r.cur, r.frags = nil, nil
	return fmt.Errorf("pxf: fragment %s[%d]: %w", r.at.Source, r.at.Index, err)
}

// AnalyzeExternal implements the engine's optional statistics hook: it
// consults the connector's Analyzer when present (§6.3, ANALYZE on PXF
// tables), falling back to a full count through the Accessor.
func (e *Engine) AnalyzeExternal(desc *catalog.TableDesc) (int64, int64, error) {
	loc, err := ParseLocation(desc.Location)
	if err != nil {
		return 0, 0, err
	}
	c, err := e.connector(loc.Profile)
	if err != nil {
		return 0, 0, err
	}
	req := &Request{Loc: loc, Schema: desc.Schema}
	if an, ok := c.(Analyzer); ok {
		return an.Estimate(req)
	}
	frags, err := c.Fragments(req)
	if err != nil {
		return 0, 0, err
	}
	var rows, bytes int64
	for _, f := range frags {
		r, err := c.ReadFragment(req, f)
		if err != nil {
			return 0, 0, err
		}
		for {
			record, err := r.Next()
			if err != nil {
				return 0, 0, err
			}
			if record == nil {
				break
			}
			rows++
			bytes += int64(len(record))
		}
	}
	return rows, bytes, nil
}
