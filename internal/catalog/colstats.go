package catalog

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"hawq/internal/types"
)

// sketchBits is log2 of a sketch's registers: 2^10 four-bit registers,
// two to a byte, a standard error of about 3 %. A rank is capped at 15,
// which biases the estimate only past some 10^7 distinct values.
const sketchBits = 10

// colSketch is one column's NULLs, range and HyperLogLog sketch of the
// distinct values (Flajolet et al. 2007) over some lanes' rows.
type colSketch struct {
	nulls    int64
	min, max types.Datum                  // KindNull until the first non-NULL value
	regs     [1 << (sketchBits - 1)]uint8 // register i: the low nibble of byte i/2 if i is even
}

// add counts a value in the sketch, hashed as grouping hashes it
// (types.KeyWord) so the sketch tells values apart as GROUP BY does. The
// register is the hash's top bits, the rank the position of the first 1
// in the rest; a register keeps the largest rank, so a value counted
// again changes nothing. A NULL is no value to it.
func (c *colSketch) add(d *types.Datum) {
	if d.K == types.KindNull {
		return
	}
	h := types.Mix64(types.KeyWord(d))
	i, rank := h>>(64-sketchBits), uint8(min(bits.LeadingZeros64(h<<sketchBits)+1, 15))
	if r, shift := &c.regs[i/2], i%2*4; rank > *r>>shift&15 {
		*r = *r&^(15<<shift) | rank<<shift
	}
}

// extend widens [min, max] to take in [lo, hi].
func (c *colSketch) extend(lo, hi *types.Datum) {
	if lo.K != types.KindNull && (c.min.K == types.KindNull || types.Compare(*lo, c.min) < 0) {
		c.min = *lo
	}
	if hi.K != types.KindNull && (c.max.K == types.KindNull || types.Compare(*hi, c.max) > 0) {
		c.max = *hi
	}
}

// distinct estimates the distinct values counted: linear counting over
// the empty registers while the raw HyperLogLog estimate is small.
func (c *colSketch) distinct() float64 {
	var ranks [16]int
	for _, r := range c.regs {
		ranks[r&15]++
		ranks[r>>4]++
	}
	m, sum := float64(2*len(c.regs)), 0.0
	for r, n := range ranks {
		sum += math.Ldexp(float64(n), -r)
	}
	if e := 0.7213 / (1 + 1.079/m) * m * m / sum; e > 2.5*m || ranks[0] == 0 {
		return e
	}
	return m * math.Log(m/float64(ranks[0]))
}

// LaneStats is the statistics of every column of a lane, or of the lanes
// merged into it (DESIGN.md §19): the lane's writer keeps them and its
// hawq_aoseg row carries them.
type LaneStats struct {
	cols []colSketch
}

// OpenLaneStats returns the statistics of sf, a lane of a table of ncols
// columns, for its writer to add rows to; nil when the lane holds rows
// its statistics do not describe (it was registered without them).
func OpenLaneStats(sf SegFile, ncols int) *LaneStats {
	s := &LaneStats{cols: make([]colSketch, ncols)}
	if (sf.Tuples > 0 || sf.Stats != "") && !s.merge(sf.Stats) {
		return nil
	}
	return s
}

// Add counts one row (a row-oriented lane's writer does); a nil
// LaneStats counts nothing.
func (s *LaneStats) Add(row types.Row) {
	for i := 0; s != nil && i < len(row); i++ {
		c := &s.cols[i]
		if row[i].K == types.KindNull {
			c.nulls++
		}
		c.extend(&row[i], &row[i])
		c.add(&row[i])
	}
}

// PageStats is one column page as the storage writer's pass over it
// found it: NULLs, range, and the values its encoding stores (a run's
// value once, a dictionary's entries, a flat page's every row).
type PageStats struct {
	Nulls    int64
	Min, Max types.Datum // NULL for a page of NULLs
	Values   []types.Datum
}

// AddPage counts a page of column col as adding its rows one by one
// would, register for register; a nil LaneStats counts nothing.
func (s *LaneStats) AddPage(col int, p *PageStats) {
	if s == nil {
		return
	}
	c := &s.cols[col]
	c.nulls += p.Nulls
	c.extend(&p.Min, &p.Max)
	for i := range p.Values {
		c.add(&p.Values[i])
	}
}

// Encode returns the form SegFile.Stats carries, "" for a nil LaneStats:
// the length of an encoded row of every column's NULLs, min and max, that
// row, then every column's registers.
func (s *LaneStats) Encode() string {
	if s == nil {
		return ""
	}
	var head types.Row
	for i := range s.cols {
		head = append(head, types.NewInt64(s.cols[i].nulls), s.cols[i].min, s.cols[i].max)
	}
	row := types.EncodeRow(nil, head)
	buf := append(binary.AppendUvarint(make([]byte, 0, len(row)+len(s.cols)<<(sketchBits-1)+9), uint64(len(row))), row...)
	for i := range s.cols {
		buf = append(buf, s.cols[i].regs[:]...)
	}
	return string(buf)
}

// merge adds enc to s (which takes its width from the first it merges),
// each register keeping the larger rank: the sketch of the union. False
// when enc is empty, malformed or of another width.
func (s *LaneStats) merge(enc string) bool {
	n, k := binary.Uvarint([]byte(enc[:min(len(enc), binary.MaxVarintLen64)]))
	if k <= 0 || n > uint64(len(enc)-k) {
		return false
	}
	head, size, err := types.DecodeRow([]byte(enc[k : k+int(n)]))
	regs := enc[k+int(n):]
	if err != nil || uint64(size) != n || len(head)%3 != 0 || len(regs) != len(head)/3<<(sketchBits-1) ||
		s.cols != nil && len(s.cols) != len(head)/3 {
		return false
	}
	if s.cols == nil {
		s.cols = make([]colSketch, len(head)/3)
	}
	for i := range s.cols {
		c, from := &s.cols[i], regs[i<<(sketchBits-1):(i+1)<<(sketchBits-1)]
		if c.nulls == 0 && c.min.K == types.KindNull {
			copy(c.regs[:], from) // c has counted nothing: every register is 0
		} else {
			for j, r := range []byte(from) {
				c.regs[j] = max(c.regs[j]&15, r&15) | max(c.regs[j]>>4, r>>4)<<4
			}
		}
		c.nulls += head[3*i].Int()
		c.extend(&head[3*i+1], &head[3*i+2])
	}
	return true
}

// colStats is the planner's view of statistics over rows rows: the
// distinct estimate rounded, and never above the non-NULL rows.
func (s *LaneStats) colStats(rows int64) []ColStats {
	out := make([]ColStats, len(s.cols))
	for i := range s.cols {
		c := &s.cols[i]
		out[i] = ColStats{
			NDistinct: min(math.Round(c.distinct()), float64(rows-c.nulls)),
			NullFrac:  float64(c.nulls) / float64(rows),
			Min:       c.min,
			Max:       c.max,
		}
	}
	return out
}

// lane is one visible hawq_aoseg version, as ColStatsOf reads it.
type lane struct {
	id     uint64 // the version's row ID: a replaced lane is a new version
	tuples int64
	stats  string
}

// merged is a table's statistics and the lane versions they merge.
type merged struct {
	lanes []lane
	stats []ColStats // nil: no rows, or a lane without statistics
}

// mergeLanes returns the statistics of table oid, whose visible lanes
// are lanes. Planning asks at every statement that joins, but lanes
// change only with a write, so each table's last merge is kept
// (Catalog.merged) while its lane versions are the visible ones.
func (c *Catalog) mergeLanes(oid int64, lanes []lane) []ColStats {
	if last, ok := c.merged.Load(oid); ok && slices.EqualFunc(last.(*merged).lanes, lanes, func(a, b lane) bool { return a.id == b.id }) {
		return last.(*merged).stats
	}
	var s LaneStats
	var rows int64
	described := true // every lane with rows has statistics
	for _, l := range lanes {
		rows += l.tuples
		described = described && (l.tuples == 0 || s.merge(l.stats))
	}
	m := &merged{lanes: lanes}
	if described && rows > 0 {
		m.stats = s.colStats(rows)
	}
	c.merged.Store(oid, m)
	return m.stats
}
