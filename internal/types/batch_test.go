package types

import (
	"bytes"
	"reflect"
	"testing"
)

func batchTestRows() []Row {
	return []Row{
		{NewInt64(1), NewString("alpha"), Null},
		{NewInt64(2), NewString(""), NewFloat64(2.5)},
		{NewInt64(3), Null, NewFloat64(-1)},
	}
}

func TestBatchAppendAndViews(t *testing.T) {
	rows := batchTestRows()
	b := GetBatch(0)
	defer PutBatch(b)
	for _, r := range rows {
		b.AppendRow(r)
	}
	if b.Len() != len(rows) || b.Width() != 3 {
		t.Fatalf("len=%d width=%d", b.Len(), b.Width())
	}
	for i, r := range rows {
		if !reflect.DeepEqual(b.Row(i), r) {
			t.Errorf("row %d = %v, want %v", i, b.Row(i), r)
		}
	}
	// MoveRow + Truncate compacts like a filter.
	b.MoveRow(0, 2)
	b.Truncate(1)
	if b.Len() != 1 || !reflect.DeepEqual(b.Row(0), rows[2]) {
		t.Errorf("after compaction: len=%d row=%v", b.Len(), b.Row(0))
	}
	// Reset + AddRow reuses the arena and zeroes stale datums.
	b.Reset(2)
	r := b.AddRow()
	if !r[0].IsNull() || !r[1].IsNull() {
		t.Errorf("reused arena row not NULL-initialized: %v", r)
	}
}

func TestPutBatchTwicePanics(t *testing.T) {
	b := GetBatch(1)
	gets0, puts0 := PoolStats()
	PutBatch(b)
	defer func() {
		if recover() == nil {
			t.Fatal("double PutBatch did not panic")
		}
		// The second Put counted nothing: gets-puts still balances.
		gets1, puts1 := PoolStats()
		if gets1-gets0 != 0 || puts1-puts0 != 1 {
			t.Fatalf("pool stats after double put: gets +%d, puts +%d", gets1-gets0, puts1-puts0)
		}
	}()
	PutBatch(b)
}

func TestEncodeDecodeBatchRoundTrip(t *testing.T) {
	rows := batchTestRows()
	b := GetBatch(0)
	defer PutBatch(b)
	for _, r := range rows {
		b.AppendRow(r)
	}
	enc := EncodeBatch(nil, b)
	// Wire compatibility: EncodeBatch is exactly the concatenation of
	// EncodeRow frames, so row-oriented senders and batch receivers (and
	// vice versa) interoperate.
	var rowEnc []byte
	for _, r := range rows {
		rowEnc = EncodeRow(rowEnc, r)
	}
	if !reflect.DeepEqual(enc, rowEnc) {
		t.Fatal("EncodeBatch differs from concatenated EncodeRow frames")
	}
	out := GetBatch(0)
	defer PutBatch(out)
	n, err := DecodeBatch(enc, out)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Errorf("consumed %d of %d bytes", n, len(enc))
	}
	if out.Len() != len(rows) {
		t.Fatalf("decoded %d rows", out.Len())
	}
	for i, r := range rows {
		if !reflect.DeepEqual(out.Row(i), r) {
			t.Errorf("row %d = %v, want %v", i, out.Row(i), r)
		}
	}
}

func TestDecodeBatchRejectsCorruptInput(t *testing.T) {
	b := GetBatch(0)
	defer PutBatch(b)
	b.AppendRow(Row{NewInt64(7), NewString("x")})
	b.AppendRow(Row{NewInt64(8), NewString("y")})
	enc := EncodeBatch(nil, b)
	out := GetBatch(0)
	defer PutBatch(out)
	// Any truncation must error, never panic.
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeBatch(enc[:cut], out); err == nil {
			// A cut exactly on a frame boundary is a legal shorter batch.
			if _, n, err2 := DecodeRow(enc); err2 == nil && cut%n != 0 {
				t.Errorf("truncation at %d accepted", cut)
			}
		}
	}
	// A width change mid-batch is corruption.
	mixed := EncodeRow(nil, Row{NewInt64(1)})
	mixed = EncodeRow(mixed, Row{NewInt64(1), NewInt64(2)})
	if _, err := DecodeBatch(mixed, out); err == nil {
		t.Error("width change mid-batch accepted")
	}
	// A hostile header claiming a huge column count must not allocate.
	if _, err := DecodeBatch([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, out); err == nil {
		t.Error("hostile row header accepted")
	}
}

func TestDecodeRowRejectsHostileHeader(t *testing.T) {
	// Header claims 2^28 columns with no bytes behind it.
	if _, _, err := DecodeRow([]byte{0xFF, 0xFF, 0xFF, 0x7F}); err == nil {
		t.Error("hostile column count accepted")
	}
}

// benchRows builds the row set shared by the encode/decode benchmarks.
func benchRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{NewInt64(int64(i)), NewInt64(int64(i * 7)), NewFloat64(float64(i) * 0.5), NewDate(int32(10000 + i))}
	}
	return rows
}

func BenchmarkEncodeRow(b *testing.B) {
	rows := benchRows(DefaultBatchRows)
	b.Run("row", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for _, r := range rows {
				buf = EncodeRow(buf, r)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		batch := GetBatch(0)
		defer PutBatch(batch)
		for _, r := range rows {
			batch.AppendRow(r)
		}
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = EncodeBatch(buf[:0], batch)
		}
	})
}

func BenchmarkDecodeRow(b *testing.B) {
	rows := benchRows(DefaultBatchRows)
	var enc []byte
	for _, r := range rows {
		enc = EncodeRow(enc, r)
	}
	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pos := 0
			for pos < len(enc) {
				_, n, err := DecodeRow(enc[pos:])
				if err != nil {
					b.Fatal(err)
				}
				pos += n
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		batch := GetBatch(0)
		defer PutBatch(batch)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBatch(enc, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeBatch decodes one motion-sized payload (about 7 KiB of
// row frames): all numbers, which copies nothing, and a third of the
// cells strings, which costs the one copy they are cut from.
func BenchmarkDecodeBatch(b *testing.B) {
	payload := func(row func(i int) Row) []byte {
		var enc []byte
		for i := 0; len(enc) < 7<<10; i++ {
			enc = EncodeRow(enc, row(i))
		}
		return enc
	}
	ints := benchRows(DefaultBatchRows)
	for _, tc := range []struct {
		name string
		enc  []byte
	}{
		{"ints", payload(func(i int) Row { return ints[i] })},
		{"strings", payload(func(i int) Row {
			return Row{NewInt64(int64(i)), NewString("Customer#000012345"), NewDecimal(int64(i)*31, 2)}
		})},
	} {
		b.Run(tc.name, func(b *testing.B) {
			batch := GetBatch(0)
			defer PutBatch(batch)
			b.SetBytes(int64(len(tc.enc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeBatch(tc.enc, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func FuzzDecodeDatum(f *testing.F) {
	for _, d := range []Datum{Null, NewBool(true), NewInt64(-12345), NewFloat64(3.25), NewDecimal(9999, 2), NewString("hello"), NewDate(12000)} {
		f.Add(EncodeDatum(nil, d))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add([]byte{byte(KindDecimal)})
	f.Add([]byte{byte(KindDecimal), 2})
	f.Add([]byte{byte(KindString), 5, 'h', 'i'})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; on success the datum must survive a
		// re-encode/re-decode cycle (byte equality is too strong: the
		// varint decoder tolerates non-canonical encodings).
		d, n, err := DecodeDatum(data)
		// SkipDatum is DecodeDatum without the value: it must step over
		// exactly the same bytes and refuse exactly the same inputs, or a
		// projected row walk would lose its place in (or accept) a row
		// that a full decode rejects.
		sn, serr := SkipDatum(data)
		if (err == nil) != (serr == nil) || sn != n {
			t.Fatalf("decode consumed %d (err %v), skip %d (err %v)", n, err, sn, serr)
		}
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := EncodeDatum(nil, d)
		d2, _, err := DecodeDatum(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		// Compared as canonical encodings: NaN is a legal float payload
		// and is not DeepEqual to itself.
		if !bytes.Equal(re, EncodeDatum(nil, d2)) {
			t.Fatalf("round trip changed datum: %v != %v", d, d2)
		}
	})
}

func FuzzDecodeBatch(f *testing.F) {
	b := GetBatch(0)
	for _, r := range batchTestRows() {
		b.AppendRow(r)
	}
	f.Add(EncodeBatch(nil, b))
	PutBatch(b)
	f.Add(EncodeRow(nil, Row{NewInt64(1)}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		out := GetBatch(0)
		defer PutBatch(out)
		// Decoded from a copy: the engine's bytes are not the test's to
		// overwrite, and overwriting is part of the test.
		in := bytes.Clone(data)
		// Must never panic on arbitrary input.
		n, err := DecodeBatch(in, out)
		if err != nil {
			return
		}
		if n != len(data) {
			t.Fatalf("consumed %d of %d bytes without error", n, len(data))
		}
		// Every cell is what decoding its datum alone gives, and a string
		// cell holds its own bytes: overwriting the input changes none.
		for i := range in {
			in[i] = 0xAA
		}
		pos := 0
		for r := 0; r < out.Len(); r++ {
			_, c, err := rowHeader(data[pos:])
			if err != nil {
				t.Fatal(err)
			}
			pos += c
			for j, got := range out.Row(r) {
				want, sz, err := DecodeDatum(data[pos:])
				if err != nil {
					t.Fatal(err)
				}
				pos += sz
				if got.K != want.K || got.S != want.S || !bytes.Equal(EncodeDatum(nil, got), EncodeDatum(nil, want)) {
					t.Fatalf("row %d column %d: batch has %v, the datum alone decodes to %v", r, j, got, want)
				}
			}
		}
		// Whatever decoded must survive a re-encode/re-decode cycle.
		re := EncodeBatch(nil, out)
		out2 := GetBatch(0)
		defer PutBatch(out2)
		if _, err := DecodeBatch(re, out2); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if out2.Len() != out.Len() {
			t.Fatalf("round trip changed row count: %d != %d", out2.Len(), out.Len())
		}
		for i := 0; i < out.Len(); i++ {
			if !reflect.DeepEqual(out.Row(i), out2.Row(i)) {
				t.Fatalf("round trip changed row %d", i)
			}
		}
	})
}

// TestDecodeRowVecsMatchesDecodeRow: the projected walk appends exactly
// the wanted columns to their builders, consumes what a full decode
// consumes, and reports a row cut short inside a column it only skips.
func TestDecodeRowVecsMatchesDecodeRow(t *testing.T) {
	row := Row{NewInt64(7), NewString("skipped text"), NewDecimal(1250, 2), Null, NewString("kept")}
	enc := EncodeRow(nil, row)
	enc = append(enc, 0xEE) // the next row's bytes are not this row's
	full, size, err := DecodeRow(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range [][]int{{}, {0}, {-1, -1, 0}, {1, -1, -1, -1, 0}, {0, 1, 2, 3, 4, 5, 6}} {
		vecs := make([]Vector, 7)
		cols := make([]VecBuilder, 7)
		for i := range cols {
			cols[i].Reset(&vecs[i], 2, i%2 == 0)
		}
		// Two rows, so that strings of one column share their backing.
		for r := 0; r < 2; r++ {
			n, ncols, err := DecodeRowVecs(enc, slot, cols)
			if err != nil || n != size || ncols != len(row) {
				t.Fatalf("slot %v: consumed %d of %d, %d columns, err %v", slot, n, size, ncols, err)
			}
		}
		for i := range cols {
			cols[i].Finish()
		}
		for c, s := range slot {
			if s < 0 || c >= len(full) {
				continue
			}
			v := vecs[s]
			if v.Enc != VecFlat || v.N != 2 || v.Mixed || v.Datum(0) != full[c] || v.Datum(1) != full[c] {
				t.Fatalf("slot %v: column %d = %+v, want twice %v", slot, c, v, full[c])
			}
		}
	}
	// Cut inside column 1's string body; column 0 is all the caller wants.
	var v Vector
	one := make([]VecBuilder, 1)
	one[0].Reset(&v, 1, false)
	cut := EncodeRow(nil, row)[:6]
	if _, _, err := DecodeRowVecs(cut, []int{0}, one); err == nil {
		t.Fatal("row truncated inside a skipped column decoded cleanly")
	}
	if _, _, err := DecodeRowVecs(cut, []int{-1, 0}, one); err == nil {
		t.Fatal("row truncated inside a wanted string decoded cleanly")
	}
	if _, _, err := DecodeRowVecs([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, nil, nil); err == nil {
		t.Fatal("hostile column count accepted")
	}
}
