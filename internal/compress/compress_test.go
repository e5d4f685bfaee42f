package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

var codecNames = []string{"none", "quicklz", "snappy", "rle", "zlib-1", "zlib-5", "zlib-9", "gzip-1", "gzip-5", "gzip-9"}

func roundTrip(t *testing.T, name string, data []byte) {
	t.Helper()
	c, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	comp := c.Compress(nil, data)
	got, err := c.Decompress(nil, comp)
	if err != nil {
		t.Fatalf("%s: decompress: %v", name, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("%s: round trip mismatch (%d -> %d -> %d bytes)", name, len(data), len(comp), len(got))
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	inputs := [][]byte{
		nil,
		[]byte("a"),
		[]byte("abc"),
		[]byte("abcd"),
		bytes.Repeat([]byte("x"), 10000),
		[]byte(strings.Repeat("hello world, hello world! ", 500)),
		randomBytes(1, 64*1024),
		mixedBytes(2, 100000),
	}
	for _, name := range codecNames {
		for _, in := range inputs {
			roundTrip(t, name, in)
		}
	}
}

func randomBytes(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

// mixedBytes interleaves compressible runs with random stretches.
func mixedBytes(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	var b []byte
	for len(b) < n {
		if r.Intn(2) == 0 {
			b = append(b, bytes.Repeat([]byte{byte(r.Intn(256))}, r.Intn(200)+1)...)
		} else {
			chunk := make([]byte, r.Intn(100)+1)
			r.Read(chunk)
			b = append(b, chunk...)
		}
	}
	return b[:n]
}

func TestQuickRoundTripLZ(t *testing.T) {
	for _, name := range []string{"quicklz", "rle"} {
		c, _ := Lookup(name)
		f := func(data []byte) bool {
			comp := c.Compress(nil, data)
			got, err := c.Decompress(nil, comp)
			return err == nil && bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCompressionRatioOnRepetitiveData(t *testing.T) {
	data := []byte(strings.Repeat("2024-01-15|ALPHA|ship via truck|", 2000))
	for _, name := range []string{"quicklz", "zlib-1", "zlib-9", "rle"} {
		c, _ := Lookup(name)
		comp := c.Compress(nil, data)
		if name != "rle" && len(comp) > len(data)/3 {
			t.Errorf("%s: ratio too weak: %d -> %d", name, len(data), len(comp))
		}
	}
	// zlib-9 should not be worse than zlib-1 on this input.
	z1, _ := Lookup("zlib-1")
	z9, _ := Lookup("zlib-9")
	if len(z9.Compress(nil, data)) > len(z1.Compress(nil, data)) {
		t.Error("zlib-9 worse than zlib-1 on repetitive input")
	}
}

func TestRLEOnRuns(t *testing.T) {
	data := bytes.Repeat([]byte{7}, 100000)
	c, _ := Lookup("rle")
	comp := c.Compress(nil, data)
	if len(comp) > 16 {
		t.Errorf("rle on pure run: %d -> %d bytes", len(data), len(comp))
	}
}

func TestDecompressAppendsToDst(t *testing.T) {
	c, _ := Lookup("quicklz")
	comp := c.Compress(nil, []byte("world"))
	out, err := c.Decompress([]byte("hello "), comp)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "hello world" {
		t.Errorf("out = %q", out)
	}
}

// TestNoneDecompressCopiesOnlyIntoDst pins the identity codec's side of
// the Codec contract: with a nil dst the stored bytes come back as they
// are, and a non-nil dst — even an empty one — is appended to, never
// aliased to src.
func TestNoneDecompressCopiesOnlyIntoDst(t *testing.T) {
	c, _ := Lookup("none")
	src := []byte("payload")
	out, err := c.Decompress(nil, src)
	if err != nil || &out[0] != &src[0] || len(out) != len(src) {
		t.Errorf("nil dst: got %q (err %v), want src itself", out, err)
	}
	out, err = c.Decompress([]byte{}, src)
	if err != nil || string(out) != "payload" || &out[0] == &src[0] {
		t.Errorf("empty dst: got %q (err %v), want a copy", out, err)
	}
}

func TestDecompressCorruptInput(t *testing.T) {
	for _, name := range []string{"quicklz", "rle", "zlib-5", "gzip-5"} {
		c, _ := Lookup(name)
		comp := c.Compress(nil, []byte(strings.Repeat("abcdefg", 100)))
		for _, cut := range []int{0, 1, len(comp) / 2} {
			if _, err := c.Decompress(nil, comp[:cut]); err == nil && cut < len(comp) {
				t.Errorf("%s: no error on truncation to %d bytes", name, cut)
			}
		}
	}
}

func TestLookupAndNames(t *testing.T) {
	if _, err := Lookup("bogus"); err == nil {
		t.Error("lookup of bogus codec succeeded")
	}
	c, err := Lookup("")
	if err != nil || c.Name() != "none" {
		t.Errorf("empty name should resolve to none, got %v, %v", c, err)
	}
	names := Names()
	if len(names) < len(codecNames) {
		t.Errorf("names = %v", names)
	}
}

// BenchmarkQuicklzCompress compresses a page-sized input (256B: most
// pages of a COPY are smaller than that), a 4 KiB one and a 1 MiB one,
// each into a reused buffer, so what is timed is the compressor alone.
func BenchmarkQuicklzCompress(b *testing.B) {
	c, _ := Lookup("quicklz")
	for _, size := range []struct {
		name string
		n    int
	}{{"256B", 256}, {"4KiB", 4 << 10}, {"1MiB", 1 << 20}} {
		b.Run(size.name, func(b *testing.B) {
			data := mixedBytes(3, size.n)
			var dst []byte
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = c.Compress(dst[:0], data)
			}
		})
	}
}

func BenchmarkZlib1Compress(b *testing.B) {
	data := mixedBytes(3, 1<<20)
	c, _ := Lookup("zlib-1")
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compress(nil, data)
	}
}

func BenchmarkLZDecompress(b *testing.B) {
	data := mixedBytes(3, 1<<20)
	c, _ := Lookup("quicklz")
	comp := c.Compress(nil, data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decompress(nil, comp); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLZDecompressRejectsHostileStreams pins the decoder's error paths a
// checksum cannot catch for it: a length header no stream of that size
// can honour (which would otherwise size the output buffer), a zero or
// out-of-block match offset, and streams that end mid-op.
func TestLZDecompressRejectsHostileStreams(t *testing.T) {
	c, _ := Lookup("quicklz")
	for name, stream := range map[string][]byte{
		"huge length header":    {0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x10, 'a'},
		"zero match offset":     {8, 0x40, 'a', 'b', 'c', 'd', 0, 0},
		"offset before block":   {8, 0x40, 'a', 'b', 'c', 'd', 9, 0},
		"truncated offset":      {8, 0x40, 'a', 'b', 'c', 'd', 4},
		"truncated literals":    {8, 0x40, 'a', 'b'},
		"truncated extension":   {40, 0xF0, 255},
		"short of header count": {9, 0x40, 'a', 'b', 'c', 'd', 4, 0},
	} {
		if out, err := c.Decompress([]byte("keep"), stream); err == nil {
			t.Errorf("%s: decoded to %q", name, out)
		} else if string(out) != "keep" {
			t.Errorf("%s: dst not returned intact on error: %q", name, out)
		}
	}
	// The overlapping-match loop and the bulk copy agree with the
	// compressor on periods shorter and longer than a match.
	for _, period := range []int{1, 2, 3, 4, 5, 7, 64, 300} {
		data := bytes.Repeat(randomBytes(int64(period), period), 2000/period+3)
		got, err := c.Decompress(nil, c.Compress(nil, data))
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("period %d: round trip failed (err %v)", period, err)
		}
	}
}

// FuzzLZDecompress treats the input both as a compressed stream (the
// decoder must fail cleanly or produce exactly the length its header
// promises, never panic or over-allocate) and as raw bytes (which must
// survive a compress/decompress round trip).
func FuzzLZDecompress(f *testing.F) {
	c, _ := Lookup("quicklz")
	for _, raw := range [][]byte{nil, []byte("a"), []byte(strings.Repeat("abcdefg", 100)), mixedBytes(5, 4096), bytes.Repeat([]byte{7}, 1000)} {
		comp := c.Compress(nil, raw)
		f.Add(comp)
		f.Add(comp[:len(comp)/2])
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x10, 'a'})
	f.Add([]byte{8, 0x40, 'a', 'b', 'c', 'd', 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if out, err := c.Decompress(nil, data); err == nil {
			want, _ := binary.Uvarint(data)
			if uint64(len(out)) != want {
				t.Fatalf("decoded %d bytes, header says %d", len(out), want)
			}
		}
		got, err := c.Decompress(nil, c.Compress(nil, data))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round trip of %d raw bytes failed: %v", len(data), err)
		}
	})
}
