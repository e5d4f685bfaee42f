// Package compress provides the block-compression codecs used by the
// storage formats (§2.5, §8.4): an uncompressed pass-through, a
// from-scratch fast byte-oriented LZ77 standing in for quicklz/snappy
// ("fast/light"), and zlib/gzip at levels 1/5/9 ("deep/archival"), plus a
// run-length codec used for CO columns.
package compress

import (
	"bytes"
	"compress/gzip"
	"compress/zlib"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Codec compresses and decompresses byte blocks.
type Codec interface {
	// Name is the codec's registry name, e.g. "zlib-1".
	Name() string
	// Compress appends the compressed form of src to dst.
	Compress(dst, src []byte) []byte
	// Decompress appends the decompressed form of src to dst. With a nil
	// dst the result may share memory with src (the identity codec
	// returns src itself, copying nothing): a caller that passes nil reads
	// the result and must not write to it, nor reuse src while it does.
	Decompress(dst, src []byte) ([]byte, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Codec{}
)

// Register adds a codec to the registry; it panics on duplicates.
func Register(c Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[c.Name()]; dup {
		panic("compress: duplicate codec " + c.Name())
	}
	registry[c.Name()] = c
}

// Lookup returns the named codec.
func Lookup(name string) (Codec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if name == "" {
		name = "none"
	}
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown codec %q", name)
	}
	return c, nil
}

// Names returns the registered codec names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register(noneCodec{})
	Register(lzCodec{name: "quicklz"})
	Register(lzCodec{name: "snappy"})
	Register(rleCodec{})
	for _, lvl := range []int{1, 5, 9} {
		Register(flateCodec{name: fmt.Sprintf("zlib-%d", lvl), level: lvl, gzip: false})
		Register(flateCodec{name: fmt.Sprintf("gzip-%d", lvl), level: lvl, gzip: true})
	}
}

// noneCodec is the identity codec.
type noneCodec struct{}

func (noneCodec) Name() string { return "none" }

func (noneCodec) Compress(dst, src []byte) []byte { return append(dst, src...) }

func (noneCodec) Decompress(dst, src []byte) ([]byte, error) {
	if dst == nil {
		return src, nil
	}
	return append(dst, src...), nil
}

// flateCodec wraps compress/zlib or compress/gzip at a fixed level.
type flateCodec struct {
	name  string
	level int
	gzip  bool
}

func (c flateCodec) Name() string { return c.name }

func (c flateCodec) Compress(dst, src []byte) []byte {
	var buf bytes.Buffer
	var w io.WriteCloser
	if c.gzip {
		w, _ = gzip.NewWriterLevel(&buf, c.level)
	} else {
		w, _ = zlib.NewWriterLevel(&buf, c.level)
	}
	w.Write(src)
	w.Close()
	return append(dst, buf.Bytes()...)
}

func (c flateCodec) Decompress(dst, src []byte) ([]byte, error) {
	var r io.ReadCloser
	var err error
	if c.gzip {
		r, err = gzip.NewReader(bytes.NewReader(src))
	} else {
		r, err = zlib.NewReader(bytes.NewReader(src))
	}
	if err != nil {
		return dst, fmt.Errorf("%s: %w", c.name, err)
	}
	defer r.Close()
	buf := bytes.NewBuffer(dst)
	if _, err := io.Copy(buf, r); err != nil {
		return dst, fmt.Errorf("%s: %w", c.name, err)
	}
	return buf.Bytes(), nil
}
