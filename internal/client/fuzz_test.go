package client

import (
	"bytes"
	"testing"

	"hawq/internal/types"
)

// The extended-protocol decoders face untrusted peers: arbitrary bytes
// must produce an error or a valid decode, never a panic. Round-trip
// seeds keep the corpus honest about the happy path too.

func FuzzDecodeParse(f *testing.F) {
	f.Add(encodeParse("stmt", "SELECT * FROM t WHERE id = $1"))
	f.Add(encodeParse("", ""))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		name, sql, err := decodeParse(data)
		if err == nil {
			// Decoded values survive a re-encode/decode cycle (the raw
			// bytes may differ: uvarints have non-canonical encodings).
			n2, s2, err2 := decodeParse(encodeParse(name, sql))
			if err2 != nil || n2 != name || s2 != sql {
				t.Fatalf("round trip mismatch: (%q, %q) -> (%q, %q, %v)", name, sql, n2, s2, err2)
			}
		}
	})
}

func FuzzDecodeExecute(f *testing.F) {
	f.Add(encodeExecute("stmt", []types.Datum{types.NewInt64(7), types.NewString("x")}))
	f.Add(encodeExecute("s", nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{5, 'a'})
	f.Add([]byte{0, 0xff, 0xff, 0xff})
	f.Add([]byte{200, 1})
	f.Add([]byte{1, 's', 0, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		stmt, args, err := decodeExecute(data)
		if err == nil {
			// Re-encoding is canonical: a second decode/encode cycle
			// reproduces the first encoding byte for byte.
			enc := encodeExecute(stmt, args)
			s2, a2, err2 := decodeExecute(enc)
			if err2 != nil || s2 != stmt || !bytes.Equal(encodeExecute(s2, a2), enc) {
				t.Fatalf("round trip mismatch: %q %v -> %q %v (%v)", stmt, args, s2, a2, err2)
			}
		}
	})
}

// FuzzDecodeBind fuzzes the half of an Execute payload that binds the
// statement: the argument row after the name. The payload decodes
// exactly when the row bytes are one whole row, the name comes through
// untouched, and the bound arguments survive a round trip.
func FuzzDecodeBind(f *testing.F) {
	f.Add(types.EncodeRow(nil, types.Row{types.NewInt64(7), types.NewString("x")}))
	f.Add(types.EncodeRow(nil, nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{5, 'a'})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		stmt, args, err := decodeExecute(append(appendString(nil, "stmt"), data...))
		_, n, rowErr := types.DecodeRow(data)
		if whole := rowErr == nil && n == len(data); whole != (err == nil) {
			t.Fatalf("execute decode err %v, but argument row whole = %v", err, whole)
		}
		if err != nil {
			return
		}
		if stmt != "stmt" {
			t.Fatalf("statement name %q, want %q", stmt, "stmt")
		}
		s2, a2, err2 := decodeExecute(encodeExecute(stmt, args))
		if err2 != nil || s2 != stmt || !bytes.Equal(types.EncodeRow(nil, a2), types.EncodeRow(nil, args)) {
			t.Fatalf("round trip mismatch: %v -> %q %v (%v)", args, s2, a2, err2)
		}
	})
}

func FuzzDecodeSchema(f *testing.F) {
	f.Add(encodeSchema(types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt64},
		types.Column{Name: "b", Kind: types.KindString},
	)))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		//hawqcheck:ignore errdrop
		decodeSchema(data)
	})
}
