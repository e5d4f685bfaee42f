package testutil

import "hawq/internal/types"

// Vector builds a vector of the given encoding that holds vals in row
// order, the way the storage decoders would leave it: typed when the
// non-NULL values share one kind and scale, Mixed otherwise; runs of
// equal neighbours for VecRLE, a dictionary in first-appearance order
// for VecDict.
func Vector(enc types.VecEnc, vals []types.Datum) types.Vector {
	var v types.Vector
	var b types.VecBuilder
	b.Reset(&v, len(vals), true)
	switch enc {
	case types.VecFlat:
		for _, d := range vals {
			b.Append(d)
		}
		b.Finish()
	case types.VecRLE:
		var runs []int32
		for i, d := range vals {
			if i > 0 && d == vals[i-1] {
				runs[len(runs)-1]++
				continue
			}
			b.Append(d)
			runs = append(runs, 1)
		}
		b.Finish()
		v.Enc, v.N, v.Runs = types.VecRLE, len(vals), runs
	case types.VecDict:
		var codes []int32
		seen := map[types.Datum]int32{}
		for _, d := range vals {
			c, ok := seen[d]
			if !ok {
				c = int32(len(seen))
				seen[d] = c
				b.Append(d)
			}
			codes = append(codes, c)
		}
		b.Finish()
		v.Enc, v.N, v.Codes = types.VecDict, len(vals), codes
	}
	return v
}

// VecBatch builds a vec batch of one column per element of cols, each
// encoded as encs says.
func VecBatch(cols [][]types.Datum, encs []types.VecEnc) *types.VecBatch {
	vb := types.GetVecBatch(len(cols))
	vb.SetLen(len(cols[0]))
	for j, vals := range cols {
		vb.Cols[j] = Vector(encs[j], vals)
	}
	return vb
}

// VectorRows reads every row of v through its row→entry mapping.
func VectorRows(v *types.Vector) []types.Datum {
	idx, _ := v.EntryIndex(nil, nil)
	out := make([]types.Datum, v.N)
	for i := range out {
		e := i
		if idx != nil {
			e = int(idx[i])
		}
		out[i] = v.Datum(e)
	}
	return out
}
