package trace

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

var (
	inf = math.Inf(1)
	nan = math.NaN()
)

// checkFixed3 compares appendFixed3 with strconv on v and on the values a
// formatter bug would hide behind: its negation and its float neighbours.
func checkFixed3(t testing.TB, v float64) {
	var got, want [48]byte
	for _, x := range [...]float64{v, -v, math.Nextafter(v, inf), math.Nextafter(v, -inf)} {
		g := appendFixed3(got[:0], x)
		w := strconv.AppendFloat(want[:0], x, 'f', 3, 64)
		if string(g) != string(w) {
			t.Fatalf("appendFixed3(%v = %#016x) = %q, strconv gives %q", x, math.Float64bits(x), g, w)
		}
	}
}

// tiesFrom derives from one raw input the values whose third decimal hangs on
// the rounding rule: k/8000 with k ≡ 4 (mod 8) is exactly representable and
// sits exactly halfway between two thousandths, so it exercises
// round-half-even on both parities; x.xxx5 is the nearest double to a decimal
// tie, which lies just above or just below it.
func tiesFrom(raw uint64) [2]float64 {
	k := raw>>11&^7 | 4 // < 2^53, ≡ 4 (mod 8)
	return [2]float64{
		float64(k%(1<<40)) / 8000,
		(float64(raw%1e9) + 0.5) / 1000,
	}
}

func TestAppendFixed3Table(t *testing.T) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 0.0005, 0.0015, 0.0025, 0.5, 0.9995, 0.99949999, 1, 9.9995, 999.9995,
		1e-7, 1e-20, 5e-324, math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-64, 0x1p-63, 0x1p-11, 0x1p-10,
		123456.789, 4503599627370495.5, 0x1p52, 0x1p53, 0x1p53 + 2, 1e15, 1e16, 1e22, 1e300, math.MaxFloat64,
		inf, -inf, nan,
	} {
		checkFixed3(t, v)
	}
}

// FuzzAppendFixed3 feeds raw bit patterns — every exponent, subnormals, ±0,
// NaN payloads, ±Inf — and the ties derived from them; the seed corpus is
// checked in under testdata/fuzz.
func FuzzAppendFixed3(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw uint64) {
		checkFixed3(t, math.Float64frombits(raw))
		for _, v := range tiesFrom(raw) {
			checkFixed3(t, v)
		}
	})
}

// TestAppendFixed3Randomized is the volume check: 10M+ values (each input
// with its negation and neighbours) drawn from the exponents the integer
// kernel handles and its two boundaries, from the rate-like magnitudes the
// CSVs actually hold, from exact and near ties, and — one round in sixteen,
// strconv being slow on 300-digit values — from raw bit patterns. -short
// keeps a 1% slice of it.
func TestAppendFixed3Randomized(t *testing.T) {
	t.Parallel() // overlaps the figure runs instead of delaying them
	n := 650_000 // × 4 inputs × 4 variants = 10.4M values
	if testing.Short() {
		n /= 100
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		raw := rng.Uint64()
		if i%16 != 0 {
			// Exponents 2^-70 … 2^54: every shift the kernel takes, the
			// all-zero range below it and the delegated range above it.
			exp := 1023 - 70 + raw>>52%125
			raw = raw&^(0x7ff<<52) | exp<<52
		}
		checkFixed3(t, math.Float64frombits(raw))
		checkFixed3(t, rng.Float64()*math.Pow(10, float64(rng.Intn(12)-4)))
		for _, v := range tiesFrom(raw) {
			checkFixed3(t, v)
		}
	}
}

var fixed3Sink []byte

// BenchmarkAppendFixed3 formats 1024 rate-like values per op.
func BenchmarkAppendFixed3(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.Float64() * 5000
	}
	buf := make([]byte, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vals {
			buf = appendFixed3(buf[:0], v)
		}
	}
	fixed3Sink = buf
}
