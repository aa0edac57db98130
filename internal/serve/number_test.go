package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// checkFloatToken holds scanner.float to encoding/json on the bytes
// b: where json reads a number token at b[0] that strconv.ParseFloat takes,
// float consumes exactly that token and returns ParseFloat's bits; anywhere
// else it steps aside. It returns float's result.
func checkFloatToken(t *testing.T, b []byte) (float64, bool) {
	t.Helper()
	var tok json.Number
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	want, err := 0.0, dec.Decode(&tok)
	if err == nil && !bytes.HasPrefix(b, []byte(tok)) {
		err = strconv.ErrSyntax // a quoted number, or whitespace before one
	}
	if err == nil {
		want, err = strconv.ParseFloat(string(tok), 64)
	}
	s := scanner{b: b}
	got, ok := s.float()
	switch {
	case ok != (err == nil):
		t.Fatalf("float(%q) ok=%v; encoding/json reads %q, ParseFloat says %v", b, ok, tok, err)
	case ok && s.i != len(tok):
		t.Fatalf("float(%q) consumed %d bytes, the token is %q", b, s.i, tok)
	case ok && math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("float(%q) = %v (%#x), ParseFloat %v (%#x)", b, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return got, ok
}

// floatEdges sit on the borders of float's regimes. inline says the token is
// converted in place (no exponent, at most 19 digits after leading zeros, at
// most 22 fraction digits); ok that it is a float64 at all.
var floatEdges = []struct {
	tok        string
	inline, ok bool
}{
	{"0", true, true}, {"-0", true, true}, {"-0.0", true, true}, {"0.000", true, true},
	{"9007199254740991", true, true}, {"9007199254740992", true, true}, {"9007199254740993", true, true}, // 2^53 - 1, 2^53, 2^53 + 1
	{"900719925474099.1", true, true}, {"900719925474099.2", true, true}, {"900719925474099.3", true, true},
	{"9999999999999999999", true, true}, {"1.234567890123456789", true, true}, // 19 digits
	{"10000000000000000000", false, true}, {"1.2345678901234567890", false, true}, // 20
	{"0.0000000000000000000001", true, true}, {"0.0000009007199254740993", true, true}, // 22 fraction digits
	{"0.00000000000000000000001", false, true}, {"0.00000009007199254740993", false, true}, // 23
	{"0.0000000000000000000000", true, true}, {"0.00000000000000000000000", false, true},
	{"1e2", false, true}, {"1E+2", false, true}, {"1.5e-7", false, true}, {"1e-999", false, true},
	{"1e999", false, false}, {"-1e999", false, false},
	{"", false, false}, {"-", false, false}, {"1.", false, false}, {".5", false, false}, {"+1", false, false}, {"1e", false, false}, {"1e+", false, false},
	// integer and fraction digit runs on both sides of each eight-digit step and of 19 digits
	{"1234567", true, true}, {"12345678", true, true}, {"123456789", true, true}, {"123456789012345", true, true}, {"1234567890123456", true, true}, {"12345678901234567", true, true}, {"1234567890123456789", true, true}, {"12345678901234567890", false, true},
	{"0.1234567", true, true}, {"0.12345678", true, true}, {"0.123456789", true, true}, {"0.123456789012345", true, true}, {"0.1234567890123456", true, true}, {"0.12345678901234567", true, true}, {"0.1234567890123456789", true, true}, {"0.12345678901234567890", false, true},
	{"1.1234567", true, true}, {"1.12345678", true, true}, {"1.123456789", true, true}, {"1.123456789012345", true, true}, {"1.1234567890123456", true, true}, {"1.12345678901234567", true, true}, {"1.1234567890123456789", false, true}, {"1.12345678901234567890", false, true},
	{"0.000000001234567890123", true, true}, {"-0.00000000", true, true},
	// a '.', 'e', '-', ',' or '}' at each position of the first and the second eight-byte window,
	// of an integer and of a fraction run
	{"1.5", true, true}, {"12.5", true, true}, {"123.5", true, true}, {"1234.5", true, true}, {"12345.5", true, true}, {"123456.5", true, true}, {"1234567.5", true, true}, {"12345678.5", true, true}, {"123456781.5", true, true}, {"1234567812.5", true, true}, {"12345678123.5", true, true}, {"123456781234.5", true, true}, {"1234567812345.5", true, true}, {"12345678123456.5", true, true}, {"123456781234567.5", true, true},
	{"0.1.5", true, true}, {"0.12.5", true, true}, {"0.123.5", true, true}, {"0.1234.5", true, true}, {"0.12345.5", true, true}, {"0.123456.5", true, true}, {"0.1234567.5", true, true}, {"0.12345678.5", true, true}, {"0.123456781.5", true, true}, {"0.1234567812.5", true, true}, {"0.12345678123.5", true, true}, {"0.123456781234.5", true, true}, {"0.1234567812345.5", true, true}, {"0.12345678123456.5", true, true}, {"0.123456781234567.5", true, true},
	{"1e5", false, true}, {"12e5", false, true}, {"123e5", false, true}, {"1234e5", false, true}, {"12345e5", false, true}, {"123456e5", false, true}, {"1234567e5", false, true}, {"12345678e5", false, true}, {"123456781e5", false, true}, {"1234567812e5", false, true}, {"12345678123e5", false, true}, {"123456781234e5", false, true}, {"1234567812345e5", false, true}, {"12345678123456e5", false, true}, {"123456781234567e5", false, true},
	{"0.1e5", false, true}, {"0.12e5", false, true}, {"0.123e5", false, true}, {"0.1234e5", false, true}, {"0.12345e5", false, true}, {"0.123456e5", false, true}, {"0.1234567e5", false, true}, {"0.12345678e5", false, true}, {"0.123456781e5", false, true}, {"0.1234567812e5", false, true}, {"0.12345678123e5", false, true}, {"0.123456781234e5", false, true}, {"0.1234567812345e5", false, true}, {"0.12345678123456e5", false, true}, {"0.123456781234567e5", false, true},
	{"1-5", true, true}, {"12-5", true, true}, {"123-5", true, true}, {"1234-5", true, true}, {"12345-5", true, true}, {"123456-5", true, true}, {"1234567-5", true, true}, {"12345678-5", true, true}, {"123456781-5", true, true}, {"1234567812-5", true, true}, {"12345678123-5", true, true}, {"123456781234-5", true, true}, {"1234567812345-5", true, true}, {"12345678123456-5", true, true}, {"123456781234567-5", true, true},
	{"0.1-5", true, true}, {"0.12-5", true, true}, {"0.123-5", true, true}, {"0.1234-5", true, true}, {"0.12345-5", true, true}, {"0.123456-5", true, true}, {"0.1234567-5", true, true}, {"0.12345678-5", true, true}, {"0.123456781-5", true, true}, {"0.1234567812-5", true, true}, {"0.12345678123-5", true, true}, {"0.123456781234-5", true, true}, {"0.1234567812345-5", true, true}, {"0.12345678123456-5", true, true}, {"0.123456781234567-5", true, true},
	{"1,", true, true}, {"12,", true, true}, {"123,", true, true}, {"1234,", true, true}, {"12345,", true, true}, {"123456,", true, true}, {"1234567,", true, true}, {"12345678,", true, true}, {"123456781,", true, true}, {"1234567812,", true, true}, {"12345678123,", true, true}, {"123456781234,", true, true}, {"1234567812345,", true, true}, {"12345678123456,", true, true}, {"123456781234567,", true, true},
	{"0.1,", true, true}, {"0.12,", true, true}, {"0.123,", true, true}, {"0.1234,", true, true}, {"0.12345,", true, true}, {"0.123456,", true, true}, {"0.1234567,", true, true}, {"0.12345678,", true, true}, {"0.123456781,", true, true}, {"0.1234567812,", true, true}, {"0.12345678123,", true, true}, {"0.123456781234,", true, true}, {"0.1234567812345,", true, true}, {"0.12345678123456,", true, true}, {"0.123456781234567,", true, true},
	{"1}", true, true}, {"12}", true, true}, {"123}", true, true}, {"1234}", true, true}, {"12345}", true, true}, {"123456}", true, true}, {"1234567}", true, true}, {"12345678}", true, true}, {"123456781}", true, true}, {"1234567812}", true, true}, {"12345678123}", true, true}, {"123456781234}", true, true}, {"1234567812345}", true, true}, {"12345678123456}", true, true}, {"123456781234567}", true, true},
	{"0.1}", true, true}, {"0.12}", true, true}, {"0.123}", true, true}, {"0.1234}", true, true}, {"0.12345}", true, true}, {"0.123456}", true, true}, {"0.1234567}", true, true}, {"0.12345678}", true, true}, {"0.123456781}", true, true}, {"0.1234567812}", true, true}, {"0.12345678123}", true, true}, {"0.123456781234}", true, true}, {"0.1234567812345}", true, true}, {"0.12345678123456}", true, true}, {"0.123456781234567}", true, true},
}

// TestFloatTokenExact compares the in-line conversion to strconv.ParseFloat
// bit for bit over tokens chosen to land in, and on the edges of, each of its
// regimes: one float division (w < 2^53), one integer division (w up to 19
// digits), and ParseFloat itself (everything else).
func TestFloatTokenExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	both := func(t *testing.T, tok string) {
		t.Helper()
		checkFloatToken(t, []byte(tok))
		checkFloatToken(t, []byte("-"+tok))
	}

	t.Run("renderings", func(t *testing.T) {
		for n := 0; n < 20000; n++ {
			f := math.Abs(math.Float64frombits(rng.Uint64()))
			if n%2 == 0 { // Est-like: a trace estimate, a third of one, sub-second ones
				f = []float64{86400, 1e4 / 3, 1, 1e-3, 1e-7}[n/2%5] * rng.Float64()
			}
			if math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
			both(t, strconv.FormatFloat(f, 'g', -1, 64))
			both(t, strconv.FormatFloat(f, 'f', -1, 64))
			both(t, strconv.FormatFloat(f, 'f', rng.Intn(24), 64))
		}
	})

	t.Run("point at every position", func(t *testing.T) {
		for n := 0; n < 3000; n++ {
			d := make([]byte, 1+rng.Intn(19))
			for i := range d {
				d[i] = '0' + byte(rng.Intn(10))
			}
			d[0] = '1' + byte(rng.Intn(9))
			both(t, string(d))
			for p := 1; p < len(d); p++ {
				both(t, string(d[:p])+"."+string(d[p:]))
			}
			for zeros := 0; zeros <= 24-len(d); zeros++ {
				both(t, "0."+strings.Repeat("0", zeros)+string(d))
			}
		}
	})

	// m / 2^j with m odd and 54 bits long, or 2 mod 4 and 55 bits long, lies
	// exactly between two float64s. Written as the decimal m·5^j / 10^j it
	// must round to the even one; m-1 and m+1 must not be mistaken for it.
	// The 19-digit decimals next to a midpoint m·2^e differ from it only
	// below the quotient's last bit: the remainder alone decides those.
	t.Run("ties", func(t *testing.T) {
		decimal := func(w *big.Int, k int) string {
			d := w.String()
			if k == 0 {
				return d
			}
			return d[:len(d)-k] + "." + d[len(d)-k:]
		}
		// times returns m·base^k.
		times := func(m uint64, base int64, k int) *big.Int {
			p := new(big.Int).Exp(big.NewInt(base), big.NewInt(int64(k)), nil)
			return p.Mul(p, new(big.Int).SetUint64(m))
		}
		for n := 0; n < 4000; n++ {
			m := uint64(1)<<53 | rng.Uint64()>>11 | 1
			for k := 1; k <= 18; k++ {
				w := times(m, 10, k)
				if e := 9 - int(math.Ceil(float64(k)*math.Log2(10))); e < 0 { // w·2^e just fits 63 bits
					w.Rsh(w, uint(-e))
				} else {
					w.Lsh(w, uint(e))
				}
				both(t, decimal(w, k))
				both(t, decimal(w.Add(w, big.NewInt(1)), k))
			}
			if n%2 == 1 {
				m <<= 1 // 55 bits, 2 mod 4
			}
			for j := 0; j <= 4; j++ { // m·5^4 has 20 digits: ParseFloat's
				both(t, decimal(times(m-1, 5, j), j))
				both(t, decimal(times(m+1, 5, j), j))
				tie := decimal(times(m, 5, j), j)
				if f, _ := checkFloatToken(t, []byte(tie)); math.Float64bits(f)&1 != 0 {
					t.Fatalf("tie %s rounded to the odd neighbour %#x", tie, math.Float64bits(f))
				}
			}
		}
	})

	t.Run("edges", func(t *testing.T) {
		for _, c := range floatEdges {
			s := scanner{b: []byte(c.tok)}
			_, _, k, _, plain, _ := s.number()
			if inline := plain && k < len(pow10); inline != c.inline {
				t.Errorf("%q: converted in line: %v, want %v", c.tok, inline, c.inline)
			}
			if _, ok := checkFloatToken(t, []byte(c.tok)); ok != c.ok {
				t.Errorf("float(%q) ok=%v, want %v", c.tok, ok, c.ok)
			}
		}
	})
}

// FuzzFloatToken is checkFloatToken on arbitrary bytes: float and
// encoding/json + ParseFloat accept the same token with the same bits, or
// float steps aside where they refuse.
func FuzzFloatToken(f *testing.F) {
	for _, c := range floatEdges {
		f.Add([]byte(c.tok))
	}
	f.Add([]byte("1234.5678901234567,"))
	f.Add([]byte("18014398509481983.5}"))
	f.Fuzz(func(t *testing.T, b []byte) { checkFloatToken(t, b) })
}
