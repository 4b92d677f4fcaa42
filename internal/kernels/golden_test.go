package kernels

import (
	"math/rand"
	"testing"

	"github.com/vmcu-project/vmcu/internal/tensor"
)

// naivePointwise and naiveDepthwise are the straightforward golden loops
// (output pixel, channel, then the reduction, indexing the flat arrays
// directly), kept as the oracle for the row-sliced goldens.
func naivePointwise(in []int8, h, w, c, k, stride int, wt []int8, bias []int32, req tensor.Requant) []int8 {
	oh, ow := ceil(h, stride), ceil(w, stride)
	out := make([]int8, oh*ow*k)
	for p := 0; p < oh; p++ {
		for q := 0; q < ow; q++ {
			base := (p*stride*w + q*stride) * c
			for n := 0; n < k; n++ {
				var acc int32
				if bias != nil {
					acc = bias[n]
				}
				for cc := 0; cc < c; cc++ {
					acc += int32(in[base+cc]) * int32(wt[n*c+cc])
				}
				out[(p*ow+q)*k+n] = req.Apply(acc)
			}
		}
	}
	return out
}

func naiveDepthwise(in []int8, h, w, c, r, s, stride, pad int, wt []int8, bias []int32, req tensor.Requant) []int8 {
	oh := (h+2*pad-r)/stride + 1
	ow := (w+2*pad-s)/stride + 1
	out := make([]int8, oh*ow*c)
	for p := 0; p < oh; p++ {
		for q := 0; q < ow; q++ {
			for cc := 0; cc < c; cc++ {
				var acc int32
				if bias != nil {
					acc = bias[cc]
				}
				for rr := 0; rr < r; rr++ {
					ih := p*stride + rr - pad
					if ih < 0 || ih >= h {
						continue
					}
					for ss := 0; ss < s; ss++ {
						iw := q*stride + ss - pad
						if iw < 0 || iw >= w {
							continue
						}
						acc += int32(in[(ih*w+iw)*c+cc]) * int32(wt[(rr*s+ss)*c+cc])
					}
				}
				out[(p*ow+q)*c+cc] = req.Apply(acc)
			}
		}
	}
	return out
}

func randGoldenInt8(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		switch rng.Intn(8) {
		case 0:
			out[i] = -128
		case 1:
			out[i] = 127
		default:
			out[i] = int8(rng.Intn(256) - 128)
		}
	}
	return out
}

func randGoldenBias(rng *rand.Rand, n int, none bool) []int32 {
	if none {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Intn(1<<14) - 1<<13)
	}
	return out
}

func sameInt8(a, b []int8) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestGoldenMatchesNaiveOracle checks the reordered goldens against the
// naive loops on random shapes: strides 1 and 2, odd and even planes,
// square and rectangular kernels with every legal padding, and nil bias.
func TestGoldenMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 300; iter++ {
		h, w := 1+rng.Intn(9), 1+rng.Intn(9)
		c, k := 1+rng.Intn(20), 1+rng.Intn(20)
		stride := 1 + rng.Intn(2)
		noBias := iter%4 == 0
		req := tensor.NewRequant(0.002+rng.Float64()*0.05, int32(rng.Intn(7)-3))
		in := randGoldenInt8(rng, h*w*c)

		wt := randGoldenInt8(rng, k*c)
		bias := randGoldenBias(rng, k, noBias)
		got := GoldenPointwise(in, h, w, c, k, stride, wt, bias, req)
		want := naivePointwise(in, h, w, c, k, stride, wt, bias, req)
		if i := sameInt8(got, want); i >= 0 {
			t.Fatalf("pointwise %dx%dx%d k%d s%d bias=%v: differs at %d", h, w, c, k, stride, !noBias, i)
		}

		r, s := 1+2*rng.Intn(3), 1+2*rng.Intn(3) // 1, 3 or 5
		pad := rng.Intn((min(r, s)-1)/2 + 1)
		if h+2*pad < r || w+2*pad < s {
			continue // no output pixel fits
		}
		wd := randGoldenInt8(rng, r*s*c)
		bd := randGoldenBias(rng, c, noBias)
		got = GoldenDepthwise(in, h, w, c, r, s, stride, pad, wd, bd, req)
		want = naiveDepthwise(in, h, w, c, r, s, stride, pad, wd, bd, req)
		if i := sameInt8(got, want); i >= 0 {
			t.Fatalf("depthwise %dx%dx%d %dx%d s%d p%d bias=%v: differs at %d",
				h, w, c, r, s, stride, pad, !noBias, i)
		}
	}
}
