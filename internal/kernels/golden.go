package kernels

import (
	"fmt"

	"github.com/vmcu-project/vmcu/internal/tensor"
)

// Golden reference implementations: plain Go, unconstrained memory, used
// to verify the pool kernels bit-exactly. Layouts match the kernels:
// activations NHWC (row-major H, W, C), FC/pointwise weights [N][K]
// (output-major, CMSIS convention), conv weights [K][R][S][C], depthwise
// weights [R][S][C].

// GoldenFC computes Out[M,N] = requant(In[M,K]·Wᵀ + bias).
func GoldenFC(in []int8, m, k, n int, w []int8, bias []int32, req tensor.Requant) []int8 {
	if len(in) != m*k || len(w) != n*k || (bias != nil && len(bias) != n) {
		panic(fmt.Sprintf("golden: FC size mismatch in=%d w=%d bias=%d", len(in), len(w), len(bias)))
	}
	out := make([]int8, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			if bias != nil {
				acc = bias[j]
			}
			for kk := 0; kk < k; kk++ {
				acc += int32(in[i*k+kk]) * int32(w[j*k+kk])
			}
			out[i*n+j] = req.Apply(acc)
		}
	}
	return out
}

// GoldenPointwise computes a 1×1 convolution with spatial stride:
// Out[p,q,n] = requant(Σ_c In[p·stride, q·stride, c]·W[n][c] + bias[n]).
func GoldenPointwise(in []int8, h, w, c, k, stride int, wt []int8, bias []int32, req tensor.Requant) []int8 {
	if len(in) != h*w*c || len(wt) != k*c {
		panic("golden: pointwise size mismatch")
	}
	oh, ow := ceil(h, stride), ceil(w, stride)
	out := make([]int8, oh*ow*k)
	for p := 0; p < oh; p++ {
		for q := 0; q < ow; q++ {
			base := (p*stride*w + q*stride) * c
			px := in[base : base+c]
			orow := out[(p*ow+q)*k : (p*ow+q+1)*k]
			for n := range orow {
				var acc int32
				if bias != nil {
					acc = bias[n]
				}
				wrow := wt[n*c : (n+1)*c]
				for cc, v := range px {
					acc += int32(v) * int32(wrow[cc])
				}
				orow[n] = req.Apply(acc)
			}
		}
	}
	return out
}

// GoldenConv2D computes a dense convolution with zero padding:
// weights laid out [K][R][S][C].
func GoldenConv2D(in []int8, h, w, c, k, r, s, stride, pad int, wt []int8, bias []int32, req tensor.Requant) []int8 {
	if len(in) != h*w*c || len(wt) != k*r*s*c {
		panic("golden: conv2d size mismatch")
	}
	oh := (h+2*pad-r)/stride + 1
	ow := (w+2*pad-s)/stride + 1
	out := make([]int8, oh*ow*k)
	for p := 0; p < oh; p++ {
		for q := 0; q < ow; q++ {
			for n := 0; n < k; n++ {
				var acc int32
				if bias != nil {
					acc = bias[n]
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
						for cc := 0; cc < c; cc++ {
							acc += int32(in[(ih*w+iw)*c+cc]) * int32(wt[((n*r+rr)*s+ss)*c+cc])
						}
					}
				}
				out[(p*ow+q)*k+n] = req.Apply(acc)
			}
		}
	}
	return out
}

// GoldenDepthwise computes a depthwise convolution with zero padding:
// weights laid out [R][S][C]. Each output pixel accumulates its channel
// row tap by tap (loop order p, q, r, s, c), so every inner loop walks
// contiguous input, weight and accumulator rows.
func GoldenDepthwise(in []int8, h, w, c, r, s, stride, pad int, wt []int8, bias []int32, req tensor.Requant) []int8 {
	if len(in) != h*w*c || len(wt) != r*s*c {
		panic("golden: depthwise size mismatch")
	}
	oh := (h+2*pad-r)/stride + 1
	ow := (w+2*pad-s)/stride + 1
	out := make([]int8, oh*ow*c)
	acc := make([]int32, c)
	for p := 0; p < oh; p++ {
		for q := 0; q < ow; q++ {
			if bias != nil {
				copy(acc, bias[:c])
			} else {
				clear(acc)
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
					px := in[(ih*w+iw)*c : (ih*w+iw+1)*c]
					wrow := wt[(rr*s+ss)*c : (rr*s+ss+1)*c]
					for cc, v := range px {
						acc[cc] += int32(v) * int32(wrow[cc])
					}
				}
			}
			orow := out[(p*ow+q)*c : (p*ow+q+1)*c]
			for cc, a := range acc {
				orow[cc] = req.Apply(a)
			}
		}
	}
	return out
}

// GoldenAddSat computes the saturating elementwise int8 add used by
// residual connections.
func GoldenAddSat(a, b []int8) []int8 {
	if len(a) != len(b) {
		panic("golden: add size mismatch")
	}
	out := make([]int8, len(a))
	for i := range a {
		out[i] = tensor.SaturateInt8(int32(a[i]) + int32(b[i]))
	}
	return out
}

// BottleneckWeights bundles the three layers' parameters for the fused
// module: conv1 [Cmid][Cin], depthwise [R][S][Cmid], conv2 [Cout][Cmid].
type BottleneckWeights struct {
	W1 []int8
	B1 []int32
	Wd []int8
	Bd []int32
	W2 []int8
	B2 []int32
	// Per-layer output requantization.
	Req1, ReqD, Req2 tensor.Requant
}

// GoldenBottleneck composes the golden layers into the inverted
// bottleneck: conv1×1(S1) → dw(S2) → conv1×1(S3) → optional residual add.
func GoldenBottleneck(in []int8, h, w, cin, cmid, cout, r, s, s1, s2, s3 int, wt BottleneckWeights, residual bool) []int8 {
	pad := (r - 1) / 2
	b := GoldenPointwise(in, h, w, cin, cmid, s1, wt.W1, wt.B1, wt.Req1)
	h1, w1 := ceil(h, s1), ceil(w, s1)
	c := GoldenDepthwise(b, h1, w1, cmid, r, s, s2, pad, wt.Wd, wt.Bd, wt.ReqD)
	h2, w2 := ceil(h1, s2), ceil(w1, s2)
	d := GoldenPointwise(c, h2, w2, cmid, cout, s3, wt.W2, wt.B2, wt.Req2)
	if !residual {
		return d
	}
	return GoldenAddSat(d, in)
}

func ceil(a, b int) int { return (a + b - 1) / b }
