package metrics

import "sort"

// p2 is one streaming quantile estimator after Jain & Chlamtac's P²
// algorithm (CACM 1985): five markers track the minimum, the target
// quantile, the maximum, and the two midpoints, and every observation
// nudges the middle markers toward their ideal positions with a
// piecewise-parabolic height adjustment. Memory is constant and the
// estimate converges for any sample count a benchmark run produces;
// below six samples the exact order statistic is returned instead.
//
// The target quantile is passed to add/quantile rather than stored so
// that the zero value is usable — Accum embeds three of these and must
// keep working without a constructor.
type p2 struct {
	n   int        // observations seen
	q   [5]float64 // marker heights
	pos [5]float64 // marker positions (1-based)
	des [5]float64 // desired marker positions
}

// add feeds one observation to the estimator for quantile p.
func (e *p2) add(p, x float64) {
	if e.n < 5 {
		e.q[e.n] = x
		e.n++
		if e.n == 5 {
			sort.Float64s(e.q[:])
			for i := range e.pos {
				e.pos[i] = float64(i + 1)
			}
			e.des = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
		}
		return
	}
	// Locate the cell containing x, extending the extremes if needed.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	inc := [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	for i := range e.des {
		e.des[i] += inc[i]
	}
	e.n++
	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.des[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			h := e.parabolic(i, s)
			if e.q[i-1] < h && h < e.q[i+1] {
				e.q[i] = h
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i one position in direction s.
func (e *p2) parabolic(i int, s float64) float64 {
	ni, nm, np := e.pos[i], e.pos[i-1], e.pos[i+1]
	return e.q[i] + s/(np-nm)*((ni-nm+s)*(e.q[i+1]-e.q[i])/(np-ni)+(np-ni-s)*(e.q[i]-e.q[i-1])/(ni-nm))
}

// linear is the fallback height prediction when the parabola would
// leave the bracketing markers' range.
func (e *p2) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.q[i] + s*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// quantile reports the current estimate for quantile p, exact while
// fewer than six observations have been seen.
func (e *p2) quantile(p float64) float64 {
	if e.n == 0 {
		return 0
	}
	if e.n <= 5 {
		xs := append([]float64(nil), e.q[:e.n]...)
		sort.Float64s(xs)
		i := int(p*float64(e.n)+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= e.n {
			i = e.n - 1
		}
		return xs[i]
	}
	return e.q[2]
}
