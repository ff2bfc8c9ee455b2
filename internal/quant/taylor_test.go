package quant

import (
	"math"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/nn"
)

func TestTaylorAccurateNearZero(t *testing.T) {
	for _, act := range []nn.Activation{nn.Tanh, nn.Sigmoid} {
		coeffs := TaylorCoeffs(act, 9)
		for x := -0.5; x <= 0.5; x += 0.05 {
			y, _ := TaylorEval(coeffs, x)
			if math.Abs(y-act.Apply(x)) > 1e-4 {
				t.Errorf("%s Taylor(%.2f) = %v, want %v", act, x, y, act.Apply(x))
			}
		}
	}
}

func TestTaylorDivergesOffRange(t *testing.T) {
	// The paper's point: polynomial approximations are only accurate within
	// a certain range. At |x| = 4 the degree-9 tanh expansion is wildly off.
	coeffs := TaylorCoeffs(nn.Tanh, 9)
	y, _ := TaylorEval(coeffs, 4)
	if math.Abs(y-math.Tanh(4)) < 1 {
		t.Errorf("degree-9 tanh Taylor at 4 should diverge, got %v", y)
	}
}

func TestTaylorEvalCountsMuls(t *testing.T) {
	coeffs := TaylorCoeffs(nn.Tanh, 7)
	_, muls := TaylorEval(coeffs, 0.3)
	if muls != 7 {
		t.Errorf("Horner on degree 7 must use 7 muls, got %d", muls)
	}
}

func TestTaylorCoeffsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Taylor for ReLU must panic (no approximation needed)")
		}
	}()
	TaylorCoeffs(nn.ReLU, 3)
}

func TestLUTApproxUniformAccuracy(t *testing.T) {
	for _, act := range []nn.Activation{nn.Tanh, nn.Sigmoid} {
		lut := LUTApprox(act, 1<<16)
		maxErr, meanErr := ApproxError(act, lut)
		if maxErr > 1e-3 {
			t.Errorf("%s LUT max err %v over [-4,4], want ≤ 1e-3", act, maxErr)
		}
		if meanErr > maxErr {
			t.Errorf("%s mean err %v > max err %v", act, meanErr, maxErr)
		}
		// Saturated region still fine (the LUT clamps).
		if e := math.Abs(lut(20) - act.Apply(20)); e > 1e-3 {
			t.Errorf("%s LUT at saturation err %v", act, e)
		}
	}
}

func TestApproxErrorDegenerateSamples(t *testing.T) {
	if max, mean := ApproxError(nn.Tanh, math.Tanh); max != 0 || mean != 0 {
		t.Errorf("perfect approximation must have zero error, got %v/%v", max, mean)
	}
}
