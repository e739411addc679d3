package bpred

import (
	"math/rand"
	"testing"
)

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(16)
	for i := 0; i < 10; i++ {
		b.Update(5, true)
	}
	if !b.Predict(5) {
		t.Error("did not learn taken bias")
	}
	for i := 0; i < 10; i++ {
		b.Update(5, false)
	}
	if b.Predict(5) {
		t.Error("did not learn not-taken bias")
	}
}

func TestBimodalHysteresis(t *testing.T) {
	b := NewBimodal(16)
	// Saturate taken, then a single not-taken must not flip the
	// prediction (2-bit counter hysteresis).
	for i := 0; i < 4; i++ {
		b.Update(3, true)
	}
	b.Update(3, false)
	if !b.Predict(3) {
		t.Error("single contrary outcome flipped a saturated counter")
	}
}

func TestBimodalAliasing(t *testing.T) {
	b := NewBimodal(16)
	// PCs 1 and 17 alias; training one trains the other.
	for i := 0; i < 4; i++ {
		b.Update(1, false)
	}
	if b.Predict(17) {
		t.Error("aliased entry not shared")
	}
}

func TestBimodalPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-power-of-two size")
		}
	}()
	NewBimodal(3)
}

func TestBTB(t *testing.T) {
	b := NewBTB(8)
	if _, ok := b.Lookup(5); ok {
		t.Error("cold BTB hit")
	}
	b.Update(5, 100)
	if tgt, ok := b.Lookup(5); !ok || tgt != 100 {
		t.Errorf("lookup = %d,%v", tgt, ok)
	}
	// Aliased PC evicts.
	b.Update(13, 200)
	if _, ok := b.Lookup(5); ok {
		t.Error("aliased entry survived")
	}
}

func TestRASLIFO(t *testing.T) {
	r := NewRAS(4)
	r.Push(1)
	r.Push(2)
	if v, ok := r.Pop(); !ok || v != 2 {
		t.Errorf("pop = %d,%v, want 2", v, ok)
	}
	if v, ok := r.Pop(); !ok || v != 1 {
		t.Errorf("pop = %d,%v, want 1", v, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Error("pop on empty RAS succeeded")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if v, _ := r.Pop(); v != 3 {
		t.Errorf("pop = %d, want 3", v)
	}
	if v, _ := r.Pop(); v != 2 {
		t.Errorf("pop = %d, want 2", v)
	}
}

func TestPredictorAccuracyOnBiasedStream(t *testing.T) {
	// A 90%-taken random stream: bimodal should be close to 90% accurate.
	rng := rand.New(rand.NewSource(3))
	b := NewBimodal(2048)
	correct, total := 0, 20000
	for i := 0; i < total; i++ {
		pc := rng.Intn(512)
		taken := rng.Float64() < 0.9
		if b.Predict(pc) == taken {
			correct++
		}
		b.Update(pc, taken)
	}
	if acc := float64(correct) / float64(total); acc < 0.8 {
		t.Errorf("bimodal accuracy %.3f on 90%% biased stream", acc)
	}
}
