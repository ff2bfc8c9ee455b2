package core

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"github.com/liteflow-sim/liteflow/internal/netlink"
)

// bytesToFloats reinterprets raw fuzz bytes as the float64 payload of a
// netlink message (little-endian, trailing partial word dropped).
func bytesToFloats(raw []byte) []float64 {
	out := make([]float64, 0, len(raw)/8)
	for len(raw) >= 8 {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		raw = raw[8:]
	}
	return out
}

func floatsToBytes(data []float64) []byte {
	out := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// FuzzParseSample hammers the kernel-boundary sample validator: no input
// may panic, a rejection must classify as ErrMalformedSample, and an
// accepted sample must re-encode to the same payload (round trip).
func FuzzParseSample(f *testing.F) {
	f.Add([]byte{})
	f.Add(floatsToBytes(EncodeSample(Sample{Input: []float64{1, 2}, Aux: []float64{3}}).Data))
	f.Add(floatsToBytes([]float64{0}))
	f.Add(floatsToBytes([]float64{math.NaN(), 1}))
	f.Add(floatsToBytes([]float64{-1, 1}))
	f.Add(floatsToBytes([]float64{5, 1}))
	f.Add(floatsToBytes([]float64{1.5, 1, 2}))
	f.Add(floatsToBytes([]float64{2, math.Inf(1), 0.5}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m := netlink.Message{Data: bytesToFloats(raw), At: 1}
		s, err := ParseSample(m)
		if err != nil {
			if !errors.Is(err, ErrMalformedSample) {
				t.Fatalf("rejection must wrap ErrMalformedSample, got %v", err)
			}
			return
		}
		if len(s.Input)+len(s.Aux) != len(m.Data)-1 {
			t.Fatalf("accepted sample loses data: %d+%d != %d", len(s.Input), len(s.Aux), len(m.Data)-1)
		}
		for _, v := range append(append([]float64(nil), s.Input...), s.Aux...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted sample contains non-finite value: %+v", s)
			}
		}
		s.At = m.At
		re := EncodeSample(s)
		if len(re.Data) != len(m.Data) {
			t.Fatalf("round trip length mismatch: %d != %d", len(re.Data), len(m.Data))
		}
		for i := range re.Data {
			if math.Float64bits(re.Data[i]) != math.Float64bits(m.Data[i]) {
				t.Fatalf("round trip mismatch at %d: %v != %v", i, re.Data[i], m.Data[i])
			}
		}
	})
}

// cutBatch frames fuzz bytes as a batch of messages. Each message is a byte
// giving 0–7 payload words after the header, a header byte and then the
// words themselves, eight raw bytes each (a short last message keeps what is
// left). The header byte is an input length 0–15 below 240 and a malformed
// header above: NaN, ±Inf, negative or fractional.
func cutBatch(raw []byte) []netlink.Message {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0.5, 1e300}
	var batch []netlink.Message
	for len(raw) >= 2 {
		words, h := int(raw[0]%8), raw[1]
		raw = raw[2:]
		hdr := float64(h % 16)
		if h >= 240 {
			hdr = bad[int(h-240)%len(bad)]
		}
		n := min(8*words, len(raw))
		data := append([]float64{hdr}, bytesToFloats(raw[:n])...)
		raw = raw[n:]
		batch = append(batch, netlink.Message{Data: data, At: int64(len(batch))})
	}
	return batch
}

// sameSample compares two samples bit for bit.
func sameSample(a, b Sample) bool {
	if a.At != b.At || len(a.Input) != len(b.Input) || len(a.Aux) != len(b.Aux) {
		return false
	}
	for i := range a.Input {
		if math.Float64bits(a.Input[i]) != math.Float64bits(b.Input[i]) {
			return false
		}
	}
	for i := range a.Aux {
		if math.Float64bits(a.Aux[i]) != math.Float64bits(b.Aux[i]) {
			return false
		}
	}
	return true
}

// FuzzParseBatch holds batch framing to the per-message parser: ParseBatch
// returns, after what dst held, exactly the samples ParseSample accepts, in
// order and bit for bit; malformed is the number of messages ParseSample
// rejects. The accepted samples share
// one slab, so a write to any of them — and an append to any of their
// slices — must leave every other sample, and the batch, as it was.
func FuzzParseBatch(f *testing.F) {
	one := floatsToBytes([]float64{3, 4})
	f.Add([]byte{})
	f.Add(append([]byte{2, 1}, one...))                                                 // one sample: input [3], aux [4]
	f.Add(append(append([]byte{2, 244}, one...), append([]byte{2, 2}, one...)...))      // a fractional header, then a sample with no aux
	f.Add(append(append([]byte{2, 3}, one...), append([]byte{2, 0}, one...)...))        // header past the payload, then a good one
	f.Add(append(append([]byte{2, 1}, one...), append([]byte{2, 0}, one...)...))        // two samples, adjacent in the slab
	f.Add(append([]byte{0, 0, 1, 240, 2, 0}, floatsToBytes([]float64{math.Inf(1)})...)) // empty, NaN header, header past the payload
	f.Add(append([]byte{1, 0}, floatsToBytes([]float64{math.NaN()})...))                // a NaN payload value
	f.Add([]byte{7, 1, 1, 2, 3})                                                        // a short last message
	f.Fuzz(func(t *testing.T, raw []byte) {
		batch := cutBatch(raw)
		var want []Sample
		rejected := 0
		for _, m := range batch {
			s, err := ParseSample(m)
			if err != nil {
				rejected++
				continue
			}
			want = append(want, s)
		}
		prior := Sample{Input: []float64{-7}, At: -1}
		got, malformed := ParseBatch([]Sample{prior}, nil, batch)
		if malformed != rejected {
			t.Fatalf("malformed = %d, ParseSample rejects %d of the batch's messages", malformed, rejected)
		}
		if len(got) != 1+len(want) || !sameSample(got[0], prior) {
			t.Fatalf("ParseBatch returned %d samples after dst's, ParseSample accepts %d (dst's kept: %v)",
				len(got)-1, len(want), len(got) > 0 && sameSample(got[0], prior))
		}
		got = got[1:]
		for i := range want {
			if !sameSample(got[i], want[i]) {
				t.Fatalf("sample %d = %+v, ParseSample gives %+v", i, got[i], want[i])
			}
		}
		// Onto an arena that already holds a value: the same samples, the
		// value kept, and the arena holding exactly the accepted payloads.
		arena, payloads := []float64{-7}, 1
		onArena, _ := ParseBatch(nil, &arena, batch)
		for i := range want {
			if !sameSample(onArena[i], want[i]) {
				t.Fatalf("sample %d on an arena = %+v, ParseSample gives %+v", i, onArena[i], want[i])
			}
			payloads += len(want[i].Input) + len(want[i].Aux)
		}
		if len(onArena) != len(want) || arena[0] != -7 || len(arena) != payloads {
			t.Fatalf("%d samples on an arena of %d values starting %v, want %d samples on %d values starting -7",
				len(onArena), len(arena), arena[0], len(want), payloads)
		}

		// Mark every value with its own number, grow every slice by one, and
		// read the marks back: a value two samples (or a sample and the
		// batch) shared would read the other's mark.
		mark := func(i, j int) float64 { return float64(1000*i + j) }
		for i, s := range got {
			for j := range s.Input {
				s.Input[j] = mark(i, j)
			}
			for j := range s.Aux {
				s.Aux[j] = mark(i, len(s.Input)+j)
			}
		}
		var grown [][]float64 // kept, so that the appends happen
		for _, s := range got {
			grown = append(grown, append(s.Input, -1), append(s.Aux, -1))
		}
		for i, s := range got {
			for j, v := range append(append([]float64(nil), s.Input...), s.Aux...) {
				if v != mark(i, j) {
					t.Fatalf("sample %d value %d reads %v after writes to the others, want %v", i, j, v, mark(i, j))
				}
			}
		}
		if len(grown) != 2*len(got) {
			t.Fatalf("%d slices grown for %d samples", len(grown), len(got))
		}
		k := 0
		for _, m := range batch {
			if s, err := ParseSample(m); err == nil {
				if !sameSample(s, want[k]) {
					t.Fatalf("message %d changed under writes to the returned samples", k)
				}
				k++
			}
		}
	})
}
