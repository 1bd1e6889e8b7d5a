package main

import (
	"bytes"
	"math"
	"testing"
)

// stream renders the first n requests of one connection.
func stream(spec *kvSpec, seed uint64, conn, n int) []byte {
	g := newGen(spec, seed, conn)
	var out, scratch []byte
	for i := 0; i < n; i++ {
		out = spec.appendRequest(out, &scratch, g.next())
	}
	return out
}

// TestStreamIsAFunctionOfTheSeed: the same seed gives a byte-identical request
// stream per connection; another seed, or another connection, does not.
func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, spec := range kvSpecs {
		for conn := 0; conn < conns; conn++ {
			a, b := stream(spec, 1, conn, 5000), stream(spec, 1, conn, 5000)
			if !bytes.Equal(a, b) {
				t.Errorf("%s connection %d: two streams from seed 1 differ", spec.name, conn)
			}
			if bytes.Equal(a, stream(spec, 2, conn, 5000)) {
				t.Errorf("%s connection %d: seeds 1 and 2 give the same stream", spec.name, conn)
			}
		}
		if bytes.Equal(stream(spec, 1, 0, 5000), stream(spec, 1, 1, 5000)) {
			t.Errorf("%s: both connections send the same stream", spec.name)
		}
	}
}

func TestMixMatchesSpec(t *testing.T) {
	const n = 200_000
	for _, spec := range kvSpecs {
		g := newGen(spec, 3, 0)
		var got [numOpKinds]int
		for i := 0; i < n; i++ {
			got[g.next().kind]++
		}
		want := [numOpKinds]int{spec.get, spec.set, spec.incr, spec.transfer}
		for k := range got {
			if share := 100 * float64(got[k]) / n; math.Abs(share-float64(want[k])) > 0.5 {
				t.Errorf("%s: %.2f %% %s, want %d %%", spec.name, share, opNames[k], want[k])
			}
		}
	}
}

// TestSamplers is the chi-square self-test of the key samplers. With df cells
// the statistic has mean df and deviation sqrt(2 df); five deviations is a
// false alarm once in millions of runs, and the seeds are fixed anyway.
func TestSamplers(t *testing.T) {
	for name, s := range map[string]*sampler{
		"uniform 1000":   newSampler(1000, 0),
		"zipf 0.99 1000": newSampler(1000, 0.99),
		"zipf 0.99 256":  newSampler(256, 0.99),
	} {
		chi2, df := chiSquare(s, newRNG(11), 1_000_000, 20)
		if limit := float64(df) + 5*math.Sqrt(2*float64(df)); chi2 > limit {
			t.Errorf("%s: chi-square %.1f on %d degrees of freedom, limit %.1f", name, chi2, df, limit)
		}
	}
	// A sampler with the wrong skew must fail the same test.
	chi2, df := chiSquareAgainst(newSampler(1000, 0.8), newSampler(1000, 0.99), newRNG(11), 1_000_000, 20)
	if chi2 < float64(df)+5*math.Sqrt(2*float64(df)) {
		t.Errorf("zipf 0.8 passes as zipf 0.99: chi-square %.1f on %d degrees of freedom", chi2, df)
	}
}

func TestValuesCarryKeyAndChecksum(t *testing.T) {
	v := appendValue(nil, 42, 7, 100)
	if len(v) != 100 || !checkValue(v, 42, 100) {
		t.Fatalf("a fresh value of key 42 does not check: %x", v)
	}
	if checkValue(v, 43, 100) {
		t.Error("a value of key 42 checks under key 43")
	}
	v[50] ^= 1
	if checkValue(v, 42, 100) {
		t.Error("a value with a flipped bit checks")
	}
	if blob, ok := blobOf([]byte("VAL $3:abc"), "VAL "); !ok || string(blob) != "abc" {
		t.Errorf("blobOf = %q %v", blob, ok)
	}
	if _, ok := blobOf([]byte("VAL $4:abc"), "VAL "); ok {
		t.Error("blobOf accepts a wrong length")
	}
}
