package fingerprint

import (
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/prng"
)

func TestIDNamespaceRoundTrip(t *testing.T) {
	cases := []IDNamespace{
		{},                   // identity
		{Base: 0, Stride: 1}, // explicit identity
		{Base: 0, Stride: 2},
		{Base: 1, Stride: 2},
		{Base: 2, Stride: 5},
	}
	for _, ns := range cases {
		for local := 0; local < 100; local++ {
			g := ns.Global(local)
			back, ok := ns.Local(g)
			if !ok || back != local {
				t.Fatalf("ns %+v: local %d → global %d → (%d, %v)", ns, local, g, back, ok)
			}
		}
		// The -1 "no match" sentinel passes through both directions.
		if g := ns.Global(-1); g != -1 {
			t.Fatalf("ns %+v: Global(-1) = %d", ns, g)
		}
		if l, ok := ns.Local(-1); !ok || l != -1 {
			t.Fatalf("ns %+v: Local(-1) = (%d, %v)", ns, l, ok)
		}
	}
}

func TestIDNamespaceDisjointAndMonotone(t *testing.T) {
	const stride = 3
	seen := map[int]int{}
	for p := 0; p < stride; p++ {
		ns := IDNamespace{Base: p, Stride: stride}
		prev := -1
		for local := 0; local < 50; local++ {
			g := ns.Global(local)
			if g <= prev {
				t.Fatalf("partition %d: Global not monotone at local %d", p, local)
			}
			prev = g
			if owner, clash := seen[g]; clash {
				t.Fatalf("global id %d claimed by partitions %d and %d", g, owner, p)
			}
			seen[g] = p
			// A foreign namespace must reject the id.
			other := IDNamespace{Base: (p + 1) % stride, Stride: stride}
			if _, ok := other.Local(g); ok {
				t.Fatalf("partition %d id %d accepted by partition %d's namespace", p, g, other.Base)
			}
		}
	}
}

func TestIDNamespaceIdentityZeroValue(t *testing.T) {
	var ns IDNamespace
	if !ns.Identity() {
		t.Fatal("zero namespace is not identity")
	}
	v := Verdict{Name: "d", Index: 7, Distance: 0.1, Matches: 2}
	if got := ns.Renumber(v); got != v {
		t.Fatalf("identity Renumber changed the verdict: %+v", got)
	}
}

// randomFP draws a sparse fingerprint for equivalence tests.
func randomFP(src *prng.Source, bits int) *bitset.Set {
	fp := bitset.New(bits)
	for j := 0; j < 40; j++ {
		fp.Set(int(src.Uint64() % uint64(bits)))
	}
	return fp
}

// TestAddWithIDEquivalence: a database built with explicit dense ids is
// indistinguishable from one built with Add, and a database built with
// strided ids answers with the strided id while preserving the verdict's
// name, distance, and match count.
func TestAddWithIDEquivalence(t *testing.T) {
	const bits = 2048
	const entries = 40
	src := prng.New(0xAD01)
	dense, err := NewShardedDB(DefaultThreshold, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := NewShardedDB(DefaultThreshold, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	strided, err := NewShardedDB(DefaultThreshold, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const stride = 2
	fps := make([]*bitset.Set, entries)
	for i := 0; i < entries; i++ {
		fps[i] = randomFP(src, bits)
		name := "dev-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		id := dense.Add(name, fps[i])
		if id != i {
			t.Fatalf("dense Add returned id %d, want %d", id, i)
		}
		explicit.AddWithID(i, name, fps[i])
		strided.AddWithID(i*stride+1, name, fps[i])
	}
	for q := 0; q < 100; q++ {
		// Queries near enrolled entries plus pure noise.
		var es *bitset.Set
		if q < entries {
			es = fps[q].Clone()
			es.Set(int(src.Uint64() % uint64(bits)))
		} else {
			es = randomFP(src, bits)
		}
		dv := dense.Decide(es)
		ev := explicit.Decide(es)
		if dv != ev {
			t.Fatalf("query %d: dense %+v != explicit %+v", q, dv, ev)
		}
		sv := strided.Decide(es)
		if sv.Name != dv.Name || sv.Distance != dv.Distance || sv.Matches != dv.Matches {
			t.Fatalf("query %d: strided verdict %+v diverged from dense %+v", q, sv, dv)
		}
		wantIdx := dv.Index
		if wantIdx >= 0 {
			wantIdx = wantIdx*stride + 1
		}
		if sv.Index != wantIdx {
			t.Fatalf("query %d: strided index %d, want %d", q, sv.Index, wantIdx)
		}
	}
	// Dense ids keep allocating past the highest explicit id.
	next := explicit.Add("tail", randomFP(src, bits))
	if next != entries {
		t.Fatalf("Add after AddWithID allocated %d, want %d", next, entries)
	}
}
