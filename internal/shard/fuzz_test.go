package shard

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzManifestParse fuzzes the manifest decoder. The property under test
// is total robustness: Parse errors on malformed, truncated or
// version-skewed input — it never panics — and anything it accepts
// re-encodes and re-parses as a fixed point.
func FuzzManifestParse(f *testing.F) {
	sc := testScenario(f)
	m, err := New(sc, "procs=1,2", testAxes(), 2)
	if err != nil {
		f.Fatal(err)
	}
	fresh, err := m.Encode()
	if err != nil {
		f.Fatal(err)
	}
	if err := m.RunShard(sc, 0); err != nil {
		f.Fatal(err)
	}
	partial, err := m.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fresh)
	f.Add(partial)
	f.Add(fresh[:len(fresh)/3])
	f.Add(bytes.Replace(fresh, []byte(Version), []byte("ic2mpi.manifest.v0"), 1))
	f.Add([]byte(`{"version":"ic2mpi.manifest.v2"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return
		}
		out, err := m.Encode()
		if err != nil {
			t.Fatalf("parsed manifest failed to re-encode: %v", err)
		}
		m2, err := Parse(out)
		if err != nil {
			t.Fatalf("re-encoded manifest failed to parse: %v", err)
		}
		if !reflect.DeepEqual(m2, m) {
			t.Fatal("Encode/Parse is not a fixed point")
		}
	})
}

// TestFuzzCorpusPinned keeps the checked-in corpus honest: the known-bad
// seeds must be rejected, never crash.
func TestFuzzCorpusPinned(t *testing.T) {
	for i, data := range [][]byte{
		[]byte(`{"version":"ic2mpi.manifest.v999"}`),
		[]byte(`{"version":"ic2mpi.manifest.v2","scenario":"x","shards":1,"axes":{},"verify":[],"cells":[]}`),
		[]byte(`{"version":"ic2mpi.manifest.v2","scenario":"","shards":0}`),
	} {
		if _, err := Parse(data); err == nil {
			t.Fatalf("corpus seed %d parsed without error", i)
		}
	}
}
