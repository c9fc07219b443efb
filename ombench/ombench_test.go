package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"openmeta/internal/core"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
)

func TestInputsDeterministicPerSeed(t *testing.T) {
	for i := 0; i < 20; i++ {
		a, b, c := genSchema(1, i), genSchema(1, i), genSchema(2, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("schema %d differs between two runs of seed 1", i)
		}
		if a.doc == c.doc {
			t.Fatalf("schema %d is the same for seeds 1 and 2", i)
		}
	}
	recs := func(seed int64) *recordInputs {
		ctx, err := pbio.NewContext(machine.Native)
		if err != nil {
			t.Fatal(err)
		}
		in, err := newRecordInputs(ctx, "mixed100B", seed)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := recs(1), recs(1), recs(2)
	if !reflect.DeepEqual(a.publish, b.publish) || !reflect.DeepEqual(a.want, b.want) {
		t.Fatal("record variants differ between two runs of seed 1")
	}
	if reflect.DeepEqual(a.publish, c.publish) {
		t.Fatal("record variants are the same for seeds 1 and 2")
	}
}

// TestGeneratedSchemasOnboard checks that generated documents span the
// promised shapes and go through xml2wire, encoding and field scoping.
func TestGeneratedSchemasOnboard(t *testing.T) {
	sizes := map[bool]bool{}
	for i := 0; i < 200; i++ {
		in := genSchema(7, i)
		ctx, err := pbio.NewContext(machine.Native)
		if err != nil {
			t.Fatal(err)
		}
		set, err := core.RegisterDocument(ctx, []byte(in.doc))
		if err != nil {
			t.Fatalf("schema %d: %v\n%s", i, err, in.doc)
		}
		root := set.Root()
		if root.Name != in.name {
			t.Fatalf("schema %d: root %q, want %q", i, root.Name, in.name)
		}
		declared := strings.Count(in.doc, "<xsd:element") - strings.Count(in.doc, "name=\"n")
		if declared < 4 || declared > 64 {
			t.Fatalf("schema %d: root declares %d elements, want 4 to 64", i, declared)
		}
		sizes[declared > 32] = true
		data, err := root.Encode(in.record)
		if err != nil {
			t.Fatalf("schema %d: encode: %v", i, err)
		}
		sub, err := pbio.DeriveSubset(root, []string{"seq", "stamp"})
		if err != nil {
			t.Fatal(err)
		}
		full, err := root.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		scoped := pbio.Record{"seq": full["seq"], "stamp": full["stamp"]}
		if err := checkScoped(scoped, &in); err != nil {
			t.Fatalf("schema %d: %v", i, err)
		}
		if len(sub.Fields) != 2 {
			t.Fatalf("schema %d: subset has %d fields", i, len(sub.Fields))
		}
	}
	if !sizes[true] || !sizes[false] {
		t.Fatal("200 schemas did not cover both small and large field counts")
	}
}

func TestVerifierCountsCorruptRecord(t *testing.T) {
	ctx, err := pbio.NewContext(machine.Native)
	if err != nil {
		t.Fatal(err)
	}
	in, err := newRecordInputs(ctx, "mixed100B", 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := in.publish[5]
	rec[seqField] = int64(5)
	data, err := in.format.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := in.format.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRecord(in.want[5], got, seqField, int64(5)); err != nil {
		t.Fatalf("intact record rejected: %v", err)
	}
	if checkRecord(in.want[5], got, seqField, int64(6)) == nil {
		t.Fatal("record with the wrong sequence number accepted")
	}
	d0, _ := in.format.FieldByName("d0")
	data[d0.Offset+3] ^= 0x40 // flip a mantissa bit of a double
	got, err = in.format.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if checkRecord(in.want[5], got, seqField, int64(5)) == nil {
		t.Fatal("corrupted record accepted")
	}

	s := genSchema(3, 0)
	if checkScoped(pbio.Record{"seq": s.seq, "stamp": s.stamp + 1}, &s) == nil {
		t.Fatal("scoped record with a wrong stamp accepted")
	}
	if checkScoped(pbio.Record{"seq": s.seq, "stamp": s.stamp, "f0": int64(1)}, &s) == nil {
		t.Fatal("scoped record with an unscoped field accepted")
	}

	// Through the bus: a relay whose publisher sends a corrupted variant
	// counts every record of that variant as a failed op, and the rest as
	// passed.
	w, err := newRelay(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	w.in.publish[7]["d1"] = -1.5
	var tl tally
	if err := w.run(100*time.Millisecond, &tl, nil); err != nil {
		t.Fatal(err)
	}
	if tl.failed == 0 || tl.ok == 0 || tl.failed > tl.ok/(variantCount-1)+2 {
		t.Fatalf("corrupting one variant in %d: ok=%d failed=%d", variantCount, tl.ok, tl.failed)
	}

	seqs := sequencer{next: 10}
	if m, dup := seqs.accept(10); m != 0 || dup {
		t.Fatalf("in-order record: missing %d dup %v", m, dup)
	}
	if m, dup := seqs.accept(13); m != 2 || dup {
		t.Fatalf("gap of two: missing %d dup %v", m, dup)
	}
	if _, dup := seqs.accept(12); !dup {
		t.Fatal("late duplicate not flagged")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) map[string]string {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	units := make(map[string]string)
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		units[m.Name] = m.Unit
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, program defines %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	return units
}

// TestPrintedMetricsMatchBenchmarkJSON runs every workload briefly in both
// modes and checks that each printed metric, in the table and in the
// JSON line, is listed in BENCHMARK.json with the same unit.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	units := loadBenchmarkJSON(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := runBench(config{workload: name, seed: 1, seconds: 1, trace: traced}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for k, m := range res.Metrics {
				if u, ok := units[k]; !ok || u != m.Unit {
					t.Errorf("%s: metric %q unit %q; BENCHMARK.json has %q (listed %v)", name, k, m.Unit, u, ok)
				}
			}
			printed := 0
			sc := bufio.NewScanner(&out)
			for sc.Scan() {
				f := strings.Fields(sc.Text())
				if len(f) == 3 {
					if u, ok := units[f[0]]; ok && u == f[2] {
						printed++
					}
				}
			}
			if printed != len(want) {
				t.Errorf("%s trace=%v: %d metric lines match BENCHMARK.json, want %d\n%s",
					name, traced, printed, len(want), out.String())
			}
		}
	}
}
