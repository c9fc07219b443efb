package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"

	"openmeta/internal/bench"
	"openmeta/internal/pbio"
)

// The inputs of every workload are made here from the -seed argument; the
// program under test only ever sees the generated formats, records and
// schema documents.

// variantCount is how many distinct record contents a record workload
// cycles through.
const variantCount = 64

// seqField carries the record's sequence number in the mixed formats.
const seqField = "i0"

// recordInputs are the records of one bench.SizeSweep format.
type recordInputs struct {
	format *pbio.Format
	// publish are the records handed to the encoder; seqField is
	// overwritten per op, so only the publishing goroutine touches them.
	publish []pbio.Record
	// want are the same records as a decoder must return them (dynamic
	// array counts filled in). They are never written after construction.
	want []pbio.Record
}

// newRecordInputs registers the named bench.SizeSweep format in ctx and
// derives variantCount seeded variants of its representative record.
func newRecordInputs(ctx *pbio.Context, sweepName string, seed int64) (*recordInputs, error) {
	sweep, err := bench.SizeSweep(ctx, seed)
	if err != nil {
		return nil, err
	}
	for _, w := range sweep {
		if w.Name != sweepName {
			continue
		}
		in := &recordInputs{format: w.Format}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < variantCount; i++ {
			rec := perturb(rng, w.Record)
			in.publish = append(in.publish, rec)
			in.want = append(in.want, decodedForm(w.Format, rec))
		}
		return in, nil
	}
	return nil, fmt.Errorf("no %q workload in bench.SizeSweep", sweepName)
}

// perturb returns a copy of rec with every value replaced by a fresh
// seeded value of the same type and shape.
func perturb(rng *rand.Rand, rec pbio.Record) pbio.Record {
	keys := make([]string, 0, len(rec))
	for k := range rec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(pbio.Record, len(rec))
	for _, k := range keys {
		switch v := rec[k].(type) {
		case int64:
			out[k] = int64(rng.Int31())
		case float64:
			out[k] = rng.NormFloat64() * 1e3
		case string:
			out[k] = randomString(rng, len(v))
		case []float64:
			arr := make([]float64, len(v))
			for i := range arr {
				arr[i] = rng.Float64() * 100
			}
			out[k] = arr
		default:
			out[k] = v
		}
	}
	return out
}

// decodedForm is rec as pbio decodes it: every count field of a dynamic
// array holds the array's length.
func decodedForm(f *pbio.Format, rec pbio.Record) pbio.Record {
	out := make(pbio.Record, len(rec)+1)
	for k, v := range rec {
		out[k] = v
	}
	for i := range f.Fields {
		fl := &f.Fields[i]
		if fl.Dynamic {
			n := 0
			if v, ok := rec[fl.Name]; ok {
				n = reflect.ValueOf(v).Len()
			}
			out[fl.CountField] = int64(n)
		}
	}
	return out
}

func randomString(rng *rand.Rand, n int) string {
	const letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// schemaInput is one generated XML Schema document for the onboard
// workload, with the first record to publish in its root format.
type schemaInput struct {
	name   string // root complexType, also the repository name
	doc    string
	record pbio.Record
	seq    uint64
	stamp  uint64
}

// scalarTypes are the xsd primitives generated fields draw from.
var scalarTypes = []string{"integer", "short", "long", "unsigned-long", "double", "float", "string", "boolean"}

// numericTypes may also form static and dynamic arrays.
var numericTypes = []string{"integer", "short", "long", "unsigned-long", "double", "float"}

// genSchema builds schema number i of a seed: a root type of 4 to 64
// elements (seq and stamp among them at seeded positions) mixing scalars,
// static and dynamic arrays and nested types, the shape of the paper's
// Appendix A documents.
func genSchema(seed int64, i int) schemaInput {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	in := schemaInput{
		name:  fmt.Sprintf("R%d", i),
		seq:   uint64(i),
		stamp: rng.Uint64(),
	}
	var doc strings.Builder
	doc.WriteString("<?xml version=\"1.0\"?>\n<xsd:schema xmlns:xsd=\"http://www.w3.org/1999/XMLSchema\">\n")

	type nested struct {
		name   string
		fields []string // xsd primitive of each element n0, n1, ...
	}
	var nests []nested
	for j, n := 0, rng.Intn(3); j < n; j++ {
		nt := nested{name: fmt.Sprintf("%sN%d", in.name, j)}
		for k, m := 0, 2+rng.Intn(5); k < m; k++ {
			nt.fields = append(nt.fields, numericTypes[rng.Intn(len(numericTypes))])
		}
		fmt.Fprintf(&doc, "  <xsd:complexType name=%q>\n", nt.name)
		for k, typ := range nt.fields {
			fmt.Fprintf(&doc, "    <xsd:element name=\"n%d\" type=\"xsd:%s\" />\n", k, typ)
		}
		doc.WriteString("  </xsd:complexType>\n")
		nests = append(nests, nt)
	}
	nestedRecord := func(nt nested) pbio.Record {
		rec := make(pbio.Record, len(nt.fields))
		for k, typ := range nt.fields {
			rec[fmt.Sprintf("n%d", k)] = scalarValue(rng, typ)
		}
		return rec
	}

	total := 4 + rng.Intn(61)
	seqAt := rng.Intn(total)
	stampAt := (seqAt + 1 + rng.Intn(total-1)) % total
	in.record = make(pbio.Record, total)
	fmt.Fprintf(&doc, "  <xsd:complexType name=%q>\n", in.name)
	for j := 0; j < total; j++ {
		name := fmt.Sprintf("f%d", j)
		switch {
		case j == seqAt:
			doc.WriteString("    <xsd:element name=\"seq\" type=\"xsd:unsigned-long\" />\n")
			in.record["seq"] = in.seq
			continue
		case j == stampAt:
			doc.WriteString("    <xsd:element name=\"stamp\" type=\"xsd:unsigned-long\" />\n")
			in.record["stamp"] = in.stamp
			continue
		}
		switch r := rng.Intn(20); {
		case r < 2 && len(nests) > 0:
			nt := nests[rng.Intn(len(nests))]
			fmt.Fprintf(&doc, "    <xsd:element name=%q type=%q />\n", name, nt.name)
			in.record[name] = nestedRecord(nt)
		case r < 3 && len(nests) > 0:
			nt := nests[rng.Intn(len(nests))]
			fmt.Fprintf(&doc, "    <xsd:element name=%q type=%q minOccurs=\"0\" maxOccurs=\"*\" />\n", name, nt.name)
			recs := make([]pbio.Record, rng.Intn(4))
			for k := range recs {
				recs[k] = nestedRecord(nt)
			}
			in.record[name] = recs
		case r < 6:
			typ := numericTypes[rng.Intn(len(numericTypes))]
			n := 2 + rng.Intn(7)
			fmt.Fprintf(&doc, "    <xsd:element name=%q type=\"xsd:%s\" minOccurs=\"%d\" maxOccurs=\"%d\" />\n", name, typ, n, n)
			in.record[name] = arrayValue(rng, typ, n)
		case r < 9:
			typ := numericTypes[rng.Intn(len(numericTypes))]
			fmt.Fprintf(&doc, "    <xsd:element name=%q type=\"xsd:%s\" minOccurs=\"0\" maxOccurs=\"*\" />\n", name, typ)
			in.record[name] = arrayValue(rng, typ, rng.Intn(9))
		default:
			typ := scalarTypes[rng.Intn(len(scalarTypes))]
			fmt.Fprintf(&doc, "    <xsd:element name=%q type=\"xsd:%s\" />\n", name, typ)
			in.record[name] = scalarValue(rng, typ)
		}
	}
	doc.WriteString("  </xsd:complexType>\n</xsd:schema>\n")
	in.doc = doc.String()
	return in
}

// scalarValue draws a value that fits the xsd primitive on every
// architecture profile.
func scalarValue(rng *rand.Rand, typ string) interface{} {
	switch typ {
	case "integer":
		return int64(rng.Int31())
	case "short":
		return int64(rng.Intn(math.MaxInt16))
	case "long":
		return int64(rng.Int31())
	case "unsigned-long":
		return uint64(rng.Uint32())
	case "double":
		return rng.NormFloat64() * 1e3
	case "float":
		return float64(float32(rng.NormFloat64() * 10))
	case "boolean":
		return rng.Intn(2) == 1
	default:
		return randomString(rng, 1+rng.Intn(24))
	}
}

func arrayValue(rng *rand.Rand, typ string, n int) interface{} {
	switch typ {
	case "unsigned-long":
		out := make([]uint64, n)
		for i := range out {
			out[i] = scalarValue(rng, typ).(uint64)
		}
		return out
	case "double", "float":
		out := make([]float64, n)
		for i := range out {
			out[i] = scalarValue(rng, typ).(float64)
		}
		return out
	default:
		out := make([]int64, n)
		for i := range out {
			out[i] = scalarValue(rng, typ).(int64)
		}
		return out
	}
}
