package canonjson

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sample has a field of every kind the Reader decodes.
type sample struct {
	S   string            `json:"s"`
	I   int               `json:"i,omitempty"`
	I32 int32             `json:"i32"`
	U8  uint8             `json:"u8"`
	U64 uint64            `json:"u64,omitempty"`
	B   []byte            `json:"b"`
	T   bool              `json:"t,omitempty"`
	L   []uint64          `json:"l"`
	M   map[string]int    `json:"m,omitempty"`
	MB  map[string][]byte `json:"mb"`
	P   *sample           `json:"p,omitempty"`
}

var sampleKeys = Keys[sample]()

func readSample(r *Reader, s *sample) {
	r.Object(sampleKeys, func(i int) {
		switch i {
		case 0:
			s.S = r.Intern("known")
		case 1:
			s.I = r.Int()
		case 2:
			s.I32 = r.Int32()
		case 3:
			s.U8 = r.Uint8()
		case 4:
			s.U64 = r.Uint64()
		case 5:
			s.B = r.Bytes()
		case 6:
			s.T = r.Bool()
		case 7:
			s.L = Slice(r, (*Reader).Uint64)
		case 8:
			s.M = Map(r, (*Reader).Int)
		case 9:
			s.MB = Map(r, (*Reader).Bytes)
		case 10:
			if !r.Null() {
				s.P = new(sample)
				readSample(r, s.P)
			}
		}
	})
}

// agree decodes data both ways. It fails the test when the Reader
// accepts input encoding/json rejects or decodes it to another value,
// and when Unmarshal's result differs from encoding/json's. It reports
// whether the Reader accepted.
func agree(t *testing.T, data []byte) bool {
	t.Helper()
	var ref sample
	refErr := json.Unmarshal(data, &ref)
	var fast sample
	ok := Decode(data, &fast, readSample)
	if ok && refErr != nil {
		t.Fatalf("accepted %q, which encoding/json rejects: %v", data, refErr)
	}
	if ok && !reflect.DeepEqual(fast, ref) {
		t.Fatalf("%q: decoded %+v, encoding/json %+v", data, fast, ref)
	}
	var got sample
	err := Unmarshal(data, &got, readSample)
	if (err == nil) != (refErr == nil) || !reflect.DeepEqual(got, ref) {
		t.Fatalf("%q: Unmarshal = %+v, %v; encoding/json = %+v, %v", data, got, err, ref, refErr)
	}
	return ok
}

func TestAcceptsMarshalOutput(t *testing.T) {
	for _, v := range []sample{
		{},
		{S: "known", B: []byte{}, L: []uint64{}, M: map[string]int{}, MB: map[string][]byte{}},
		{
			S: "a b~\x7f", I: math.MinInt64, I32: math.MaxInt32, U8: math.MaxUint8, U64: math.MaxUint64,
			B: []byte{0, 1, 2, 0xff}, T: true, L: []uint64{0, 1, 18446744073709551615},
			M: map[string]int{"": 0, "a": -1, "b": 1}, MB: map[string][]byte{"k": {9}, "nil": nil, "z": {}},
			P: &sample{S: "inner", I32: math.MinInt32},
		},
		{
			// Marshal escapes quotes, backslashes, control bytes, <, >,
			// &, U+2028 and U+2029, writes other UTF-8 as is, and
			// replaces invalid UTF-8 with U+FFFD.
			S:  "q\"b\\ \n\t\x00\x1f <a&b> zoë 密码 😀 " + string(rune(0x2028)) + string(rune(0x2029)) + " \xff",
			M:  map[string]int{"<": 1, "zoë": 2, "\"": 3, "😀": 4},
			MB: map[string][]byte{"a&b": {1}, "é": {2}},
			P:  &sample{S: "ünïcode"},
		},
	} {
		compact, _ := json.Marshal(v)
		indented, _ := json.MarshalIndent(v, "", "  ")
		for _, data := range [][]byte{compact, indented} {
			if !agree(t, data) {
				t.Errorf("declined encoding/json's own output %s", data)
			}
		}
	}
}

// unicodeEscapes turns each %u in s into a JSON unicode escape's
// backslash-u, so inputs can spell such escapes inside raw strings.
func unicodeEscapes(s string) string { return strings.ReplaceAll(s, "%u", "\\u") }

func TestDeclinesNonCanonical(t *testing.T) {
	for _, in := range []string{
		``, `null`, `[]`, `{`, `{"s":"x",}`, `{"s":"x"} x`, `{"s":"x"}{}`,
		"{\"s\":\"\t\"}", `{"s":"\x"}`, `{"s":"\`, `{"s":"é`,
		unicodeEscapes(`{"s":"%u12"}`), unicodeEscapes(`{"s":"%u12g4"}`),
		unicodeEscapes(`{"s":"%ud800"}`), unicodeEscapes(`{"s":"%udfff"}`), unicodeEscapes(`{"s":"%ud83d%ude00"}`),
		"{\"s\":\"\xff\"}", "{\"s\":\"\xc3\"}", "{\"s\":\"\xed\xa0\x80\"}",
		`{"m":{"é":1,"è":2}}`, `{"m":{"é":1,"é":2}}`, unicodeEscapes(`{"m":{"%u00e9":1,"%u00e8":2}}`),
		`{"x":1}`, `{"S":"x"}`, `{"s":"x","s":"y"}`, `{"i32":1,"i":2}`,
		`{"i":1.0}`, `{"i":1e2}`, `{"i":01}`, `{"i":-0}`, `{"i":+1}`, `{"i":-}`,
		`{"u8":256}`, `{"u8":-1}`, `{"u64":18446744073709551616}`, `{"i32":2147483648}`, `{"i32":-2147483649}`,
		`{"i":null}`, `{"s":null}`, `{"t":1}`, `{"t":nul}`,
		`{"b":"AQ"}`, `{"b":"!!!!"}`, `{"b":"AQ==x"}`,
		`{"m":{"b":1,"a":2}}`, `{"m":{"a":1,"a":2}}`, `{"m":{"a":null}}`,
		`{"l":[1,]}`, `{"l":[null]}`, "\xef\xbb\xbf{}", "{}\f",
	} {
		if agree(t, []byte(in)) {
			t.Errorf("accepted non-canonical %q", in)
		}
	}
}

func TestDecodesEscapesAndUTF8(t *testing.T) {
	for _, in := range []string{
		`{"s":"a\"b\\c\/d\be\ff\ng\rh\ti"}`,
		unicodeEscapes(`{"s":"%u0000%u001F%u003c%u00E9%u2028%uffff"}`),
		unicodeEscapes(`{"s":"é","m":{"a":1,"%u00e9":2,"%u00e9a":3},"mb":{"x":"%u0041Q==","y":"AQ=="}}`),
		unicodeEscapes(`{"s":"k%u006eown"}`), unicodeEscapes(`{"%u0073":"known"}`),
		"{\"s\":\"\x7f\xef\xbf\xbd\"}",
	} {
		if !agree(t, []byte(in)) {
			t.Errorf("declined %s", in)
		}
	}
}

func TestKeys(t *testing.T) {
	type plain struct {
		A int `json:"a,omitempty"`
		B int
		C int `json:",string"`
	}
	if got, want := Keys[plain](), []string{"a", "B", "C"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Keys = %q, want %q", got, want)
	}
	type skipped struct {
		A int `json:"-"`
	}
	type unexported struct {
		a int
	}
	type embedded struct {
		plain
	}
	for name, keys := range map[string]func() []string{
		"skipped": Keys[skipped], "unexported": Keys[unexported], "embedded": Keys[embedded],
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Keys[%s] did not panic", name)
				}
			}()
			keys()
		}()
	}
}

func TestIntegerRanges(t *testing.T) {
	for _, in := range []string{
		`{"i":-9223372036854775808}`, `{"i":9223372036854775807}`, `{"i32":-2147483648}`, `{"i32":2147483647}`,
		`{"u64":18446744073709551615}`, `{"u64":10000000000000000000}`, `{"u8":0}`, `{"u8":255}`,
	} {
		if !agree(t, []byte(in)) {
			t.Errorf("declined in-range %s", in)
		}
	}
}

func TestDecodedMemoryIsOwned(t *testing.T) {
	data := []byte(`{"s":"abc","b":"AQID","mb":{"k":"BA=="}}`)
	var s sample
	if !Decode(data, &s, readSample) {
		t.Fatal("declined")
	}
	for i := range data {
		data[i] = 'x'
	}
	if s.S != "abc" || string(s.B) != "\x01\x02\x03" || string(s.MB["k"]) != "\x04" {
		t.Fatalf("decoded value changed with its input: %+v", s)
	}
}

func TestInternReturnsKnownString(t *testing.T) {
	data := []byte(`"known"`)
	if allocs := testing.AllocsPerRun(10, func() {
		r := Reader{buf: data}
		if r.Intern("known") != "known" {
			t.Fatal("Intern lost the string")
		}
	}); allocs != 0 {
		t.Errorf("Intern of a known string allocated %v times", allocs)
	}
}

// escapeSeeds holds a string of every kind AppendString escapes, and
// some it copies as they are.
var escapeSeeds = []string{
	"", "plain ASCII ~\x7f", "q\"b\\ \b\f\n\r\t\x00\x01\x1f", "<a&b>",
	"zoë 密码 😀 \ufffd", "\u2028\u2029 \u2027\u202a", "\xff \xe2\x80 \xed\xa0\x80 \xc3",
}

// FuzzAppendString: AppendString writes exactly what json.Marshal
// writes for the same string, after whatever dst already holds.
func FuzzAppendString(f *testing.F) {
	for _, s := range escapeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("AppendString(%q) = %q, json.Marshal %q", s, got[1:], want)
		}
	})
}

func TestAppendStringInPlace(t *testing.T) {
	buf := make([]byte, 0, 256)
	for _, s := range escapeSeeds {
		if allocs := testing.AllocsPerRun(10, func() { buf = AppendString(buf[:0], s) }); allocs != 0 {
			t.Errorf("AppendString(%q) into a buffer with room allocated %v times", s, allocs)
		}
	}
}
