package proto

import (
	"bytes"
	"encoding/xml"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the current encoder")

// encoding/xml is the reference implementation the codec is proved against:
// refEncode is what Encode was before the codec, refDecode what Decode was
// before it became the scanner alone.

func refEncode(t testing.TB, m *Message) []byte {
	t.Helper()
	data, err := xml.Marshal(m)
	if err != nil {
		t.Fatalf("xml.Marshal(%+v): %v", m, err)
	}
	return data
}

func refDecode(data []byte) (*Message, error) {
	var m Message
	if err := xml.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("proto: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// encodeRaw is Encode without Validate: the encoder is total, and is held
// to the reference on invalid messages too.
func encodeRaw(m *Message) []byte {
	var buf bytes.Buffer
	m.writeXML(&buf)
	return buf.Bytes()
}

// scrubNaN replaces every NaN under v by a sentinel, so that DeepEqual can
// compare two decodes of the same "NaN".
func scrubNaN(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			scrubNaN(v.Elem())
		}
	case reflect.Struct:
		for i := range v.NumField() {
			scrubNaN(v.Field(i))
		}
	case reflect.Slice:
		for i := range v.Len() {
			scrubNaN(v.Index(i))
		}
	case reflect.Float64:
		if math.IsNaN(v.Float()) {
			v.SetFloat(-0x1p-1000)
		}
	}
}

// sameMessage is DeepEqual with NaN equal to NaN. It scrubs its arguments.
func sameMessage(a, b *Message) bool {
	scrubNaN(reflect.ValueOf(a))
	scrubNaN(reflect.ValueOf(b))
	return reflect.DeepEqual(a, b)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkDecode holds Decode to the reference on one input: where the scanner
// accepts, its message equals xml.Unmarshal's and Decode's result, verdict
// and error text are the reference's; where it declines, Decode refuses the
// input as non-canonical.
func checkDecode(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	input := bytes.Clone(data)
	var scanned Message
	var st Status
	accepted = scanMessage(data, &scanned, &st, make(map[string]string))
	if accepted {
		var want Message
		if err := xml.Unmarshal(data, &want); err != nil {
			t.Fatalf("scanner accepted %q, encoding/xml rejects it: %v", data, err)
		}
		gotErr, wantErr := scanned.Validate(), want.Validate()
		if !sameMessage(&scanned, &want) || errText(gotErr) != errText(wantErr) {
			t.Fatalf("scanner read %q as\n%+v (%v), encoding/xml as\n%+v (%v)", data, scanned, gotErr, want, wantErr)
		}
	}
	got, gotErr := Decode(data)
	if !accepted {
		if gotErr != errNonCanonical {
			t.Fatalf("Decode(%q), which the scanner declines, = %+v, %v", data, got, gotErr)
		}
	} else if want, wantErr := refDecode(data); errText(gotErr) != errText(wantErr) ||
		(got == nil) != (want == nil) || got != nil && !sameMessage(got, want) {
		t.Fatalf("Decode(%q) = %+v, %v; reference %+v, %v", data, got, gotErr, want, wantErr)
	}
	if !bytes.Equal(data, input) {
		t.Fatalf("decoding changed its input %q to %q", input, data)
	}
	return accepted
}

// checkEncode holds the encoder to the reference on one message, valid or
// not: the same bytes as xml.Marshal, which the scanner reads back whenever
// the type is one of the vocabulary's.
func checkEncode(t *testing.T, m *Message) []byte {
	t.Helper()
	want := refEncode(t, m)
	got := encodeRaw(m)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoder wrote\n%s\nxml.Marshal\n%s", got, want)
	}
	if enc, err := m.Encode(); err == nil && !bytes.Equal(enc, want) {
		t.Fatalf("Encode wrote\n%s\nxml.Marshal\n%s", enc, want)
	} else if (err == nil) != (m.Validate() == nil) {
		t.Fatalf("Encode: %v, Validate: %v", err, m.Validate())
	}
	accepted := checkDecode(t, got)
	known := false
	for _, typ := range msgTypes {
		known = known || m.Type == typ
	}
	if accepted != known {
		t.Fatalf("scanner accepted = %v for its own encoder's %s", accepted, got)
	}
	return got
}

const allEscapes = "q\" a' &amp; <lt> \t\n\r \x00\x1f\x7f \xff\xc0\xaf \uFFFD\uFFFE\uFFFF é世\U0001F600 ]]> &#34;"

// wireMessages is one canonical message per kind, plus one carrying every
// escape and one with every payload at once (invalid, but encodable).
func wireMessages() []*Message {
	status := Status{
		State: "overloaded", Grade: 2, Load1: 3.25, Load5: 1.0625, CPUUtilPct: 97.5, NumProcs: 143,
		Sockets: 12, NetInMBps: 7.2, NetOutMBps: 1e-7, MemAvailPct: 12.5, MemAvail: 16 << 20, DiskAvail: 1 << 40,
	}
	return []*Message{
		{Type: TypeRegister, From: "ws1", Seq: 1, Static: &StaticInfo{
			Addr: "ws1:7000", OS: "linux", Arch: "amd64", CPUSpeed: 2400, MemTotal: 8 << 30,
			Software: []string{"hpcm", "lam-mpi"},
		}},
		{Type: TypeStatus, From: "ws1", Seq: 2, Status: &status},
		{Type: TypeUnregister, From: "ws1", Seq: 4},
		{Type: TypeProcessRegister, From: "ws1", Seq: 5, Process: &ProcessInfo{
			PID: 101, Name: "test_tree", Start: 1096761600000000000,
			SchemaXML: `<applicationSchema><name>test_tree</name><data size="8388608"/></applicationSchema>`,
		}},
		{Type: TypeProcessExit, From: "ws1", Seq: 6, Process: &ProcessInfo{PID: 101}},
		{Type: TypeCandidateRequest, From: "ws1", Seq: 7},
		{Type: TypeCandidateResponse, From: "registry", To: "ws1", Seq: 7,
			Candidate: &Candidate{OK: true, Host: "ws4", Addr: "ws4:7000"}},
		{Type: TypeMigrate, From: "registry", To: "ws1", Seq: 8,
			Migrate: &MigrateOrder{PID: 101, DestHost: "ws4", DestAddr: "ws4:7000", Policy: "policy3"}},
		{Type: TypeAck, From: "registry", To: "ws1", Seq: 2},
		{Type: TypeAck, From: allEscapes, To: allEscapes, Seq: math.MaxUint64, Error: allEscapes},
		{Type: TypeStatus, From: "x", To: "y", Seq: 9,
			Static:    &StaticInfo{CPUSpeed: math.Inf(1), MemTotal: math.MinInt64, Software: []string{"", allEscapes, ""}},
			Status:    &Status{State: allEscapes, Grade: math.NaN(), Load1: math.Inf(-1), Load5: math.Copysign(0, -1), NumProcs: math.MinInt64, MemAvail: math.MaxInt64},
			Process:   &ProcessInfo{PID: -1, Name: allEscapes, Start: -1, SchemaXML: allEscapes},
			Candidate: &Candidate{Reason: allEscapes},
			Migrate:   &MigrateOrder{PID: -7, DestHost: allEscapes},
			Error:     "everything at once",
		},
	}
}

// TestWireGolden pins the wire: the encoder's bytes for every kind, one
// message per line, compared to a committed file so that a change to what
// peers see is a reviewed diff; every line is also what xml.Marshal writes
// and is read back by the scanner as xml.Unmarshal reads it.
func TestWireGolden(t *testing.T) {
	var got []byte
	for _, m := range wireMessages() {
		got = append(append(got, checkEncode(t, m)...), '\n')
	}
	golden := filepath.Join("testdata", "wire.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the wire changed; if that is deliberate, rerun with -update and review the diff.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// nonCanonical is documents encoding/xml reads (or rejects) that are not in
// the encoder's form. The scanner must decline every one.
var nonCanonical = []string{
	// A peer from before SentAt was deleted: an attribute the codec does not know.
	`<hpcmMsg type="ack" from="registry" to="ws1" seq="3" sentAt="1000000002"></hpcmMsg>`,
	// A peer from before statusBatch was deleted: a type outside the vocabulary.
	`<hpcmMsg type="statusBatch" from="gw1" seq="3"><batch><report host="ws2"><status><state>free</state><grade>0</grade><load1>0</load1><load5>0</load5><cpuUtilPct>0</cpuUtilPct><numProcs>0</numProcs><sockets>0</sockets><netInMBps>0</netInMBps><netOutMBps>0</netOutMBps><memAvailPct>0</memAvailPct><memAvail>0</memAvail><diskAvail>0</diskAvail></status></report></batch></hpcmMsg>`,
	// Peers from before the empty <batch></batch> wrapper was dropped: every
	// frame they wrote carries it, a heartbeat's status and ack included.
	`<hpcmMsg type="status" from="ws2" seq="2"><status><state>free</state><grade>0</grade><load1>0</load1><load5>0</load5><cpuUtilPct>0</cpuUtilPct><numProcs>0</numProcs><sockets>0</sockets><netInMBps>0</netInMBps><netOutMBps>0</netOutMBps><memAvailPct>0</memAvailPct><memAvail>0</memAvail><diskAvail>0</diskAvail></status><batch></batch></hpcmMsg>`,
	`<hpcmMsg type="ack" from="registry" to="ws2" seq="2"><batch></batch></hpcmMsg>`,
	`<hpcmMsg from="registry" type="ack"></hpcmMsg>`,                         // attribute order
	`<hpcmMsg type='ack' from='registry'></hpcmMsg>`,                         // quote style
	`<hpcmMsg type="ack"  from="registry"></hpcmMsg>`,                        // whitespace in the tag
	`<hpcmMsg type="ack" from="registry" ></hpcmMsg>`,                        //
	`<hpcmMsg type="ack" from="registry"></hpcmMsg >`,                        //
	"<hpcmMsg type=\"ack\" from=\"registry\">\n<error>a</error>\n</hpcmMsg>", // whitespace between elements
	`<hpcmMsg type="ack" from="registry"/>`,                                  // self-closing
	`<hpcmMsg type="ack" from="registry"><error/></hpcmMsg>`,                 //
	`<?xml version="1.0"?><hpcmMsg type="ack" from="r"></hpcmMsg>`,           // prolog
	`<hpcmMsg type="ack" from="r"><!-- hi --></hpcmMsg>`,                     // comment
	`<hpcmMsg type="ack" from="r"><error><![CDATA[boom]]></error></hpcmMsg>`,
	`<hpcmMsg type="ack" from="r"><error>a&quot;b</error></hpcmMsg>`, // entity forms
	`<hpcmMsg type="ack" from="r"><error>a&#x22;b</error></hpcmMsg>`,
	`<hpcmMsg type="ack" from="r"><error>a&#xa;b</error></hpcmMsg>`,
	`<hpcmMsg type="ack" from="r"><error>a&#10;b</error></hpcmMsg>`,
	`<hpcmMsg type="ack" from="r"><error>a&bogus;b</error></hpcmMsg>`,
	`<hpcmMsg type="ack" from="r"><error>a&</error></hpcmMsg>`,
	"<hpcmMsg type=\"ack\" from=\"r\"><error>a\rb</error></hpcmMsg>", // raw forms of escaped bytes
	"<hpcmMsg type=\"ack\" from=\"r\"><error>a\nb</error></hpcmMsg>",
	`<hpcmMsg type="ack" from="r"><error>a>b</error></hpcmMsg>`,
	`<hpcmMsg type="ack" from="r"><error>a"b</error></hpcmMsg>`,
	"<hpcmMsg type=\"ack\" from=\"r\"><error>a\x01b</error></hpcmMsg>", // outside XML's range
	"<hpcmMsg type=\"ack\" from=\"r\"><error>a\xffb</error></hpcmMsg>",
	"<hpcmMsg type=\"ack\" from=\"r\"><error>a\uFFFEb</error></hpcmMsg>",
	`<hpcmMsg type="ack" from="r"><error>a</error><extra>1</extra></hpcmMsg>`,                                   // unknown element
	`<hpcmMsg type="candidateResponse" from="r"><error>a</error><candidate><ok>true</ok></candidate></hpcmMsg>`, // element order
	`<hpcmMsg type="ack" from="r"></hpcmMsg>trailing`,                                                           // trailing bytes
	`<hpcmMsg type="ack" from="r"></hpcmMsg><hpcmMsg/>`,
	`<hpcmMsg type="ack" from="r" seq="+3"></hpcmMsg>`, // numbers strconv refuses
	`<hpcmMsg type="ack" from="r" seq=" 3"></hpcmMsg>`,
	`<hpcmMsg type="ack" from="r" seq=""></hpcmMsg>`,
	`<hpcmMsg type="candidateResponse" from="r"><candidate><ok>1</ok></candidate></hpcmMsg>`,
	`<hpcmMsg type="candidateResponse" from="r"><candidate><ok> true</ok></candidate></hpcmMsg>`,
	`<hpcmMsg type="processExit" from="r"><process><pid></pid><name></name><start>1e3</start></process></hpcmMsg>`,
	`<hpcmMsg type="processExit" from="r"><process><pid>99999999999999999999</pid><name></name><start>0</start></process></hpcmMsg>`,
	`<hpcmMsg type="weird" from="r"></hpcmMsg>`, // a type outside the vocabulary
	`<hpcmMsg type="" from="r"></hpcmMsg>`,
	`<hpcmmsg type="ack" from="r"></hpcmmsg>`,
	`<hpcmMsg xmlns="urn:x" type="ack" from="r"></hpcmMsg>`,
	`<hpcmMsg type="status" from="r"><status><state>free</state></status></hpcmMsg>`, // a partial status
	`<hpcmMsg type="ack" from="r">`,                                                  // truncations
	`<hpcmMsg type="ack" from="r`,
	`<hpcmMsg type="ack`,
	``,
}

// TestScannerDeclines: everything outside the canonical grammar is declined,
// never misread, and Decode refuses it — the sentAt and statusBatch peers
// and the other documents encoding/xml would read included.
func TestScannerDeclines(t *testing.T) {
	for _, doc := range nonCanonical {
		if checkDecode(t, []byte(doc)) {
			t.Errorf("scanner accepted non-canonical %q", doc)
		}
	}
	if _, err := refDecode([]byte(nonCanonical[0])); err != nil {
		t.Fatalf("the sentAt peer no longer reads under encoding/xml (%v); it tests nothing", err)
	}
}

// TestScannerAcceptsWhatStrconvAccepts: the canonical grammar is loose in one
// place — a number is whatever the strconv function encoding/xml uses reads
// without trimming — and tight everywhere else; either way the answer is the
// reference's.
func TestScannerAcceptsWhatStrconvAccepts(t *testing.T) {
	for _, doc := range []string{
		`<hpcmMsg type="ack" from="r" seq="0"></hpcmMsg>`,
		`<hpcmMsg type="ack" from="r" seq="007"><error></error></hpcmMsg>`,
		`<hpcmMsg type="register" from="r"><static><addr></addr><os></os><arch></arch><cpuSpeed>0x1p-2</cpuSpeed><memTotal>-0</memTotal><software><package></package></software></static></hpcmMsg>`,
		`<hpcmMsg type="register" from="r"><static><addr></addr><os></os><arch></arch><cpuSpeed>infinity</cpuSpeed><memTotal>+5</memTotal><software></software></static></hpcmMsg>`,
	} {
		if !checkDecode(t, []byte(doc)) {
			t.Errorf("scanner declined %q", doc)
		}
	}
}

// FuzzDecodeDifferential: on arbitrary bytes the scanner either declines,
// and Decode errors, or returns what xml.Unmarshal returns, with the same
// Validate verdict, and Decode returns that too.
func FuzzDecodeDifferential(f *testing.F) {
	for _, m := range wireMessages() {
		f.Add(encodeRaw(m))
	}
	for _, doc := range nonCanonical {
		f.Add([]byte(doc))
	}
	f.Add([]byte("not xml at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}

// FuzzEncodeDifferential: for messages of every kind built from the fuzz
// arguments — valid or not — the encoder's bytes are xml.Marshal's.
func FuzzEncodeDifferential(f *testing.F) {
	schema := `<applicationSchema><name>test_tree</name></applicationSchema>`
	for kind := uint8(0); kind < 11; kind++ {
		f.Add(kind, "ws1", "registry", uint64(kind), "busy", "ws4:7000", schema, "hpcm,lam-mpi", 0.97, 55.5, int64(42), int64(128<<20), true)
		f.Add(kind, allEscapes, allEscapes, uint64(math.MaxUint64), allEscapes, allEscapes, allEscapes, ","+allEscapes+",,x", math.NaN(), math.Inf(-1), int64(math.MinInt64), int64(math.MaxInt64), false)
		f.Add(kind, "", "", uint64(0), "", "", "", "", math.Inf(1), math.Copysign(0, -1), int64(-1), int64(0), false)
		f.Add(kind, "a\x00b", "\xed\xa0\x80", uint64(1), "\x7f\x80", "\xf4\x90\x80\x80", "]]>", "one", 1e-320, 1e21, int64(7), int64(-7), true)
	}
	f.Fuzz(func(t *testing.T, kind uint8, from, to string, seq uint64, s1, s2, s3, pkgs string, f1, f2 float64, i1, i2 int64, ok bool) {
		status := Status{
			State: s1, Grade: f1, Load1: f2, Load5: -f1, CPUUtilPct: f1 * f2, NumProcs: int(i1), Sockets: int(i2),
			NetInMBps: f2 / 3, NetOutMBps: f1 + f2, MemAvailPct: f1 - f2, MemAvail: i2, DiskAvail: i1,
		}
		var software []string
		if pkgs != "" {
			software = strings.Split(pkgs, ",")
		}
		static := &StaticInfo{Addr: s2, OS: s3, Arch: s1, CPUSpeed: f1, MemTotal: i1, Software: software}
		process := &ProcessInfo{PID: int(i1), Name: s1, Start: i2, SchemaXML: s3}
		candidate := &Candidate{OK: ok, Host: s1, Addr: s2, Reason: s3}
		order := &MigrateOrder{PID: int(i2), DestHost: s1, DestAddr: s2, Policy: s3}
		m := &Message{From: from, To: to, Seq: seq}
		switch kind % 11 {
		case 0:
			m.Type, m.Static = TypeRegister, static
		case 1:
			m.Type, m.Status = TypeStatus, &status
		case 2:
			m.Type = TypeUnregister
		case 3:
			m.Type, m.Process = TypeProcessRegister, process
		case 4:
			m.Type, m.Process = TypeProcessExit, process
		case 5:
			m.Type = TypeCandidateRequest
		case 6:
			m.Type, m.Candidate = TypeCandidateResponse, candidate
		case 7:
			m.Type, m.Migrate = TypeMigrate, order
		case 8:
			m.Type, m.Error = TypeAck, s3
		case 9: // every payload at once, under a type of the vocabulary
			*m = Message{Type: TypeStatus, From: from, To: to, Seq: seq, Static: static, Status: &status,
				Process: process, Candidate: candidate, Migrate: order, Error: s2}
		case 10: // a type outside it
			m.Type, m.Error = MsgType(s1), s2
		}
		checkEncode(t, m)
	})
}

// TestRecvDoesNotAliasTheReadBuffer: a message returned by Recv is unchanged
// after the next Recv has overwritten the connection's read buffer. The
// first frame grows the buffer, so that the third lands on the very bytes
// the second was scanned from.
func TestRecvDoesNotAliasTheReadBuffer(t *testing.T) {
	big := &Message{Type: TypeAck, From: "registry", Error: strings.Repeat("grow the read buffer ", 64)}
	messages := func() []*Message {
		return []*Message{
			{Type: TypeRegister, From: "ws1", To: "registry", Seq: 1, Static: &StaticInfo{
				Addr: "ws1:7000", OS: "simos", Arch: "sim64", Software: []string{"hpcm", "lam-mpi"}}},
			{Type: TypeStatus, From: "ws1", To: "registry", Seq: 2, Status: &Status{State: "draining", Load1: 1}},
			{Type: TypeProcessRegister, From: "ws1", Seq: 4, Process: &ProcessInfo{PID: 1, Name: "tree", SchemaXML: "<schema a=\"1\"/>"}},
			{Type: TypeCandidateResponse, From: "registry", Seq: 5, Candidate: &Candidate{Host: "ws4", Addr: "ws4:7000", Reason: "least loaded"}},
			{Type: TypeMigrate, From: "registry", Seq: 6, Migrate: &MigrateOrder{PID: 1, DestHost: "ws4", DestAddr: "ws4:7000", Policy: "policy3"}},
			{Type: TypeAck, From: "registry", To: "ws1", Seq: 7, Error: "a \"quoted\" refusal"},
		}
	}
	for i, first := range messages() {
		// The overwriting frame: the next kind round the table with every
		// byte of text different, under a longer envelope.
		second := messages()[(i+1)%len(messages())]
		second.From = strings.Repeat("Z", 150)
		var stream bytes.Buffer
		c := NewConn(&stream)
		for _, m := range []*Message{big, first, second} {
			if err := c.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
		readBuf := &c.readBuf[0]
		got, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
		if &c.readBuf[0] != readBuf {
			t.Fatal("the read buffer was reallocated; the test no longer overwrites the frame it checks")
		}
		want := messages()[i]
		want.XMLName = got.XMLName
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s changed under the next Recv:\n%+v\nwant\n%+v", want.Type, got, want)
		}
	}
}

// BenchmarkCodec is the per-message cost of the codec on the two kinds a
// heartbeat is made of, each beside the reflective reference.
func BenchmarkCodec(b *testing.B) {
	all := wireMessages()
	for _, typ := range []MsgType{TypeStatus, TypeAck} {
		// A kind's first message in the golden table is its canonical one.
		m := all[slices.IndexFunc(all, func(m *Message) bool { return m.Type == typ })]
		wire, err := m.Encode()
		if err != nil {
			b.Fatal(err)
		}
		c := NewConn(discard{})
		b.Run(string(typ)+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.Send(m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(string(typ)+"/encode/xml", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := xml.Marshal(m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(string(typ)+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(string(typ)+"/decode/xml", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := refDecode(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
