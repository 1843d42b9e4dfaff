package proto

import (
	"bytes"
	"encoding/xml"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The wire codec. The paper's XML schema is the contract, and the bytes
// encoding/xml produced for it are what peers have always seen, so the
// encoder below emits exactly those bytes (testdata/wire.golden pins them,
// FuzzEncodeDifferential compares them to xml.Marshal) and the scanner reads
// exactly that canonical form: attributes and elements in declaration
// order, no whitespace, comments, CDATA or prolog, numbers as strconv
// prints them, and in text only the eight entities of the table below.
// Anything else the scanner declines — it never reports an error — and
// Decode refuses the frame as non-canonical: every producer of the protocol
// is this encoder. encoding/xml survives only in the tests, as the oracle
// both directions are fuzzed against.

// entities is the escape vocabulary of xml.EscapeText, the only entity
// forms the encoder writes and the scanner reads.
var entities = [...]struct {
	char byte
	text string
}{
	{'"', "&#34;"}, {'\'', "&#39;"}, {'&', "&amp;"}, {'<', "&lt;"}, {'>', "&gt;"},
	{'\t', "&#x9;"}, {'\n', "&#xA;"}, {'\r', "&#xD;"},
}

// replacement is what a byte XML cannot carry is written as (U+FFFD).
const replacement = "\uFFFD"

// escapeFor maps an ASCII byte to what the encoder writes in its place:
// "" for itself, an entity, or U+FFFD for a control character outside
// XML's character range. A byte with an entry never appears raw in
// canonical text.
var escapeFor = func() (t [utf8.RuneSelf]string) {
	for c := 0; c < 0x20; c++ {
		t[c] = replacement
	}
	for _, e := range entities {
		t[e.char] = e.text
	}
	return t
}()

// validRune reports whether a decoded multi-byte rune of the given width
// may appear in XML text: not a decoding error, not U+FFFE or U+FFFF.
func validRune(r rune, width int) bool {
	return !(r == utf8.RuneError && width == 1) && r != 0xFFFE && r != 0xFFFF
}

// The nine message types and the three rule states, for interning: a decoded
// message's Type and State share these constants instead of being copied
// out of every frame.
var (
	msgTypes = [...]MsgType{
		TypeRegister, TypeStatus, TypeUnregister, TypeProcessRegister, TypeProcessExit,
		TypeCandidateRequest, TypeCandidateResponse, TypeMigrate, TypeAck,
	}
	ruleStates = [...]string{"free", "busy", "overloaded"}
)

// ---- encode ----

// writeXML renders the message into buf, byte for byte what xml.Marshal
// produced: every set field in declaration order, and the <software>
// wrapper the reflective encoder opened even when empty.
func (m *Message) writeXML(buf *bytes.Buffer) {
	buf.WriteString(`<hpcmMsg type="`)
	writeEscaped(buf, string(m.Type))
	buf.WriteByte('"')
	if m.From != "" {
		buf.WriteString(` from="`)
		writeEscaped(buf, m.From)
		buf.WriteByte('"')
	}
	if m.To != "" {
		buf.WriteString(` to="`)
		writeEscaped(buf, m.To)
		buf.WriteByte('"')
	}
	if m.Seq != 0 {
		buf.WriteString(` seq="`)
		buf.Write(strconv.AppendUint(buf.AvailableBuffer(), m.Seq, 10))
		buf.WriteByte('"')
	}
	buf.WriteByte('>')
	if s := m.Static; s != nil {
		buf.WriteString("<static>")
		writeString(buf, "addr", s.Addr)
		writeString(buf, "os", s.OS)
		writeString(buf, "arch", s.Arch)
		writeFloat(buf, "cpuSpeed", s.CPUSpeed)
		writeInt(buf, "memTotal", s.MemTotal)
		buf.WriteString("<software>")
		for _, pkg := range s.Software {
			writeOptString(buf, "package", pkg)
		}
		buf.WriteString("</software></static>")
	}
	if st := m.Status; st != nil {
		buf.WriteString("<status>")
		writeString(buf, "state", st.State)
		writeFloat(buf, "grade", st.Grade)
		writeFloat(buf, "load1", st.Load1)
		writeFloat(buf, "load5", st.Load5)
		writeFloat(buf, "cpuUtilPct", st.CPUUtilPct)
		writeInt(buf, "numProcs", int64(st.NumProcs))
		writeInt(buf, "sockets", int64(st.Sockets))
		writeFloat(buf, "netInMBps", st.NetInMBps)
		writeFloat(buf, "netOutMBps", st.NetOutMBps)
		writeFloat(buf, "memAvailPct", st.MemAvailPct)
		writeInt(buf, "memAvail", st.MemAvail)
		writeInt(buf, "diskAvail", st.DiskAvail)
		buf.WriteString("</status>")
	}
	if p := m.Process; p != nil {
		buf.WriteString("<process>")
		writeInt(buf, "pid", int64(p.PID))
		writeString(buf, "name", p.Name)
		writeInt(buf, "start", p.Start)
		writeOptString(buf, "schema", p.SchemaXML)
		buf.WriteString("</process>")
	}
	if c := m.Candidate; c != nil {
		buf.WriteString("<candidate><ok>")
		buf.Write(strconv.AppendBool(buf.AvailableBuffer(), c.OK))
		buf.WriteString("</ok>")
		writeOptString(buf, "host", c.Host)
		writeOptString(buf, "addr", c.Addr)
		writeOptString(buf, "reason", c.Reason)
		buf.WriteString("</candidate>")
	}
	if o := m.Migrate; o != nil {
		buf.WriteString("<migrate>")
		writeInt(buf, "pid", int64(o.PID))
		writeString(buf, "destHost", o.DestHost)
		writeString(buf, "destAddr", o.DestAddr)
		writeOptString(buf, "policy", o.Policy)
		buf.WriteString("</migrate>")
	}
	writeOptString(buf, "error", m.Error)
	buf.WriteString("</hpcmMsg>")
}

func writeOpen(buf *bytes.Buffer, name string) {
	buf.WriteByte('<')
	buf.WriteString(name)
	buf.WriteByte('>')
}

func writeClose(buf *bytes.Buffer, name string) {
	buf.WriteString("</")
	buf.WriteString(name)
	buf.WriteByte('>')
}

func writeString(buf *bytes.Buffer, name, v string) {
	writeOpen(buf, name)
	writeEscaped(buf, v)
	writeClose(buf, name)
}

// writeOptString is writeString under `omitempty`.
func writeOptString(buf *bytes.Buffer, name, v string) {
	if v != "" {
		writeString(buf, name, v)
	}
}

func writeInt(buf *bytes.Buffer, name string, v int64) {
	writeOpen(buf, name)
	buf.Write(strconv.AppendInt(buf.AvailableBuffer(), v, 10))
	writeClose(buf, name)
}

func writeFloat(buf *bytes.Buffer, name string, v float64) {
	writeOpen(buf, name)
	buf.Write(strconv.AppendFloat(buf.AvailableBuffer(), v, 'g', -1, 64))
	writeClose(buf, name)
}

// writeEscaped writes s as xml.EscapeText does: the eight entities, and
// U+FFFD for invalid UTF-8 and for characters outside XML's range.
func writeEscaped(buf *bytes.Buffer, s string) {
	last := 0
	for i := 0; i < len(s); {
		esc, width := "", 1
		if c := s[i]; c < utf8.RuneSelf {
			esc = escapeFor[c]
		} else if r, w := utf8.DecodeRuneInString(s[i:]); validRune(r, w) {
			width = w
		} else {
			esc, width = replacement, w
		}
		if esc != "" {
			buf.WriteString(s[last:i])
			buf.WriteString(esc)
			last = i + width
		}
		i += width
	}
	buf.WriteString(s[last:])
}

// ---- decode ----

// scanner reads the canonical grammar from the front of rest. A mismatch
// sets bad and is sticky, so a message is read as one straight run of
// expectations and judged once at the end. names, when set, interns the
// From and To values (Conn.names).
type scanner struct {
	rest  []byte
	bad   bool
	names map[string]string
}

// scanMessage overwrites m from data if data is exactly one canonical
// message, reading a status payload into status; otherwise it reports false
// ("not mine") and m is to be discarded. names interns From and To; nil
// copies them.
func scanMessage(data []byte, m *Message, status *Status, names map[string]string) bool {
	s := scanner{rest: data, names: names}
	*m = Message{XMLName: xml.Name{Local: "hpcmMsg"}}
	s.lit(`<hpcmMsg type="`)
	m.Type = s.msgType()
	s.lit(`"`)
	if s.tryLit(` from="`) {
		m.From = s.name()
	}
	if s.tryLit(` to="`) {
		m.To = s.name()
	}
	if s.tryLit(` seq="`) {
		seq, err := strconv.ParseUint(string(s.until('"')), 10, 64)
		s.bad = s.bad || err != nil
		m.Seq = seq
		s.lit(`"`)
	}
	s.lit(">")
	if s.tryLit("<static>") {
		var st StaticInfo
		st.Addr = s.str("addr")
		st.OS = s.str("os")
		st.Arch = s.str("arch")
		st.CPUSpeed = s.float("cpuSpeed")
		st.MemTotal = s.int("memTotal", 64)
		s.lit("<software>")
		// Room for every <package> left in the input, in one allocation. A
		// '<' is never raw in canonical text, so for a canonical message the
		// count is exact; for any other it bounds what the loop can consume.
		st.Software = slices.Grow(st.Software, bytes.Count(s.rest, []byte("<package>")))
		for n := 0; s.hasTag("<", "package"); n++ {
			st.Software = st.Software[:n+1]
			st.Software[n] = s.str("package")
		}
		s.lit("</software></static>")
		m.Static = &st
	}
	if s.tryLit("<status>") {
		st := status
		s.tag("<", "state")
		st.State = s.interned(ruleStates[:])
		s.tag("</", "state")
		st.Grade = s.float("grade")
		st.Load1 = s.float("load1")
		st.Load5 = s.float("load5")
		st.CPUUtilPct = s.float("cpuUtilPct")
		st.NumProcs = int(s.int("numProcs", strconv.IntSize))
		st.Sockets = int(s.int("sockets", strconv.IntSize))
		st.NetInMBps = s.float("netInMBps")
		st.NetOutMBps = s.float("netOutMBps")
		st.MemAvailPct = s.float("memAvailPct")
		st.MemAvail = s.int("memAvail", 64)
		st.DiskAvail = s.int("diskAvail", 64)
		s.lit("</status>")
		m.Status = st
	}
	if s.tryLit("<process>") {
		var p ProcessInfo
		p.PID = int(s.int("pid", strconv.IntSize))
		p.Name = s.str("name")
		p.Start = s.int("start", 64)
		p.SchemaXML = s.optStr("schema")
		s.lit("</process>")
		m.Process = &p
	}
	if s.tryLit("<candidate>") {
		var c Candidate
		s.lit("<ok>")
		c.OK = s.tryLit("true")
		if !c.OK {
			s.lit("false")
		}
		s.lit("</ok>")
		c.Host = s.optStr("host")
		c.Addr = s.optStr("addr")
		c.Reason = s.optStr("reason")
		s.lit("</candidate>")
		m.Candidate = &c
	}
	if s.tryLit("<migrate>") {
		var o MigrateOrder
		o.PID = int(s.int("pid", strconv.IntSize))
		o.DestHost = s.str("destHost")
		o.DestAddr = s.str("destAddr")
		o.Policy = s.optStr("policy")
		s.lit("</migrate>")
		m.Migrate = &o
	}
	m.Error = s.optStr("error")
	s.lit("</hpcmMsg>")
	return !s.bad && len(s.rest) == 0
}

// tryLit consumes tok if the input continues with it.
func (s *scanner) tryLit(tok string) bool {
	if s.bad || len(s.rest) < len(tok) || string(s.rest[:len(tok)]) != tok {
		return false
	}
	s.rest = s.rest[len(tok):]
	return true
}

// lit requires tok.
func (s *scanner) lit(tok string) {
	if !s.tryLit(tok) {
		s.bad = true
	}
}

// hasTag reports whether the input continues with prefix+name+">": an
// opening tag for prefix "<", a closing one for "</".
func (s *scanner) hasTag(prefix, name string) bool {
	n := len(prefix) + len(name)
	return !s.bad && len(s.rest) > n && s.rest[n] == '>' &&
		string(s.rest[:len(prefix)]) == prefix && string(s.rest[len(prefix):n]) == name
}

// tag requires the tag hasTag describes.
func (s *scanner) tag(prefix, name string) {
	if !s.hasTag(prefix, name) {
		s.bad = true
		return
	}
	s.rest = s.rest[len(prefix)+len(name)+1:]
}

// until consumes and returns the bytes before the next end byte, which
// stays in the input; a missing end byte is a mismatch.
func (s *scanner) until(end byte) []byte {
	i := bytes.IndexByte(s.rest, end)
	if s.bad || i < 0 {
		s.bad = true
		return nil
	}
	raw := s.rest[:i]
	s.rest = s.rest[i:]
	return raw
}

// text consumes canonical character data up to the end byte ('<' in an
// element, '"' in an attribute value) and returns it still escaped, with
// whether it holds an entity. Raw forms of the escaped characters, other
// entity forms, invalid UTF-8 and characters outside XML's range are
// mismatches: encoding/xml rewrites or rejects some of them, and its answer
// is the one that counts.
func (s *scanner) text(end byte) (raw []byte, escaped bool) {
	b := s.rest
	for i := 0; i < len(b) && !s.bad; {
		switch c := b[i]; {
		case c == end:
			s.rest = b[i:]
			return b[:i], escaped
		case c == '&':
			_, n := entityAt(b[i:])
			s.bad = n == 0
			escaped = true
			i += n
		case c >= utf8.RuneSelf:
			r, width := utf8.DecodeRune(b[i:])
			s.bad = !validRune(r, width)
			i += width
		default:
			s.bad = escapeFor[c] != ""
			i++
		}
	}
	s.bad = true
	return nil, false
}

// entityAt returns the character and the length of the canonical entity b
// starts with, or a zero length.
func entityAt(b []byte) (char byte, n int) {
	for _, e := range entities {
		if len(b) >= len(e.text) && string(b[:len(e.text)]) == e.text {
			return e.char, len(e.text)
		}
	}
	return 0, 0
}

// unescape returns a copy of scanned text with its entities resolved. A
// copy, because the input is the connection's read buffer, which the next
// frame overwrites.
func unescape(raw []byte, escaped bool) string {
	if !escaped {
		return string(raw)
	}
	var sb strings.Builder
	sb.Grow(len(raw))
	for len(raw) > 0 {
		c, n := raw[0], 1
		if c == '&' {
			c, n = entityAt(raw)
		}
		sb.WriteByte(c)
		raw = raw[n:]
	}
	return sb.String()
}

// name consumes a From or To value and its closing quote. An escaped value
// is unescaped into a copy; any other is looked up in names by its raw
// bytes, which does not allocate, and a new one is copied and, below
// maxNames entries, kept.
func (s *scanner) name() string {
	raw, escaped := s.text('"')
	s.lit(`"`)
	if escaped {
		return unescape(raw, escaped)
	}
	if v, ok := s.names[string(raw)]; ok {
		return v
	}
	v := string(raw)
	if s.names != nil && len(s.names) < maxNames {
		s.names[v] = v
	}
	return v
}

// interned consumes an element's text and returns the table's own string
// when it is one of the table's, a copy otherwise.
func (s *scanner) interned(table []string) string {
	raw, escaped := s.text('<')
	for _, known := range table {
		if string(raw) == known {
			return known
		}
	}
	return unescape(raw, escaped)
}

// msgType consumes the type attribute's value; a type outside the
// vocabulary is a mismatch (Validate rejects it on the fallback path).
func (s *scanner) msgType() MsgType {
	raw := s.until('"')
	for _, t := range msgTypes {
		if string(raw) == string(t) {
			return t
		}
	}
	s.bad = true
	return ""
}

func (s *scanner) str(name string) string {
	s.tag("<", name)
	v := unescape(s.text('<'))
	s.tag("</", name)
	return v
}

// optStr is str for an `omitempty` element.
func (s *scanner) optStr(name string) string {
	if !s.hasTag("<", name) {
		return ""
	}
	return s.str(name)
}

// number consumes <name>…</name> and returns the raw content, which the
// caller hands to the strconv function encoding/xml uses for the field:
// the same parser on the same bytes, so the same value or a mismatch.
func (s *scanner) number(name string) []byte {
	s.tag("<", name)
	raw := s.until('<')
	s.tag("</", name)
	return raw
}

func (s *scanner) float(name string) float64 {
	v, err := strconv.ParseFloat(string(s.number(name)), 64)
	s.bad = s.bad || err != nil
	return v
}

func (s *scanner) int(name string, bits int) int64 {
	v, err := strconv.ParseInt(string(s.number(name)), 10, bits)
	s.bad = s.bad || err != nil
	return v
}
