package registry

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"time"

	"autoresched/internal/proto"
	"autoresched/internal/rules"
)

// The journal codec, for the change-record payloads and the snapshot
// document: a version byte, then the fields in declaration order — integers
// as varints, floats as their IEEE-754 bits (8 bytes, little-endian), times
// as Unix nanoseconds, a rule state by its name, strings and lists behind a
// uvarint length. Decoding converts a document to a string once; every
// string it returns is a substring of that one. A payload that opens with
// '{' is JSON, as stores written before the codec hold it: read, never
// written. StateDigest still hashes JSON: the digest is an oracle over the
// canonical view, not a storage format.

const journalVersion = 1 // first byte of every payload written; never '{'

// A payload is one change record's body, or the snapshot document. walk
// visits its fields in order; the one description serves both directions,
// so encoding and decoding cannot disagree.
type payload interface {
	walk(c *codec)
}

// codec is one pass over a payload, writing its fields (enc) or reading them
// back. A malformed input sets bad, which is sticky: every later read leaves
// its field as it was, so a payload decodes as one straight run of fields
// and is judged once at the end. Nothing the decoder accepts re-encodes to other
// bytes.
type codec struct {
	enc bool
	b   []byte // the bytes written, or the document read
	s   string // the document read, converted once, for strings
	off int
	bad bool
}

// encode returns p's encoding, in c's buffer: valid until c's next use.
func (c *codec) encode(p payload) []byte {
	*c = codec{enc: true, b: append(c.b[:0], journalVersion)}
	p.walk(c)
	return c.b
}

var errPayload = errors.New("malformed journal payload")

// decode fills p from data, which must hold exactly one payload.
func (c *codec) decode(data []byte, p payload) error {
	return c.decodeString(data, string(data), p)
}

// decodeString is decode given data as a string, s, which the strings it
// returns are substrings of. It zeroes p first, so p may be reused: a JSON
// decode leaves a field the document lacks as it was.
func (c *codec) decodeString(data []byte, s string, p payload) error {
	reflect.ValueOf(p).Elem().SetZero()
	if len(data) > 0 && data[0] == '{' {
		return json.Unmarshal(data, p) // a store written before the binary journal
	}
	*c = codec{b: data, s: s, off: 1}
	if len(data) == 0 || data[0] != journalVersion {
		return errPayload
	}
	p.walk(c)
	if c.bad || c.off != len(data) {
		return errPayload
	}
	return nil
}

// uvarint refuses, reading, the non-minimal forms binary.Uvarint accepts.
func (c *codec) uvarint(v *uint64) {
	if c.enc {
		c.b = binary.AppendUvarint(c.b, *v)
		return
	}
	if c.bad {
		return
	}
	x, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 || n > 1 && c.b[c.off+n-1] == 0 {
		c.bad = true
		return
	}
	*v, c.off = x, c.off+n
}

// varint is zigzag-coded, as binary.AppendVarint writes it.
func (c *codec) varint(v *int64) {
	u := uint64(*v<<1) ^ uint64(*v>>63)
	c.uvarint(&u)
	*v = int64(u>>1) ^ -int64(u&1)
}

func (c *codec) int(v *int) {
	x := int64(*v)
	c.varint(&x)
	*v = int(x)
}

func (c *codec) float(v *float64) {
	if c.enc {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
		return
	}
	if c.bad || len(c.b)-c.off < 8 {
		c.bad = true
		return
	}
	*v = math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
}

func (c *codec) time(t *time.Time) {
	n := t.UnixNano()
	c.varint(&n)
	if !c.enc {
		*t = time.Unix(0, n).UTC()
	}
}

func (c *codec) bool(v *bool) {
	var b uint64
	if *v {
		b = 1
	}
	c.uvarint(&b)
	c.bad = c.bad || b > 1
	*v = b == 1
}

// count writes n, or reads a length prefix of elements that encode to at
// least min bytes each, refusing one the remaining bytes cannot hold: a
// corrupt length never sizes an allocation beyond what the input could fill.
func (c *codec) count(n, min int) int {
	v := uint64(n)
	c.uvarint(&v)
	if !c.enc && (c.bad || v > uint64((len(c.b)-c.off)/min)) {
		c.bad = true
		return 0
	}
	return int(v)
}

func (c *codec) str(s *string) {
	n := c.count(len(*s), 1)
	if c.enc {
		c.b = append(c.b, *s...)
		return
	}
	c.off += n
	*s = c.s[c.off-n : c.off]
}

func (c *codec) state(st *rules.State) {
	name := st.String()
	c.str(&name)
	if !c.enc {
		parsed, err := rules.ParseState(name)
		*st, c.bad = parsed, c.bad || err != nil
	}
}

// list walks a count-prefixed list whose elements encode to at least min
// bytes each.
func list[T any](c *codec, l *[]T, min int, walk func(*codec, *T)) {
	n := c.count(len(*l), min)
	if !c.enc {
		*l = nil
		if n > 0 {
			*l = make([]T, n)
		}
	}
	for i := range *l {
		walk(c, &(*l)[i])
	}
}

// The fewest bytes a snapshot list element encodes to: its zero value's,
// with times at the Unix epoch (a one-byte varint).
var (
	minHost = encodedLen(walkHost, persistedHost{LastSeen: time.Unix(0, 0)})
	minProc = encodedLen(walkProc, persistedProc{Start: time.Unix(0, 0)})
	minGang = encodedLen(walkGang, persistedGang{})
)

func encodedLen[T any](walk func(*codec, *T), v T) int {
	c := codec{enc: true}
	walk(&c, &v)
	return len(c.b)
}

func walkStatic(c *codec, s *proto.StaticInfo) {
	c.str(&s.Addr)
	c.str(&s.OS)
	c.str(&s.Arch)
	c.float(&s.CPUSpeed)
	c.varint(&s.MemTotal)
	list(c, &s.Software, 1, (*codec).str)
}

func walkStatus(c *codec, s *proto.Status) {
	c.str(&s.State)
	c.float(&s.Grade)
	c.float(&s.Load1)
	c.float(&s.Load5)
	c.float(&s.CPUUtilPct)
	c.int(&s.NumProcs)
	c.int(&s.Sockets)
	c.float(&s.NetInMBps)
	c.float(&s.NetOutMBps)
	c.float(&s.MemAvailPct)
	c.varint(&s.MemAvail)
	c.varint(&s.DiskAvail)
}

func (p *recHostRegister) walk(c *codec) {
	c.str(&p.Host)
	walkStatic(c, &p.Static)
	c.time(&p.At)
}

func (p *recHostStatus) walk(c *codec) {
	c.str(&p.Host)
	walkStatus(c, &p.Status)
	c.time(&p.At)
}

func (p *recHostUnregister) walk(c *codec) { c.str(&p.Host) }

func (p *recProcRegister) walk(c *codec) {
	c.str(&p.Host)
	c.int(&p.Info.PID)
	c.str(&p.Info.Name)
	c.varint(&p.Info.Start)
	c.str(&p.Info.SchemaXML)
}

func (p *recProcExit) walk(c *codec) {
	c.str(&p.Host)
	c.int(&p.PID)
}

func (p *recGangReserve) walk(c *codec) {
	c.uvarint(&p.ID)
	list(c, &p.Hosts, 1, (*codec).str)
}

func (p *recGangResolve) walk(c *codec) {
	c.uvarint(&p.ID)
	c.bool(&p.Commit)
}

func (st *persistedState) walk(c *codec) {
	st.walkAround(c, func(c *codec) { list(c, &st.Hosts, minHost, walkHost) })
}

func (d *restoreDoc) walk(c *codec) {
	d.walkAround(c, func(c *codec) { list(c, &d.entries, minHost, walkEntry) })
}

// walkAround walks a snapshot document, its host list by hosts.
func (st *persistedState) walkAround(c *codec, hosts func(*codec)) {
	c.int(&st.RegSeq)
	c.uvarint(&st.GangSeq)
	hosts(c)
	list(c, &st.Procs, minProc, walkProc)
	list(c, &st.Gangs, minGang, walkGang)
}

func walkHost(c *codec, h *persistedHost) {
	walkHostFields(c, &h.Name, &h.Static, &h.Status, &h.State, &h.LastSeen, &h.RegOrder)
}

func walkEntry(c *codec, e *hostEntry) {
	walkHostFields(c, &e.info.Name, &e.info.Static, &e.info.Status, &e.info.State, &e.info.LastSeen, &e.regOrder)
}

// walkHostFields is the one field order of a snapshot's host.
func walkHostFields(c *codec, name *string, static *proto.StaticInfo, status *proto.Status, state *rules.State, lastSeen *time.Time, regOrder *int) {
	c.str(name)
	walkStatic(c, static)
	walkStatus(c, status)
	c.state(state)
	c.time(lastSeen)
	c.int(regOrder)
}

func walkProc(c *codec, p *persistedProc) {
	c.str(&p.Host)
	c.int(&p.PID)
	c.str(&p.Name)
	c.time(&p.Start)
	c.str(&p.SchemaXML)
}

func walkGang(c *codec, g *persistedGang) {
	c.uvarint(&g.ID)
	list(c, &g.Hosts, 1, (*codec).str)
}
