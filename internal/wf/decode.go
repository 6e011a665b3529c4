package wf

import (
	"strconv"
	"strings"
	"sync"
)

// Decode parses and validates a workflow document in the WriteJSON
// format.
//
// A document takes one pass over its bytes with no reflection: the
// task names are copied out of it into a single string, and the
// tasks and the edges are each allocated once at their exact sizes. That path either returns exactly the workflow the
// encoding/json decoder would, or it declines and the encoding/json
// decoder runs instead. It declines on anything it would have to
// interpret rather than copy — a key spelled in another case or
// repeated, a null, a string with an escape or a non-ASCII byte, a
// from/to that is not a plain task index — and on every syntax or
// semantic error, so that unusual spellings and every error message
// are the reflective decoder's. Which path runs depends only on the
// input.
func Decode(b []byte) (*Workflow, error) {
	if w, ok := decodeFast(string(b)); ok {
		return w, nil
	}
	return decodeReflect(b)
}

// DecodeEnvelope decodes b, a JSON object holding a workflow document
// under key and otherwise at most a string under strKey and a number
// under numKey, in the one pass Decode's fast path makes, and reports
// whether it did. When it reports true, the workflow, *str and *num
// are what encoding/json would decode from b into a struct of those
// three members (a member absent from b leaves its target alone).
// When it reports false — on any other member, a missing workflow, or
// anything Decode declines — it has allocated no workflow, *str and
// *num are untouched, and the caller decodes b its reflective way.
func DecodeEnvelope(b []byte, key, strKey string, str *string, numKey string, num *float64) (*Workflow, bool) {
	return decodeEnvelope(string(b), key, strKey, str, numKey, num)
}

// decodeEnvelope is DecodeEnvelope over b as a string.
func decodeEnvelope(s, key, strKey string, str *string, numKey string, num *float64) (*Workflow, bool) {
	d := scanner{s: s}
	sc := scratchPool.Get().(*decodeScratch)
	defer sc.release()
	var text string
	var x float64
	var seen uint64
	ok := d.object(func(k string) bool {
		switch k {
		case key:
			return once(&seen, 1) && d.workflow(sc)
		case strKey:
			return once(&seen, 2) && d.text(&text)
		case numKey:
			return once(&seen, 4) && d.num(&x)
		}
		return false
	})
	if !ok || seen&1 == 0 || !d.end() {
		return nil, false
	}
	w, ok := sc.build()
	if !ok {
		return nil, false
	}
	if seen&2 != 0 {
		*str = strings.Clone(text)
	}
	if seen&4 != 0 {
		*num = x
	}
	return w, true
}

// decodeFast is Decode's one-pass path; false means it declined.
func decodeFast(s string) (*Workflow, bool) {
	d := scanner{s: s}
	sc := scratchPool.Get().(*decodeScratch)
	defer sc.release()
	if !d.workflow(sc) || !d.end() {
		return nil, false
	}
	return sc.build()
}

// decodeScratch holds the name, tasks and edges of a document while it
// is scanned, so that the workflow can be allocated at its exact sizes
// once the whole input has been accepted. Its strings still point
// into the document; build copies them out.
type decodeScratch struct {
	name  string
	tasks []Task
	edges []Edge
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// maxPooledTasks keeps one huge document from pinning its scratch in
// the pool for good.
const maxPooledTasks = 1 << 16

func (sc *decodeScratch) release() {
	if cap(sc.tasks) > maxPooledTasks || cap(sc.edges) > 4*maxPooledTasks {
		return
	}
	clear(sc.tasks) // the names point into the decoded document
	sc.name, sc.tasks, sc.edges = "", sc.tasks[:0], sc.edges[:0]
	scratchPool.Put(sc)
}

// scanner reads JSON from s, accepting only what the fast path can
// reproduce exactly; every method reports false to decline.
type scanner struct {
	s   string
	pos int
}

// workflow scans a workflow object into sc.
func (d *scanner) workflow(sc *decodeScratch) bool {
	var seen uint64
	return d.object(func(k string) bool {
		switch k {
		case "name":
			return once(&seen, 1) && d.text(&sc.name)
		case "tasks":
			return once(&seen, 2) && d.array(func() bool {
				t, ok := d.task(TaskID(len(sc.tasks)))
				sc.tasks = append(sc.tasks, t)
				return ok
			})
		case "edges":
			return once(&seen, 4) && d.array(func() bool {
				e, ok := d.edge()
				sc.edges = append(sc.edges, e)
				return ok
			})
		}
		return false
	})
}

func (d *scanner) task(id TaskID) (Task, bool) {
	t := Task{ID: id}
	var seen uint64
	ok := d.object(func(k string) bool {
		switch k {
		case "name":
			return once(&seen, 1) && d.text(&t.Name)
		case "mean":
			return once(&seen, 2) && d.num(&t.Weight.Mean)
		case "sigma":
			return once(&seen, 4) && d.num(&t.Weight.Sigma)
		case "externalIn":
			return once(&seen, 8) && d.num(&t.ExternalIn)
		case "externalOut":
			return once(&seen, 16) && d.num(&t.ExternalOut)
		}
		return false
	})
	return t, ok
}

func (d *scanner) edge() (Edge, bool) {
	var e Edge
	var seen uint64
	ok := d.object(func(k string) bool {
		switch k {
		case "from":
			return once(&seen, 1) && d.index(&e.From)
		case "to":
			return once(&seen, 2) && d.index(&e.To)
		case "size":
			return once(&seen, 4) && d.num(&e.Size)
		}
		return false
	})
	return e, ok
}

// build allocates the workflow the scratch describes, exactly as the
// AddTask/AddEdge sequence of the reflective path would shape it, and
// validates it, which derives its index. Every error of that sequence is a decline here. The
// workflow's name and its task names are copied into one string, so
// that the workflow does not keep the document alive.
func (sc *decodeScratch) build() (*Workflow, bool) {
	n := len(sc.tasks)
	for _, e := range sc.edges {
		if int(e.From) >= n || int(e.To) >= n || e.From == e.To || e.Size < 0 {
			return nil, false
		}
	}
	w := &Workflow{tasks: make([]Task, n), edges: make([]Edge, len(sc.edges))}
	copy(w.tasks, sc.tasks)
	copy(w.edges, sc.edges)
	size := len(sc.name)
	for _, t := range sc.tasks {
		size += len(t.Name)
	}
	var names strings.Builder
	names.Grow(size)
	names.WriteString(sc.name)
	for _, t := range sc.tasks {
		names.WriteString(t.Name)
	}
	all := names.String()
	w.Name, all = all[:len(sc.name)], all[len(sc.name):]
	for i := range w.tasks {
		w.tasks[i].Name, all = all[:len(w.tasks[i].Name)], all[len(w.tasks[i].Name):]
	}
	if w.Validate() != nil {
		return nil, false
	}
	return w, true
}

// once sets bit in seen and reports whether it was clear. encoding/json
// keeps the last of repeated keys; the fast path declines them instead.
func once(seen *uint64, bit uint64) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

func (d *scanner) skipSpace() {
	for d.pos < len(d.s) {
		switch d.s[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it comes next.
func (d *scanner) eat(c byte) bool {
	d.skipSpace()
	return d.take(c)
}

// take consumes c if it is the next byte.
func (d *scanner) take(c byte) bool {
	if d.pos < len(d.s) && d.s[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *scanner) end() bool {
	d.skipSpace()
	return d.pos == len(d.s)
}

// object scans an object, calling member with each key once the
// scanner stands at its value; member scans the value.
func (d *scanner) object(member func(key string) bool) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	for {
		var key string
		if !d.text(&key) || !d.eat(':') || !member(key) {
			return false
		}
		if d.eat('}') {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
}

// array scans an array, calling elem to scan each element.
func (d *scanner) array(elem func() bool) bool {
	if !d.eat('[') {
		return false
	}
	if d.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if d.eat(']') {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
}

// text scans a string of ASCII bytes with no escape and no control
// character, which encoding/json decodes to exactly those bytes.
func (d *scanner) text(dst *string) bool {
	if !d.eat('"') {
		return false
	}
	start := d.pos
	for ; d.pos < len(d.s); d.pos++ {
		switch c := d.s[d.pos]; {
		case c == '"':
			*dst = d.s[start:d.pos]
			d.pos++
			return true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return false
		}
	}
	return false
}

// num scans a JSON number and converts it as encoding/json converts
// one into a float64.
func (d *scanner) num(dst *float64) bool {
	d.skipSpace()
	start := d.pos
	d.take('-')
	switch {
	case d.take('0'):
	case d.digits() == 0:
		return false
	}
	if d.take('.') && d.digits() == 0 {
		return false
	}
	if d.take('e') || d.take('E') {
		if !d.take('+') {
			d.take('-')
		}
		if d.digits() == 0 {
			return false
		}
	}
	v, err := strconv.ParseFloat(d.s[start:d.pos], 64)
	*dst = v
	return err == nil
}

// digits consumes a run of decimal digits and returns its length.
func (d *scanner) digits() int {
	start := d.pos
	for d.pos < len(d.s) && d.s[d.pos] >= '0' && d.s[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

// index scans a task index: a plain non-negative integer of at most
// nine digits. What a longer, signed, fractional or exponent spelling
// has beyond that is left unconsumed, so the enclosing object's scan
// fails on it.
func (d *scanner) index(dst *TaskID) bool {
	d.skipSpace()
	start := d.pos
	v := 0
	for d.pos < len(d.s) && d.pos-start < 9 && d.s[d.pos] >= '0' && d.s[d.pos] <= '9' {
		v = 10*v + int(d.s[d.pos]-'0')
		d.pos++
	}
	n := d.pos - start
	if n == 0 || n > 1 && d.s[start] == '0' {
		return false
	}
	*dst = TaskID(v)
	return true
}
