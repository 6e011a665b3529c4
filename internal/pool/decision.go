package pool

import (
	"strconv"

	"budgetwf/internal/sched"
)

// Decision is one entry of the pool's scheduling-decision log: the
// sequence the determinism property test pins byte-for-byte.
type Decision struct {
	At     float64
	Kind   string // submit, reject, provision, reuse, billing, release, deprovision, settle, abort
	Tenant string
	Sub    int // submission ID, -1 when not submission-scoped
	VM     int // pool VM ID, -1 when not VM-scoped
	Cat    int // platform category, -1 when not VM-scoped
	Amount float64
	Note   string
}

// String renders the decision canonically (used by the property test):
//
//	<At> <Kind> tenant=<Tenant> sub=<Sub> vm=<VM> cat=<Cat> amount=<Amount> <Note>
//
// Floats take their shortest round-trip form, which is what fmt's %v
// prints, so the text pins every bit. The line is built in a stack
// buffer: rendering costs the one allocation of the returned string.
func (d Decision) String() string {
	var buf [256]byte
	b := appendFloat(buf[:0], d.At)
	b = append(b, ' ')
	b = append(b, d.Kind...)
	b = append(b, " tenant="...)
	b = append(b, d.Tenant...)
	b = append(b, " sub="...)
	b = strconv.AppendInt(b, int64(d.Sub), 10)
	b = append(b, " vm="...)
	b = strconv.AppendInt(b, int64(d.VM), 10)
	b = append(b, " cat="...)
	b = strconv.AppendInt(b, int64(d.Cat), 10)
	b = append(b, " amount="...)
	b = appendFloat(b, d.Amount)
	b = append(b, ' ')
	b = append(b, d.Note...)
	return string(b)
}

// The note builders render the decision notes of the frequent kinds the
// same way, one allocation each; rejections and aborts, which are rare,
// carry fmt-built reasons.

// submitNote is a submit decision's note.
func submitNote(alg sched.Name, tasks, plannedVMs int) string {
	var buf [96]byte
	b := append(buf[:0], "alg="...)
	b = append(b, alg...)
	b = append(b, " tasks="...)
	b = strconv.AppendInt(b, int64(tasks), 10)
	b = append(b, " plannedVMs="...)
	b = strconv.AppendInt(b, int64(plannedVMs), 10)
	return string(b)
}

// reuseNote is a reuse decision's note: the previous owner, the VM's
// age at the lease and the end of its paid time.
func reuseNote(from string, age, paidUntil float64) string {
	var buf [96]byte
	b := append(buf[:0], "from="...)
	b = append(b, from...)
	b = append(b, " age="...)
	b = appendFloat(b, age)
	b = append(b, " paidUntil="...)
	b = appendFloat(b, paidUntil)
	return string(b)
}

// settleNote is a settle decision's note, from the execution's Report.
func settleNote(makespan float64, vms, reused int, completed bool) string {
	var buf [96]byte
	b := append(buf[:0], "makespan="...)
	b = appendFloat(b, makespan)
	b = append(b, " vms="...)
	b = strconv.AppendInt(b, int64(vms), 10)
	b = append(b, " reused="...)
	b = strconv.AppendInt(b, int64(reused), 10)
	b = append(b, " completed="...)
	b = strconv.AppendBool(b, completed)
	return string(b)
}

// floatNote is a one-field note, key followed by the value: the
// provision (bootDone=), release and deprovision (paidUntil=) notes.
func floatNote(key string, v float64) string {
	var buf [64]byte
	return string(appendFloat(append(buf[:0], key...), v))
}

// appendFloat appends f as fmt's %v prints a float64.
func appendFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}
