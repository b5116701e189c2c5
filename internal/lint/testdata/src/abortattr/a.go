// Fixture for the abortattr analyzer: txn.Error-shaped literals must set
// Reason, Stage and Site so the abort-attribution matrix never loses a cell.
package abortattr

import (
	"errors"
	"fmt"
	"strconv"
)

type Error struct {
	Reason int
	Stage  uint8
	Site   uint16
	Table  uint8
	Key    uint64
	HasKey bool
	Detail string
	Seen   uint64
}

// other has the fields but a different name: not an abort error.
type other struct {
	Stage uint8
	Site  uint16
}

func good() error {
	return &Error{Reason: 1, Stage: 2, Site: 3, Detail: "x"}
}

func goodPositional() error {
	return &Error{1, 2, 3, 4, 5, true, "x", 6} // positional literals set every field
}

func goodKeyed() error {
	return &Error{Reason: 1, Stage: 2, Site: 3, Table: 4, Key: 5, HasKey: true}
}

func goodUnkeyed() error {
	// Naming none of Table/Key/HasKey is fine: not every abort has a key.
	return &Error{Reason: 1, Stage: 2, Site: 3}
}

func badPartialKey() error {
	return &Error{Reason: 1, Stage: 2, Site: 3, Table: 4, Key: 5} // want "keyed txn.Error literal without HasKey"
}

func badHasKeyOnly() error {
	return &Error{Reason: 1, Stage: 2, Site: 3, HasKey: true} // want "keyed txn.Error literal without Table" "keyed txn.Error literal without Key"
}

func goodOtherType() any {
	return &other{} // not the Error shape+name: fine
}

func badNoStage() error {
	return &Error{Reason: 1, Site: 3, Detail: "x"} // want "without Stage"
}

func badNoSite() error {
	return &Error{Reason: 1, Stage: 2} // want "without Site"
}

func badValueLiteral() error {
	e := Error{Detail: "x"} // want "without Reason" "without Stage" "without Site"
	return &e
}

func allowed() error {
	//drtmr:allow abortattr sentinel compared by identity, never recorded in the matrix
	return &Error{Reason: 1}
}

func missingReason() error {
	return &Error{Reason: 1, Stage: 2} //drtmr:allow abortattr // want "without Site" "missing the required reason"
}

func goodLabelAndSeen(depth int) error {
	// The label is a constant; the variable fact rides in Seen.
	return &Error{Reason: 1, Stage: 2, Site: 3, Detail: "queue depth at watermark", Seen: uint64(depth)}
}

func goodLabelPassedThrough(label string) error {
	// A constructor's parameter, or a decoded field, is a value passed
	// through: whoever computed it is checked where they did.
	return &Error{Reason: 1, Stage: 2, Site: 3, Detail: label}
}

func goodConstantExpression() error {
	return &Error{Reason: 1, Stage: 2, Site: 3, Detail: string("ro: ") + "record changed"}
}

func badSprintfLabel(depth int) error {
	return &Error{Reason: 1, Stage: 2, Site: 3, Detail: fmt.Sprintf("queue depth %d", depth)} // want "txn.Error Detail is computed"
}

func badStrconvLabel(depth int) error {
	return &Error{Reason: 1, Stage: 2, Site: 3, Detail: "depth " + strconv.Itoa(depth)} // want "txn.Error Detail is computed"
}

func badConcatenatedLabel(label string) error {
	return &Error{Reason: 1, Stage: 2, Site: 3, Detail: "lock: " + label} // want "txn.Error Detail is computed"
}

func badStrconvOnlyLabel(depth int) error {
	return &Error{Reason: 1, Stage: 2, Site: 3, Detail: strconv.Itoa(depth)} // want "txn.Error Detail is computed"
}

func badErrorStringLabel() error {
	err := errors.New("rdma: target node is dead")
	return &Error{Reason: 1, Stage: 2, Site: 3, Detail: err.Error()} // want "txn.Error Detail is computed"
}

// Txn mirrors the constructors: the label is their last argument.
type Txn struct{ stage uint8 }

func (tx *Txn) abortAt(node uint16, r int, label string) *Error {
	return &Error{Reason: r, Stage: tx.stage, Site: node, Detail: label}
}

func (tx *Txn) abortOn(node uint16, table uint8, key uint64, r int, label string) *Error {
	e := tx.abortAt(node, r, label)
	e.Table, e.Key, e.HasKey = table, key, true
	return e
}

func helperCalls(tx *Txn, held uint64) {
	_ = tx.abortAt(1, 2, "record held")
	_ = tx.abortAt(1, 2, fmt.Sprintf("held by %#x", held))       // want "abortAt label is computed"
	_ = tx.abortOn(1, 2, 3, 4, fmt.Sprint("seq ", held))         // want "abortOn label is computed"
	_ = tx.abortOn(1, 2, 3, 4, strconv.FormatUint(held, 16))     // want "abortOn label is computed"
	_ = tx.abortOn(1, 2, 3, 4, errors.New("rdma: dead").Error()) // want "abortOn label is computed"
}
