package core

import (
	"fmt"
	"slices"

	"axmltx/internal/axml"
	"axmltx/internal/codec"
	"axmltx/internal/p2p"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// BuildCompensation constructs, from the operation log, the compensating
// operations for everything txn did locally — in reverse order of the
// forward operations, per the compensation model of Garcia-Molina & Salem's
// Sagas and §3.1:
//
//   - an insert is compensated by a delete of the node with the recorded ID;
//   - a delete is compensated by an insert of the logged before-image at the
//     logged parent and position (ordered documents restore exactly);
//   - a query's materialization effects are themselves insert/delete records
//     and compensate the same way — this is the paper's "compensation for a
//     query operation has to be constructed dynamically at run-time".
//
// Compensation is epoch-aware: effects already rolled back by a previous
// compensation run (everything before a CompensateBegin/End bracket,
// including the bracket's own records) are excluded, while effects logged
// *after* a completed compensation belong to a new epoch — a participant
// re-invoked during forward recovery after a local abort — and compensate
// normally.
func BuildCompensation(log wal.Log, txn string) []*axml.Action {
	actions, _ := buildCompensation(log, txn)
	return actions
}

// buildCompensation is BuildCompensation plus the affected-node estimate of
// running the actions, summed from the records' logged subtree sizes: an
// undo-insert restores the before-image's whole subtree, an undo-delete
// counts one node.
func buildCompensation(log wal.Log, txn string) ([]*axml.Action, int) {
	recs := wal.Fold(log.TxnRecords(txn)).Effects
	var out []*axml.Action
	nodes := 0
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		switch r.Type {
		case wal.TypeInsert:
			out = append(out, &axml.Action{
				Type:     axml.ActionDelete,
				Doc:      r.Doc,
				TargetID: xmldom.NodeID(r.NodeID),
				Pos:      -1,
			})
			nodes++
		case wal.TypeDelete:
			out = append(out, &axml.Action{
				Type:      axml.ActionInsert,
				Doc:       r.Doc,
				ParentID:  xmldom.NodeID(r.ParentID),
				Pos:       r.Pos,
				Data:      r.XML,
				RestoreID: xmldom.NodeID(r.NodeID),
			})
			nodes += r.Nodes
		}
	}
	return out, nodes
}

// Compensate rolls back txn's local effects on the store and returns the
// number of XML nodes affected (the cost measure). It is the local case of
// a compensating service: the definition is built and executed in place,
// never serialized. It is idempotent.
func Compensate(store *axml.Store, txn string) (int, error) {
	return BuildCompensationDef(store, txn, "", "").Execute(store)
}

// CompensationDef is the definition of a compensating service: "a service
// capable of compensating the modifications at AP_Y which occurred as a
// result of processing the service S" (§3.2). A participant returns it with
// its invocation results; any peer holding the definition can later drive
// compensation by sending it back to (a replica of) the original peer —
// which "does not even need to be aware that the services it is executing
// are, basically, compensating services".
type CompensationDef struct {
	// Txn is the transaction whose effects the definition undoes.
	Txn string
	// Peer is the original peer the actions target.
	Peer p2p.PeerID
	// Service is the forward service this definition compensates.
	Service string
	// Actions are the compensating operations in execution order: ID-
	// addressed inserts and deletes, ready to run on the original peer's
	// store or on a document replica.
	Actions []*axml.Action
	// Nodes is the expected affected-node count, for cost accounting.
	Nodes int
}

// BuildCompensationDef captures txn's current local effects as a
// compensating-service definition, to run locally or to ship.
func BuildCompensationDef(store *axml.Store, txn string, self p2p.PeerID, service string) *CompensationDef {
	actions, nodes := buildCompensation(store.Log(), txn)
	return &CompensationDef{Txn: txn, Peer: self, Service: service, Actions: actions, Nodes: nodes}
}

// Docs lists the documents the actions touch, in first-touch order, so a
// recovering peer can route the definition to a replica holder when the
// original peer has disconnected.
func (d *CompensationDef) Docs() []string {
	var docs []string
	for _, a := range d.Actions {
		if !slices.Contains(docs, a.Doc) {
			docs = append(docs, a.Doc)
		}
	}
	return docs
}

// Execute runs the definition against a store — the original peer's, or a
// replica holder's — and returns the affected-node count. The actions run
// under the original transaction ID inside one CompensateBegin/End bracket,
// which makes local abort and shipped compensation mutually idempotent: a
// context may receive "Abort TA" from several directions during
// disconnection storms.
func (d *CompensationDef) Execute(store *axml.Store) (int, error) {
	// The transaction is over here; whatever it detached stays indexed.
	defer store.KeepDeleted(d.Txn)
	log := store.Log()
	if wal.Fold(log.TxnRecords(d.Txn)).Compensated {
		return 0, nil
	}
	if _, err := log.Append(&wal.Record{Txn: d.Txn, Type: wal.TypeCompensateBegin}); err != nil {
		return 0, err
	}
	affected := 0
	for _, a := range d.Actions {
		res, err := store.Apply(d.Txn, a, nil, axml.Lazy)
		if err != nil {
			return affected, fmt.Errorf("core: compensate %s: %w", d.Txn, err)
		}
		affected += res.AffectedNodes
	}
	if _, err := log.Append(&wal.Record{Txn: d.Txn, Type: wal.TypeCompensateEnd}); err != nil {
		return affected, err
	}
	return affected, nil
}

// compDefVersion opens every encoded CompensationDef. A definition travels
// inside InvokeResponse.Comp and also as the whole payload of compensate and
// compdef messages, so it carries a version byte of its own. Version 1
// shipped each action as <action> XML and is refused.
const compDefVersion = 0x02

// Encode serializes the definition for the wire, each action field by
// field. Compensating actions are ID-addressed: Location is not encoded.
func (d *CompensationDef) Encode() []byte {
	w := codec.GetWriter()
	defer codec.PutWriter(w)
	w.Byte(compDefVersion)
	w.String(d.Txn)
	w.String(string(d.Peer))
	w.String(d.Service)
	w.Uvarint(uint64(len(d.Actions)))
	for _, a := range d.Actions {
		w.Byte(byte(a.Type))
		w.String(a.Doc)
		w.Uvarint(uint64(a.TargetID))
		w.Uvarint(uint64(a.ParentID))
		w.Varint(int64(a.Pos))
		w.Uvarint(uint64(a.RestoreID))
		w.String(a.Data)
	}
	w.Varint(int64(d.Nodes))
	return w.Finish()
}

// DecodeCompensationDef parses a wire-encoded definition. Its strings alias
// b, like every decoded wire payload. Only insert and delete actions are
// accepted: nothing else is ever built from the log.
func DecodeCompensationDef(b []byte) (*CompensationDef, error) {
	r := codec.NewReader(b)
	if v := r.Byte(); r.Err() == nil && v != compDefVersion {
		return nil, fmt.Errorf("core: decode compensation def: %w: %d", errWireVersion, v)
	}
	d := &CompensationDef{
		Txn:     r.String(),
		Peer:    p2p.PeerID(r.String()),
		Service: r.String(),
	}
	n := r.Count(7) // an encoded action is ≥ 7 bytes
	for i := 0; i < n && r.Err() == nil; i++ {
		d.Actions = append(d.Actions, &axml.Action{
			Type:      axml.ActionType(r.Byte()),
			Doc:       r.String(),
			TargetID:  xmldom.NodeID(r.Uvarint()),
			ParentID:  xmldom.NodeID(r.Uvarint()),
			Pos:       int(r.Varint()),
			RestoreID: xmldom.NodeID(r.Uvarint()),
			Data:      r.String(),
		})
	}
	d.Nodes = int(r.Varint())
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("core: decode compensation def: %w", err)
	}
	for i, a := range d.Actions {
		if a.Type != axml.ActionInsert && a.Type != axml.ActionDelete {
			return nil, fmt.Errorf("core: decode compensation def: %w: action %d is a %s", codec.ErrMalformed, i, a.Type)
		}
	}
	return d, nil
}
