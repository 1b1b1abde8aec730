package wal

import (
	"reflect"
	"testing"
)

func TestFold(t *testing.T) {
	ins := func(n uint64) *Record { return &Record{Type: TypeInsert, NodeID: n} }
	del := func(n uint64) *Record { return &Record{Type: TypeDelete, NodeID: n} }
	begin := &Record{Type: TypeCompensateBegin}
	end := &Record{Type: TypeCompensateEnd}
	commit := &Record{Type: TypeCommit}
	nodes := func(recs []*Record) []uint64 {
		var out []uint64
		for _, r := range recs {
			out = append(out, r.NodeID)
		}
		return out
	}
	cases := []struct {
		name                   string
		recs                   []*Record
		effects                []uint64
		committed, compensated bool
		pending                bool
	}{
		{name: "empty"},
		{name: "in flight", recs: []*Record{{Type: TypeBegin}, ins(1), del(2)}, effects: []uint64{1, 2}, pending: true},
		{name: "committed", recs: []*Record{ins(1), commit}, effects: []uint64{1}, committed: true},
		{name: "compensated", recs: []*Record{ins(1), {Type: TypeAbort}, begin, del(1), end}, compensated: true},
		{name: "empty bracket", recs: []*Record{begin, end}, compensated: true},
		{name: "re-invoked after compensation", recs: []*Record{ins(1), begin, del(1), end, ins(3)}, effects: []uint64{3}, pending: true},
		{name: "crash mid-compensation", recs: []*Record{ins(1), ins(2), begin, del(2)}, effects: []uint64{1, 2, 2}, pending: true},
		{name: "re-run after crash", recs: []*Record{ins(1), ins(2), begin, del(2), begin, del(1)}, effects: []uint64{1, 2, 2, 1}, pending: true},
		{name: "end without begin", recs: []*Record{ins(1), end}, effects: []uint64{1}, pending: true},
	}
	for _, c := range cases {
		st := Fold(c.recs)
		if got := nodes(st.Effects); !reflect.DeepEqual(got, c.effects) {
			t.Errorf("%s: effects %v, want %v", c.name, got, c.effects)
		}
		if st.Committed != c.committed || st.Compensated != c.compensated || st.Pending() != c.pending {
			t.Errorf("%s: committed/compensated/pending = %v/%v/%v, want %v/%v/%v", c.name,
				st.Committed, st.Compensated, st.Pending(), c.committed, c.compensated, c.pending)
		}
	}
}

func TestPendingTxns(t *testing.T) {
	l := NewMemory()
	for _, r := range []*Record{
		{Txn: "b", Type: TypeInsert},
		{Txn: "a", Type: TypeInsert},
		{Txn: "c", Type: TypeBegin},
		{Txn: "b", Type: TypeCommit},
		{Txn: "d", Type: TypeInsert},
		{Txn: "d", Type: TypeCompensateBegin},
		{Txn: "d", Type: TypeDelete},
		{Txn: "d", Type: TypeCompensateEnd},
		{Txn: "e", Type: TypeInsert},
		{Txn: "e", Type: TypeCompensateBegin},
		{Txn: "e", Type: TypeDelete},
		{Txn: "e", Type: TypeCompensateEnd},
		{Txn: "e", Type: TypeInsert},
	} {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := PendingTxns(l.Records()), []string{"a", "e"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("PendingTxns = %v, want %v", got, want)
	}
}
