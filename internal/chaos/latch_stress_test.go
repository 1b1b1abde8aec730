package chaos

import (
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"axmltx/internal/axml"
	"axmltx/internal/core"
	"axmltx/internal/wal"
	"axmltx/internal/xmldom"
)

// TestStoreLatchIsolationStress runs K writers on one store, each the only
// writer of its own document, beside readers that snapshot and checkpoint
// the whole store. Writers run random insert/delete/replace transactions
// and compensate about half of them. Every compensated document must be
// byte-identical to its pre-transaction state, every snapshot and every
// reloaded checkpoint must be a well-formed tree, and each document must end
// holding exactly the values its writer committed. Run it under -race.
func TestStoreLatchIsolationStress(t *testing.T) {
	const docs = 4
	txns := 150
	if testing.Short() {
		txns = 25
	}
	store := axml.NewStore(wal.NewMemory())
	for k := 0; k < docs; k++ {
		if _, err := store.AddParsed(fmt.Sprintf("D%d.xml", k), fmt.Sprintf(`<D%d><e><v>x0</v></e></D%d>`, k, k)); err != nil {
			t.Fatal(err)
		}
	}

	var writers, readers sync.WaitGroup
	var stop atomic.Bool
	finals := make([]map[string]bool, docs)
	for k := 0; k < docs; k++ {
		writers.Add(1)
		go func(k int) {
			defer writers.Done()
			live, err := runLatchWriter(store, k, txns, rand.New(rand.NewSource(int64(k)+1)))
			if err != nil {
				t.Error(err)
			}
			finals[k] = live
		}(k)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for !stop.Load() {
				name := fmt.Sprintf("D%d.xml", rng.Intn(docs))
				snap, ok := store.Snapshot(name)
				if !ok {
					t.Errorf("snapshot: %s missing", name)
					return
				}
				if err := snap.Validate(); err != nil {
					t.Errorf("snapshot of %s: %v", name, err)
					return
				}
			}
		}(r)
	}
	var dirs []string
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; !stop.Load() && i < 20; i++ {
			dir := filepath.Join(t.TempDir(), "ckpt")
			if err := store.SaveAll(dir); err != nil {
				t.Errorf("SaveAll: %v", err)
				return
			}
			dirs = append(dirs, dir)
		}
	}()
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if t.Failed() {
		return
	}

	for _, dir := range dirs {
		re := axml.NewStore(wal.NewMemory())
		names, err := re.LoadAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != docs {
			t.Fatalf("%s: loaded %v, want %d documents", dir, names, docs)
		}
		for _, name := range names {
			d, _ := re.Get(name)
			if err := d.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", dir, name, err)
			}
		}
	}
	for k, want := range finals {
		if got := liveValues(store, k); !maps.Equal(got, want) {
			t.Fatalf("D%d ends with %v, want the committed %v", k, sortedKeys(got), sortedKeys(want))
		}
	}
}

// runLatchWriter runs txns transactions of one to four random operations on
// document k, compensating about half of them, and returns the values the
// document should hold at the end.
func runLatchWriter(store *axml.Store, k, txns int, rng *rand.Rand) (map[string]bool, error) {
	name := fmt.Sprintf("D%d.xml", k)
	root := fmt.Sprintf("D%d", k)
	live := map[string]bool{"x0": true}
	next := 1
	for i := 0; i < txns; i++ {
		txn := fmt.Sprintf("W%d-%d", k, i)
		pre, ok := store.Snapshot(name)
		if !ok {
			return nil, fmt.Errorf("%s missing", name)
		}
		before := xmldom.MarshalString(pre.Root())
		saved := maps.Clone(live)
		for ops := 1 + rng.Intn(4); ops > 0; ops-- {
			var a *axml.Action
			var err error
			fresh := fmt.Sprintf("x%d", next)
			victim := pick(live, rng)
			switch op := rng.Intn(3); {
			case op == 0 || victim == "":
				a, err = latchAction(axml.ActionInsert, "Select d from d in "+root, fresh)
				live[fresh] = true
				next++
			case op == 1:
				a, err = latchAction(axml.ActionDelete, fmt.Sprintf("Select e from e in %s/e where e/v = %s", root, victim), "")
				delete(live, victim)
			default:
				a, err = latchAction(axml.ActionReplace, fmt.Sprintf("Select e from e in %s/e where e/v = %s", root, victim), fresh)
				delete(live, victim)
				live[fresh] = true
				next++
			}
			if err != nil {
				return nil, err
			}
			if _, err := store.Apply(txn, a, nil, axml.Lazy); err != nil {
				return nil, fmt.Errorf("%s: %v", txn, err)
			}
		}
		if rng.Intn(2) == 0 {
			continue // committed: its effects stay
		}
		if _, err := core.Compensate(store, txn); err != nil {
			return nil, fmt.Errorf("%s: compensate: %v", txn, err)
		}
		post, _ := store.Snapshot(name)
		if after := xmldom.MarshalString(post.Root()); after != before {
			return nil, fmt.Errorf("%s: compensation left\n%s\nwant\n%s", txn, after, before)
		}
		live = saved
	}
	return live, nil
}

func latchAction(typ axml.ActionType, loc, value string) (*axml.Action, error) {
	q, err := axml.ParseQuery(loc)
	if err != nil {
		return nil, err
	}
	a := &axml.Action{Type: typ, Location: q, Pos: -1}
	if value != "" {
		a.Data = "<e><v>" + value + "</v></e>"
	}
	return a, nil
}

// pick returns a random member of set, or "" when it is empty.
func pick(set map[string]bool, rng *rand.Rand) string {
	keys := sortedKeys(set)
	if len(keys) == 0 {
		return ""
	}
	return keys[rng.Intn(len(keys))]
}

func liveValues(store *axml.Store, k int) map[string]bool {
	d, _ := store.Snapshot(fmt.Sprintf("D%d.xml", k))
	out := make(map[string]bool)
	for _, e := range d.Root().Children() {
		out[strings.TrimSpace(e.TextContent())] = true
	}
	return out
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
