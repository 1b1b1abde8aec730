package axml

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"axmltx/internal/xmldom"
)

// Document persistence: AXML peers keep their repository as XML files on
// disk. SaveAll/LoadAll implement the peer's checkpoint: together with the
// durable operation log (wal.SegmentedLog) and restart recovery
// (core.RecoverPending), a peer that crashes mid-transaction comes back
// with in-flight effects compensated.
//
// Files are written atomically (temp file + rename) so a crash during a
// checkpoint never leaves a torn document.

// idAttr carries an element's node ID through the checkpoint file. It uses
// a reserved attribute name that is stripped on load; IDs must survive the
// round trip because the operation log's compensation records address
// nodes by ID. Text-node IDs are not persisted — compensation only ever
// addresses elements (location queries match elements, and inserted
// fragment roots are elements).
const idAttr = "axml:nodeid"

// SaveAll checkpoints every document to dir as <name>.xml files with node
// IDs embedded. It obeys the write-ahead rule: the log is synced before any
// document is written, so a checkpoint never holds an effect whose record
// could still be lost; a failed sync writes nothing.
func (s *Store) SaveAll(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("axml: save: %w", err)
	}
	// Effects and their records are applied under s.mu, so a sync under it
	// covers every effect the documents show.
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("axml: save: %w", err)
	}
	for name, doc := range s.docs {
		if err := saveDoc(dir, name, doc); err != nil {
			return err
		}
	}
	return nil
}

func saveDoc(dir, name string, doc *xmldom.Document) error {
	// Annotate a clone with node IDs; the live tree stays clean.
	cp := doc.Clone()
	if cp.Root() != nil {
		cp.Root().Walk(func(n *xmldom.Node) bool {
			if n.Kind() == xmldom.ElementNode {
				n.SetAttr(idAttr, fmt.Sprintf("%d", n.ID()))
			}
			return true
		})
	}
	path := filepath.Join(dir, sanitizeFileName(name))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("axml: save %s: %w", name, err)
	}
	if _, err := f.WriteString(xmldom.DocumentString(cp)); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("axml: save %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("axml: save %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("axml: save %s: %w", name, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("axml: save %s: %w", name, err)
	}
	return nil
}

// LoadAll reads every *.xml checkpoint in dir into the store, keyed by file
// name, restoring persisted node IDs. It returns the loaded document names.
func (s *Store) LoadAll(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("axml: load: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".xml") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return names, fmt.Errorf("axml: load %s: %w", e.Name(), err)
		}
		doc, err := restoreDoc(e.Name(), string(raw))
		if err != nil {
			return names, err
		}
		s.Add(doc)
		names = append(names, e.Name())
	}
	return names, nil
}

// restoreDoc rebuilds a document from its checkpoint, re-establishing the
// persisted element IDs.
func restoreDoc(name, raw string) (*xmldom.Document, error) {
	parsed, err := xmldom.ParseString(name, raw)
	if err != nil {
		return nil, fmt.Errorf("axml: load %s: %w", name, err)
	}
	// First pass: the highest persisted ID bounds the allocator so fresh
	// (text) nodes never collide with elements restored later.
	var maxID uint64
	parsed.Root().Walk(func(n *xmldom.Node) bool {
		if v, ok := n.Attr(idAttr); ok {
			if id, err := strconv.ParseUint(v, 10, 64); err == nil && id > maxID {
				maxID = id
			}
		}
		return true
	})
	doc := xmldom.NewDocument(name)
	doc.EnsureNextID(xmldom.NodeID(maxID))
	root, err := rebuild(doc, parsed.Root(), name)
	if err != nil {
		return nil, err
	}
	if err := doc.SetRoot(root); err != nil {
		return nil, fmt.Errorf("axml: load %s: %w", name, err)
	}
	return doc, nil
}

func rebuild(doc *xmldom.Document, src *xmldom.Node, name string) (*xmldom.Node, error) {
	var n *xmldom.Node
	switch src.Kind() {
	case xmldom.ElementNode:
		if v, ok := src.Attr(idAttr); ok {
			id, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("axml: load %s: bad %s %q", name, idAttr, v)
			}
			n, err = doc.CreateElementWithID(src.Name(), xmldom.NodeID(id))
			if err != nil {
				return nil, fmt.Errorf("axml: load %s: %w", name, err)
			}
		} else {
			n = doc.CreateElement(src.Name())
		}
		for _, a := range src.Attrs() {
			if a.Name != idAttr {
				n.SetAttr(a.Name, a.Value)
			}
		}
		for _, c := range src.Children() {
			child, err := rebuild(doc, c, name)
			if err != nil {
				return nil, err
			}
			if err := doc.AppendChild(n, child); err != nil {
				return nil, fmt.Errorf("axml: load %s: %w", name, err)
			}
		}
	case xmldom.TextNode:
		n = doc.CreateText(src.Text())
	case xmldom.CommentNode:
		n = doc.CreateComment(src.Text())
	}
	return n, nil
}

// sanitizeFileName keeps checkpoint files inside dir: path separators in
// document names are flattened.
func sanitizeFileName(name string) string {
	name = strings.ReplaceAll(name, "/", "_")
	name = strings.ReplaceAll(name, string(filepath.Separator), "_")
	if name == "" || name == "." || name == ".." {
		name = "_doc.xml"
	}
	if !strings.HasSuffix(name, ".xml") {
		name += ".xml"
	}
	return name
}
