// Package organize implements the dataset-organization function of the
// maintenance tier (Sec. 6.1): the GOODS post-hoc metadata catalog and
// the DS-kNN classification-based organization.
package organize

import (
	"sort"
	"strings"
	"sync"
)

// CatalogEntry is the catalog record of one dataset, as GET
// /v1/datasets lists it.
type CatalogEntry struct {
	// ID is the dataset identifier (its lake path).
	ID string `json:"id"`
	// Cluster groups versions of the same logical dataset; GOODS
	// clusters by path convention (e.g. dated generations).
	Cluster string `json:"cluster"`
}

// Catalog is a GOODS-style post-hoc metadata catalog: datasets are
// created first and cataloged afterwards, one entry per dataset. The
// content and provenance metadata GOODS also groups per entry is kept
// by the GEMMS model and the provenance tracker.
type Catalog struct {
	mu      sync.RWMutex
	entries map[string]CatalogEntry
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog { return &Catalog{entries: map[string]CatalogEntry{}} }

// Register inserts (or refreshes) a dataset entry. The cluster defaults
// to the path with a trailing date/generation segment stripped.
func (c *Catalog) Register(id string) {
	e := CatalogEntry{ID: id, Cluster: ClusterOf(id)}
	c.mu.Lock()
	c.entries[id] = e
	c.mu.Unlock()
}

// ClusterOf strips a trailing generation segment (digits, dates) from a
// dataset path, the GOODS version-clustering heuristic.
func ClusterOf(id string) string {
	i := strings.LastIndex(id, "/")
	if i < 0 {
		return id
	}
	last := id[i+1:]
	digits := 0
	for _, r := range last {
		if r >= '0' && r <= '9' || r == '-' || r == '_' {
			digits++
		}
	}
	if len(last) > 0 && digits == len(last) {
		return id[:i]
	}
	return id
}

// Entry fetches a dataset's catalog entry and reports whether the
// dataset is cataloged.
func (c *Catalog) Entry(id string) (CatalogEntry, bool) {
	c.mu.RLock()
	e, ok := c.entries[id]
	c.mu.RUnlock()
	return e, ok
}

// Remove deletes a dataset's entry. Removing an uncataloged dataset is
// a no-op.
func (c *Catalog) Remove(id string) {
	c.mu.Lock()
	delete(c.entries, id)
	c.mu.Unlock()
}

// List returns all dataset IDs in the catalog, sorted.
func (c *Catalog) List() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.entries))
	for id := range c.entries {
		out = append(out, id)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}
