// Package organize implements the dataset-organization function of the
// maintenance tier (Sec. 6.1): the GOODS post-hoc metadata catalog and
// the DS-kNN classification-based organization.
package organize

import (
	"strings"

	"golake/internal/storage/polystore"
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
// created first and cataloged afterwards, one entry per dataset. Like
// GOODS, it is built from what storage already holds: it keeps nothing
// of its own and reads the polystore's placements, so a dataset is
// cataloged exactly while it is placed. The content and provenance
// metadata GOODS also groups per entry is kept by the GEMMS model and
// the provenance tracker.
type Catalog struct {
	poly *polystore.Poly
}

// NewCatalog creates the catalog of the datasets p holds.
func NewCatalog(p *polystore.Poly) *Catalog { return &Catalog{poly: p} }

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
// dataset is cataloged. The cluster is the path with a trailing
// date/generation segment stripped.
func (c *Catalog) Entry(id string) (CatalogEntry, bool) {
	if _, ok := c.poly.PlacementOf(id); !ok {
		return CatalogEntry{}, false
	}
	return CatalogEntry{ID: id, Cluster: ClusterOf(id)}, true
}

// List returns all dataset IDs in the catalog, sorted.
func (c *Catalog) List() []string {
	pls := c.poly.Placements()
	out := make([]string, len(pls))
	for i, pl := range pls {
		out[i] = pl.Path
	}
	return out
}
