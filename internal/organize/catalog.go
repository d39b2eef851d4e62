// Package organize implements the dataset-organization function of the
// maintenance tier (Sec. 6.1): the GOODS post-hoc metadata catalog and
// the DS-kNN classification-based organization.
package organize

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"golake/internal/storage/kvstore"
)

// MetadataGroup is one of the six GOODS catalog categories (Sec. 6.1.1).
type MetadataGroup string

// The GOODS metadata groups.
const (
	GroupBasic      MetadataGroup = "basic"
	GroupContent    MetadataGroup = "content"
	GroupProvenance MetadataGroup = "provenance"
	GroupUser       MetadataGroup = "user"
	GroupTeam       MetadataGroup = "team"
	GroupTemporal   MetadataGroup = "temporal"
)

// ErrNoEntry is returned for datasets missing from the catalog.
var ErrNoEntry = errors.New("organize: no catalog entry")

// CatalogEntry is the metadata record of one dataset in the catalog.
type CatalogEntry struct {
	// ID is the dataset identifier (its lake path).
	ID string `json:"id"`
	// Cluster groups versions of the same logical dataset; GOODS
	// clusters by path convention (e.g. dated generations).
	Cluster string `json:"cluster"`
	// Groups holds the six metadata categories as key-value maps.
	Groups map[MetadataGroup]map[string]string `json:"groups"`
	// Registered is the catalog insertion time.
	Registered time.Time `json:"registered"`
}

// Catalog is a GOODS-style post-hoc metadata catalog on the ordered KV
// store: datasets are created first and cataloged afterwards, one entry
// per dataset, organized for prefix scans.
type Catalog struct {
	kv    *kvstore.Store
	clock func() time.Time
}

// NewCatalog creates a catalog on a fresh store. clock may be nil.
func NewCatalog(clock func() time.Time) *Catalog {
	if clock == nil {
		clock = time.Now
	}
	return &Catalog{kv: kvstore.New(), clock: clock}
}

// Register inserts (or refreshes) a dataset entry. The cluster defaults
// to the path with a trailing date/generation segment stripped.
func (c *Catalog) Register(id string) (*CatalogEntry, error) {
	e := &CatalogEntry{
		ID:         id,
		Cluster:    ClusterOf(id),
		Groups:     map[MetadataGroup]map[string]string{},
		Registered: c.clock(),
	}
	if err := c.put(e); err != nil {
		return nil, err
	}
	return e, nil
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

// Annotate sets one metadata key in a group for a dataset.
func (c *Catalog) Annotate(id string, group MetadataGroup, key, value string) error {
	e, err := c.Entry(id)
	if err != nil {
		return err
	}
	if e.Groups[group] == nil {
		e.Groups[group] = map[string]string{}
	}
	e.Groups[group][key] = value
	return c.put(e)
}

// Entry fetches a dataset's catalog entry.
func (c *Catalog) Entry(id string) (*CatalogEntry, error) {
	raw, err := c.kv.Get("entry/" + id)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrNoEntry, id)
	}
	var e CatalogEntry
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("organize: decode entry %s: %w", id, err)
	}
	return &e, nil
}

func (c *Catalog) put(e *CatalogEntry) error {
	raw, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("organize: encode entry %s: %w", e.ID, err)
	}
	c.kv.Put("entry/"+e.ID, raw)
	return nil
}

// Remove deletes a dataset's entry. Removing an uncataloged dataset is
// a no-op.
func (c *Catalog) Remove(id string) { c.kv.Delete("entry/" + id) }

// List returns all dataset IDs in the catalog, sorted.
func (c *Catalog) List() []string {
	keys := c.kv.Keys("entry/")
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = strings.TrimPrefix(k, "entry/")
	}
	return out
}
