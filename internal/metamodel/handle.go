package metamodel

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrNoData is returned for datasets HANDLE does not hold.
var ErrNoData = errors.New("metamodel: no such data entity")

// HANDLE implements the zone half of the HANDLE generic metadata model
// (Eichler et al.): every data entity (dataset) sits in one zone, and
// datasets progress through zones as they are cleaned and validated.
// The zone is the one HANDLE fact the lake reads; a dataset's
// properties, attributes and semantic terms live in the GEMMS model,
// which HANDLE's metadata and property entities would only mirror.
type HANDLE struct {
	mu    sync.RWMutex
	zones map[string]string // dataset ID -> zone
}

// NewHANDLE creates an empty HANDLE model.
func NewHANDLE() *HANDLE { return &HANDLE{zones: map[string]string{}} }

// AddData registers a data entity (dataset) in a zone; registering an
// ID twice is an error.
func (h *HANDLE) AddData(id, zone string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.zones[id]; ok {
		return fmt.Errorf("metamodel: data entity %s already registered", id)
	}
	h.zones[id] = zone
	return nil
}

// Zone returns the zone of a dataset.
func (h *HANDLE) Zone(id string) (string, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	z, ok := h.zones[id]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNoData, id)
	}
	return z, nil
}

// MoveZone reassigns a dataset's zone.
func (h *HANDLE) MoveZone(id, zone string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.zones[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNoData, id)
	}
	h.zones[id] = zone
	return nil
}

// DataInZone lists the dataset IDs in a zone, sorted.
func (h *HANDLE) DataInZone(zone string) []string {
	h.mu.RLock()
	var out []string
	for id, z := range h.zones {
		if z == zone {
			out = append(out, id)
		}
	}
	h.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Remove deletes a dataset. Removing an unregistered dataset is a
// no-op.
func (h *HANDLE) Remove(id string) {
	h.mu.Lock()
	delete(h.zones, id)
	h.mu.Unlock()
}
