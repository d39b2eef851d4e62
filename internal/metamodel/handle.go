package metamodel

import (
	"fmt"

	"golake/internal/storage/graphstore"
)

// HANDLE implements the HANDLE generic metadata model (Eichler et al.):
// three abstract entities — data, metadata, property — realized as a
// labeled property graph, with zone assignment (HANDLE adapts the zone
// architecture) and metadata at arbitrary granularity (whole dataset or
// single attribute).
type HANDLE struct {
	g *graphstore.Graph
}

// Node labels and edge labels of the HANDLE graph realization.
const (
	handleData     = "data"
	handleMetadata = "metadata"
	handleProperty = "property"

	edgeDescribes   = "describes"
	edgeHasProperty = "hasProperty"
	edgePartOf      = "partOf"
)

// NewHANDLE creates an empty HANDLE model on a fresh graph.
func NewHANDLE() *HANDLE { return &HANDLE{g: graphstore.New()} }

// Graph exposes the underlying property graph (HANDLE is "implemented
// in Neo4j" in the paper; ours lives on graphstore).
func (h *HANDLE) Graph() *graphstore.Graph { return h.g }

// AddData registers a data entity (dataset) in a zone.
func (h *HANDLE) AddData(id, zone string) error {
	return h.g.AddNode(dataID(id), handleData, graphstore.Props{"zone": zone})
}

// AddDataElement registers a finer-grained data entity (e.g. one
// attribute) belonging to a parent dataset — HANDLE's granularity
// feature.
func (h *HANDLE) AddDataElement(parentID, elementID string) error {
	id := dataID(parentID + "#" + elementID)
	if err := h.g.AddNode(id, handleData, graphstore.Props{"element": elementID}); err != nil {
		return err
	}
	_, err := h.g.AddEdge(id, dataID(parentID), edgePartOf, nil)
	return err
}

// AttachMetadata creates a metadata entity describing a data entity
// (dataset or element) and returns the metadata node ID. Category is
// free-form ("schema", "provenance", ...), matching HANDLE's
// categorization flexibility.
func (h *HANDLE) AttachMetadata(dataNodeID, category string) (string, error) {
	target := dataID(dataNodeID)
	if !h.g.HasNode(target) {
		return "", fmt.Errorf("%w: %s", graphstore.ErrNodeNotFound, dataNodeID)
	}
	mid := fmt.Sprintf("md:%s:%s:%d", dataNodeID, category, h.g.NumNodes())
	if err := h.g.AddNode(mid, handleMetadata, graphstore.Props{"category": category}); err != nil {
		return "", err
	}
	if _, err := h.g.AddEdge(mid, target, edgeDescribes, nil); err != nil {
		return "", err
	}
	return mid, nil
}

// SetProperty attaches a property (key-value) entity to a metadata
// entity.
func (h *HANDLE) SetProperty(metadataID, key string, value any) error {
	pid := fmt.Sprintf("prop:%s:%s", metadataID, key)
	h.g.UpsertNode(pid, handleProperty, graphstore.Props{"key": key, "value": value})
	if _, err := h.g.AddEdge(metadataID, pid, edgeHasProperty, nil); err != nil {
		return err
	}
	return nil
}

// Zone returns the zone of a dataset.
func (h *HANDLE) Zone(id string) (string, error) {
	n, err := h.g.Node(dataID(id))
	if err != nil {
		return "", err
	}
	z, _ := n.Props["zone"].(string)
	return z, nil
}

// MoveZone reassigns a dataset's zone (datasets progress through zones
// as they are cleaned and validated).
func (h *HANDLE) MoveZone(id, zone string) error {
	return h.g.SetProp(dataID(id), "zone", zone)
}

// DataInZone lists dataset IDs in a zone, sorted. It reads each data
// node's zone in place, copying no property bag.
func (h *HANDLE) DataInZone(zone string) []string {
	out := h.g.NodeIDsWhere(handleData, func(p graphstore.Props) bool {
		z, _ := p["zone"].(string)
		return z == zone
	})
	for i, id := range out {
		out[i] = id[len("data:"):]
	}
	return out
}

// Remove deletes a dataset and its whole HANDLE subgraph: the data
// node, its element nodes, every metadata entity describing any of
// them, and those entities' property nodes. Removing an unregistered
// dataset is a no-op.
func (h *HANDLE) Remove(id string) {
	root := dataID(id)
	if !h.g.HasNode(root) {
		return
	}
	// Collect the data nodes first (root + elements), then the metadata
	// and property entities hanging off each.
	data := []string{root}
	for _, e := range h.g.InEdges(root) {
		if e.Label == edgePartOf {
			data = append(data, e.From)
		}
	}
	var doomed []string
	for _, d := range data {
		for _, e := range h.g.InEdges(d) {
			if e.Label != edgeDescribes {
				continue
			}
			for _, pe := range h.g.OutEdges(e.From) {
				if pe.Label == edgeHasProperty {
					doomed = append(doomed, pe.To)
				}
			}
			doomed = append(doomed, e.From)
		}
	}
	for _, n := range append(doomed, data...) {
		_ = h.g.RemoveNode(n)
	}
}

// ImportGEMMS maps a GEMMS metadata object onto HANDLE entities — the
// paper notes the GEMMS model elements can be mapped to HANDLE.
func (h *HANDLE) ImportGEMMS(obj *MetadataObject, zone string) error {
	if err := h.AddData(obj.ID, zone); err != nil {
		return err
	}
	mid, err := h.AttachMetadata(obj.ID, "properties")
	if err != nil {
		return err
	}
	for k, v := range obj.Properties {
		if err := h.SetProperty(mid, k, v); err != nil {
			return err
		}
	}
	for attr, typ := range obj.Attributes {
		if err := h.AddDataElement(obj.ID, attr); err != nil {
			return err
		}
		amid, err := h.AttachMetadata(obj.ID+"#"+attr, "schema")
		if err != nil {
			return err
		}
		if err := h.SetProperty(amid, "type", typ); err != nil {
			return err
		}
	}
	for element, terms := range obj.Semantics {
		target := obj.ID
		if element != "" {
			target = obj.ID + "#" + element
		}
		smid, err := h.AttachMetadata(target, "semantics")
		if err != nil {
			return err
		}
		for i, term := range terms {
			if err := h.SetProperty(smid, fmt.Sprintf("term%d", i), term); err != nil {
				return err
			}
		}
	}
	return nil
}

func dataID(id string) string {
	if len(id) >= 5 && id[:5] == "data:" {
		return id
	}
	return "data:" + id
}
