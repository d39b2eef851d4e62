package metamodel

import (
	"errors"
	"sort"
	"testing"

	"golake/internal/extract"
)

func sampleObject(t *testing.T) *MetadataObject {
	t.Helper()
	md, err := extract.Extract("raw/orders.csv", []byte("id,total,city\n1,9.5,berlin\n2,3.0,paris\n"))
	if err != nil {
		t.Fatal(err)
	}
	return FromExtraction(md)
}

func TestGEMMSRegisterAndFind(t *testing.T) {
	m := NewGEMMS()
	obj := sampleObject(t)
	m.Register(obj)
	got, err := m.Object("raw/orders.csv")
	if err != nil {
		t.Fatal(err)
	}
	if got.Attributes["total"] != "float" {
		t.Errorf("attribute type = %q", got.Attributes["total"])
	}
	if got.Properties["format"] != "csv" {
		t.Errorf("format property = %q", got.Properties["format"])
	}
	if _, err := m.Object("nope"); !errors.Is(err, ErrNoObject) {
		t.Errorf("Object missing = %v", err)
	}
}

func TestGEMMSAnnotateAndSemanticSearch(t *testing.T) {
	m := NewGEMMS()
	m.Register(sampleObject(t))
	if err := m.Annotate("raw/orders.csv", "city", "schema.org/City"); err != nil {
		t.Fatal(err)
	}
	got, err := m.Object("raw/orders.csv")
	if err != nil {
		t.Fatal(err)
	}
	if terms := got.Semantics["city"]; len(terms) != 1 || terms[0] != "schema.org/City" {
		t.Errorf("city semantics = %v", terms)
	}
	if err := m.Annotate("ghost", "", "x"); !errors.Is(err, ErrNoObject) {
		t.Errorf("Annotate missing = %v", err)
	}
}

func TestHANDLEZonesAndMetadata(t *testing.T) {
	h := NewHANDLE()
	if err := h.AddData("ds1", "raw"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddData("ds2", "curated"); err != nil {
		t.Fatal(err)
	}
	z, err := h.Zone("ds1")
	if err != nil || z != "raw" {
		t.Errorf("Zone = %q, %v", z, err)
	}
	if err := h.MoveZone("ds1", "curated"); err != nil {
		t.Fatal(err)
	}
	if got := h.DataInZone("curated"); len(got) != 2 {
		t.Errorf("DataInZone = %v", got)
	}
	mid, err := h.AttachMetadata("ds1", "provenance")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetProperty(mid, "source", "sensor-17"); err != nil {
		t.Fatal(err)
	}
	entries := metadataOf(h, "ds1")
	if len(entries) != 1 || entries[0].Category != "provenance" {
		t.Fatalf("MetadataOf = %+v", entries)
	}
	if entries[0].Props["source"] != "sensor-17" {
		t.Errorf("props = %v", entries[0].Props)
	}
	if _, err := h.AttachMetadata("ghost", "x"); err == nil {
		t.Error("AttachMetadata on missing data should fail")
	}
}

func TestHANDLEImportGEMMS(t *testing.T) {
	h := NewHANDLE()
	obj := sampleObject(t)
	obj.Semantics["city"] = []string{"schema.org/City"}
	if err := h.ImportGEMMS(obj, "raw"); err != nil {
		t.Fatal(err)
	}
	// Dataset node plus one element node per attribute.
	if got := h.DataInZone("raw"); len(got) != 1 {
		t.Errorf("DataInZone = %v", got)
	}
	md := metadataOf(h, obj.ID)
	if len(md) == 0 {
		t.Fatal("no metadata imported")
	}
	// Attribute-level schema metadata exists at fine granularity.
	attrMD := metadataOf(h, obj.ID+"#total")
	if len(attrMD) != 1 || attrMD[0].Props["type"] != "float" {
		t.Errorf("attribute metadata = %+v", attrMD)
	}
	cityMD := metadataOf(h, obj.ID+"#city")
	foundSem := false
	for _, e := range cityMD {
		if e.Category == "semantics" {
			foundSem = true
		}
	}
	if !foundSem {
		t.Errorf("city semantics missing: %+v", cityMD)
	}
}

// metadataEntry is one resolved metadata record with its properties.
type metadataEntry struct {
	ID       string
	Category string
	Props    map[string]any
}

// metadataOf returns all metadata entities describing a data entity,
// with their properties resolved, sorted by ID.
func metadataOf(h *HANDLE, dataNodeID string) []metadataEntry {
	var out []metadataEntry
	for _, e := range h.g.InEdges(dataID(dataNodeID)) {
		if e.Label != edgeDescribes {
			continue
		}
		mn, err := h.g.Node(e.From)
		if err != nil {
			continue
		}
		entry := metadataEntry{ID: mn.ID, Props: map[string]any{}}
		entry.Category, _ = mn.Props["category"].(string)
		for _, pe := range h.g.OutEdges(mn.ID) {
			if pe.Label != edgeHasProperty {
				continue
			}
			pn, err := h.g.Node(pe.To)
			if err != nil {
				continue
			}
			key, _ := pn.Props["key"].(string)
			entry.Props[key] = pn.Props["value"]
		}
		out = append(out, entry)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
