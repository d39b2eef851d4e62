package metamodel

import (
	"errors"
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
	if ids := m.FindByProperty("format", "csv"); len(ids) != 1 {
		t.Errorf("FindByProperty = %v", ids)
	}
	if ids := m.FindByAttribute("city"); len(ids) != 1 {
		t.Errorf("FindByAttribute = %v", ids)
	}
	if ids := m.FindByAttribute("ghost"); len(ids) != 0 {
		t.Errorf("FindByAttribute ghost = %v", ids)
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
	if ids := m.FindBySemantic("schema.org/City"); len(ids) != 1 {
		t.Errorf("FindBySemantic = %v", ids)
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
	entries := h.MetadataOf("ds1")
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
	md := h.MetadataOf(obj.ID)
	if len(md) == 0 {
		t.Fatal("no metadata imported")
	}
	// Attribute-level schema metadata exists at fine granularity.
	attrMD := h.MetadataOf(obj.ID + "#total")
	if len(attrMD) != 1 || attrMD[0].Props["type"] != "float" {
		t.Errorf("attribute metadata = %+v", attrMD)
	}
	cityMD := h.MetadataOf(obj.ID + "#city")
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
