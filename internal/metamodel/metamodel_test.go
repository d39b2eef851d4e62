package metamodel

import (
	"errors"
	"fmt"
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

func TestHANDLEZones(t *testing.T) {
	h := NewHANDLE()
	if err := h.AddData("ds1", "raw"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddData("ds2", "curated"); err != nil {
		t.Fatal(err)
	}
	if err := h.AddData("ds1", "curated"); err == nil {
		t.Error("AddData of a registered dataset should fail")
	}
	z, err := h.Zone("ds1")
	if err != nil || z != "raw" {
		t.Errorf("Zone = %q, %v", z, err)
	}
	if err := h.MoveZone("ds1", "curated"); err != nil {
		t.Fatal(err)
	}
	if got := h.DataInZone("curated"); fmt.Sprint(got) != "[ds1 ds2]" {
		t.Errorf("DataInZone(curated) = %v, want [ds1 ds2]", got)
	}
	if got := h.DataInZone("raw"); got != nil {
		t.Errorf("DataInZone(raw) = %v, want nil", got)
	}
	h.Remove("ds1")
	h.Remove("ghost")
	if _, err := h.Zone("ds1"); !errors.Is(err, ErrNoData) {
		t.Errorf("Zone after Remove = %v, want ErrNoData", err)
	}
	if err := h.MoveZone("ghost", "raw"); !errors.Is(err, ErrNoData) {
		t.Errorf("MoveZone of a missing dataset = %v, want ErrNoData", err)
	}
	if got := h.DataInZone("curated"); fmt.Sprint(got) != "[ds2]" {
		t.Errorf("DataInZone after Remove = %v, want [ds2]", got)
	}
}
