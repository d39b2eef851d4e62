package metamodel

import (
	"errors"
	"testing"

	"golake/internal/extract"
	"golake/internal/table"
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

func TestVaultLoadAndRelational(t *testing.T) {
	v := NewVault()
	orders, _ := table.ParseCSV("orders", "order_id,customer,total\no1,alice,9.5\no2,bob,3.0\n")
	custs, _ := table.ParseCSV("customers", "cust_id,city\nalice,berlin\nbob,paris\n")
	if err := v.LoadTable(orders, "order_id"); err != nil {
		t.Fatal(err)
	}
	if err := v.LoadTable(custs, "cust_id"); err != nil {
		t.Fatal(err)
	}
	if err := v.LinkHubs("placed", "customers", "alice", "orders", "o1"); err != nil {
		t.Fatal(err)
	}
	hub, ok := v.Hub("orders")
	if !ok || len(hub.Keys) != 2 {
		t.Fatalf("hub = %+v", hub)
	}
	sat, ok := v.Satellite("orders_sat")
	if !ok || len(sat.Attributes) != 2 {
		t.Fatalf("satellite = %+v", sat)
	}
	rel := v.ToRelational()
	// 2 hubs + 1 link + 2 satellites = 5 tables.
	if len(rel) != 5 {
		t.Fatalf("relational tables = %d, want 5", len(rel))
	}
	names := map[string]bool{}
	for _, tb := range rel {
		names[tb.Name] = true
	}
	for _, want := range []string{"hub_orders", "hub_customers", "link_placed", "sat_orders_sat", "sat_customers_sat"} {
		if !names[want] {
			t.Errorf("missing table %s in %v", want, names)
		}
	}
}

func TestVaultIncrementalLoadIdempotentKeys(t *testing.T) {
	v := NewVault()
	t1, _ := table.ParseCSV("d", "k,v\na,1\nb,2\n")
	t2, _ := table.ParseCSV("d", "k,v\nb,20\nc,3\n")
	_ = v.LoadTable(t1, "k")
	_ = v.LoadTable(t2, "k")
	hub, _ := v.Hub("d")
	if len(hub.Keys) != 3 {
		t.Errorf("keys = %v, want 3 distinct", hub.Keys)
	}
	sat, _ := v.Satellite("d_sat")
	if sat.Rows["b"][0] != "20" {
		t.Errorf("satellite latest value = %v, want 20", sat.Rows["b"])
	}
}

func TestVaultErrors(t *testing.T) {
	v := NewVault()
	t1, _ := table.ParseCSV("d", "k,v\na,1\n")
	if err := v.LoadTable(t1, "ghost"); err == nil {
		t.Error("unknown key column should fail")
	}
	_ = v.LoadTable(t1, "k")
	if err := v.LoadTable(t1, "v"); err == nil {
		t.Error("re-keying a hub should fail")
	}
	if err := v.LinkHubs("l", "d", "a", "ghost", "x"); err == nil {
		t.Error("link to unknown hub should fail")
	}
}

func TestEKGRelateAndNeighbors(t *testing.T) {
	g := NewEKG()
	a := ColumnRef{"t1", "id"}
	b := ColumnRef{"t2", "user_id"}
	c := ColumnRef{"t3", "uid"}
	g.Relate(a, b, "content", 0.9)
	g.Relate(a, c, "content", 0.4)
	g.Relate(a, b, "pkfk", 0.95)
	if g.NumColumns() != 3 {
		t.Errorf("columns = %d", g.NumColumns())
	}
	if g.NumEdges() != 3 {
		t.Errorf("edges = %d", g.NumEdges())
	}
	nbs := g.Neighbors(a, "content", 0)
	if len(nbs) != 2 || Other(nbs[0], a) != b {
		t.Errorf("neighbors = %+v", nbs)
	}
	if nbs := g.Neighbors(a, "content", 0.5); len(nbs) != 1 {
		t.Errorf("weight-filtered neighbors = %+v", nbs)
	}
	// Updating an edge keeps one edge.
	g.Relate(a, b, "content", 0.7)
	if g.NumEdges() != 3 {
		t.Errorf("edges after update = %d", g.NumEdges())
	}
}

func TestEKGRemoveRelations(t *testing.T) {
	g := NewEKG()
	a, b := ColumnRef{"t1", "x"}, ColumnRef{"t2", "y"}
	g.Relate(a, b, "content", 0.8)
	g.RemoveRelations(a)
	if g.NumEdges() != 0 {
		t.Errorf("edges = %d after remove", g.NumEdges())
	}
	if nbs := g.Neighbors(b, "", 0); len(nbs) != 0 {
		t.Errorf("stale adjacency: %+v", nbs)
	}
}

func TestEKGPathBetween(t *testing.T) {
	g := NewEKG()
	a, b, c := ColumnRef{"t1", "a"}, ColumnRef{"t2", "b"}, ColumnRef{"t3", "c"}
	g.Relate(a, b, "content", 0.9)
	g.Relate(b, c, "content", 0.9)
	path := g.PathBetween(a, c, 0.5)
	if len(path) != 3 || path[1] != b {
		t.Errorf("path = %v", path)
	}
	if p := g.PathBetween(a, c, 0.95); p != nil {
		t.Errorf("high-threshold path = %v, want nil", p)
	}
	if p := g.PathBetween(a, a, 0); len(p) != 1 {
		t.Errorf("self path = %v", p)
	}
	if p := g.PathBetween(a, ColumnRef{"ghost", "x"}, 0); p != nil {
		t.Errorf("missing node path = %v", p)
	}
}

func TestEKGHyperedgesAndTableQuery(t *testing.T) {
	g := NewEKG()
	t1a, t1b := ColumnRef{"t1", "a"}, ColumnRef{"t1", "b"}
	t2a := ColumnRef{"t2", "a"}
	t3a := ColumnRef{"t3", "a"}
	g.AddHyperedge("t1", []ColumnRef{t1a, t1b})
	g.AddHyperedge("t2", []ColumnRef{t2a})
	g.AddHyperedge("t3", []ColumnRef{t3a})
	g.Relate(t1a, t2a, "content", 0.9)
	g.Relate(t1b, t3a, "content", 0.3)
	got := g.TablesRelated("t1", 0.2)
	if len(got) != 2 || got[0].Table != "t2" || got[1].Table != "t3" {
		t.Errorf("TablesRelated = %+v", got)
	}
	if got := g.TablesRelated("t1", 0.5); len(got) != 1 {
		t.Errorf("filtered TablesRelated = %+v", got)
	}
	if got := g.TablesRelated("ghost", 0); got != nil {
		t.Errorf("missing hyperedge = %+v", got)
	}
	if members, ok := g.Hyperedge("t1"); !ok || len(members) != 2 {
		t.Errorf("Hyperedge = %v, %v", members, ok)
	}
	if names := g.Hyperedges(); len(names) != 3 {
		t.Errorf("Hyperedges = %v", names)
	}
}
