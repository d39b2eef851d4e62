package evolve

import (
	"testing"

	"golake/internal/workload"
)

func TestExtractEntityType(t *testing.T) {
	docs := []string{`{"id":1,"name":"a"}`, `{"id":2,"name":"b","extra":true}`}
	et, err := ExtractEntityType(0, docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(et.Fields) != 3 {
		t.Errorf("fields = %v", et.Fields)
	}
	if len(et.FieldValues["id"]) != 2 {
		t.Errorf("id values = %v", et.FieldValues["id"])
	}
	if _, err := ExtractEntityType(0, []string{"{bad"}); err == nil {
		t.Error("invalid json should error")
	}
}

func TestDiffVersionsAddDelete(t *testing.T) {
	v0, _ := ExtractEntityType(0, []string{`{"a":1,"b":2}`})
	v1, _ := ExtractEntityType(1, []string{`{"a":1,"c":3}`})
	ops := DiffVersions(v0, v1)
	// b deleted (or renamed to c if similar — values differ and names
	// differ, so delete+add).
	kinds := map[string]int{}
	for _, op := range ops {
		kinds[op.Kind]++
	}
	if kinds["add"] != 1 || kinds["delete"] != 1 {
		t.Errorf("ops = %+v", ops)
	}
}

func TestDiffVersionsRenameByValues(t *testing.T) {
	v0, _ := ExtractEntityType(0, []string{`{"id":1,"city":"berlin"}`, `{"id":2,"city":"paris"}`})
	v1, _ := ExtractEntityType(1, []string{`{"id":1,"town":"berlin"}`, `{"id":2,"town":"paris"}`})
	ops := DiffVersions(v0, v1)
	if len(ops) != 1 || ops[0].Kind != "rename" || ops[0].Field != "city" || ops[0].NewField != "town" {
		t.Fatalf("ops = %+v", ops)
	}
	// Perfect value overlap: unambiguous.
	if ops[0].Ambiguous {
		t.Error("full value overlap should not be ambiguous")
	}
}

func TestDiffVersionsRenameByName(t *testing.T) {
	v0, _ := ExtractEntityType(0, []string{`{"city":"x"}`})
	v1, _ := ExtractEntityType(1, []string{`{"city_code":"y"}`})
	ops := DiffVersions(v0, v1)
	if len(ops) != 1 || ops[0].Kind != "rename" {
		t.Fatalf("ops = %+v", ops)
	}
	if !ops[0].Ambiguous {
		t.Error("name-only rename evidence should be ambiguous")
	}
}

func TestHistoryAgainstGeneratedGroundTruth(t *testing.T) {
	spec := workload.SchemaVersionSpec{Versions: 8, DocsPer: 10, Seed: 19}
	vd := workload.GenerateVersions(spec)
	types, ops, err := History(vd.Versions)
	if err != nil {
		t.Fatal(err)
	}
	if len(types) != 8 {
		t.Fatalf("types = %d", len(types))
	}
	// Every ground-truth op must be recovered with matching kind and
	// field (renames may be detected as rename or, if evidence is weak,
	// delete+add — count those as recovered too).
	recovered := 0
	for _, want := range vd.Ops {
		found := false
		for _, got := range ops {
			if got.FromVersion != want.FromVersion {
				continue
			}
			switch want.Kind {
			case "add":
				if got.Kind == "add" && got.Field == want.Field {
					found = true
				}
				// A rename detected into this field also explains it.
				if got.Kind == "rename" && got.NewField == want.Field {
					found = true
				}
			case "delete":
				if got.Kind == "delete" && got.Field == want.Field {
					found = true
				}
				if got.Kind == "rename" && got.Field == want.Field {
					found = true
				}
			case "rename":
				if got.Kind == "rename" && got.Field == want.Field && got.NewField == want.NewField {
					found = true
				}
				if got.Kind == "delete" && got.Field == want.Field {
					found = true
				}
			}
		}
		if found {
			recovered++
		}
	}
	rate := float64(recovered) / float64(len(vd.Ops))
	if rate < 0.85 {
		t.Errorf("op recovery = %.2f (%d/%d)\n got: %v\nwant: %v", rate, recovered, len(vd.Ops), ops, vd.Ops)
	}
}
