// Package evolve implements the schema-evolution function of the
// maintenance tier (Sec. 6.6), following Klettke et al.: entity types
// (the structures of persisted JSON objects) are extracted per loaded
// batch with timestamps; consecutive structure versions are diffed into
// evolution operations (add / delete / rename, with user validation for
// ambiguous alternatives); and k-ary inclusion dependencies are
// detected across entity types of "less normalized" NoSQL data.
package evolve

import (
	"encoding/json"
	"fmt"
	"sort"

	"golake/internal/sketch"
)

// EntityType is the structure of persisted objects in one batch: its
// field set, with the observation interval.
type EntityType struct {
	Version int
	Fields  map[string]bool
	// FieldValues samples values per field for rename detection and
	// inclusion dependencies.
	FieldValues map[string][]string
}

// ExtractEntityType parses a batch of JSON object documents into the
// version's entity type.
func ExtractEntityType(version int, docs []string) (*EntityType, error) {
	et := &EntityType{Version: version, Fields: map[string]bool{}, FieldValues: map[string][]string{}}
	for i, raw := range docs {
		var m map[string]any
		if err := json.Unmarshal([]byte(raw), &m); err != nil {
			return nil, fmt.Errorf("evolve: doc %d of version %d: %w", i, version, err)
		}
		for k, v := range m {
			et.Fields[k] = true
			et.FieldValues[k] = append(et.FieldValues[k], fmt.Sprintf("%v", v))
		}
	}
	return et, nil
}

// Operation is one detected schema-evolution step between consecutive
// versions.
type Operation struct {
	FromVersion int
	Kind        string // "add", "delete", "rename"
	Field       string
	NewField    string // rename only
	// Ambiguous marks operations where a delete+add pair could equally
	// be a rename; these are the ones Klettke et al. hand to the user
	// for final validation.
	Ambiguous bool
}

// String renders the operation.
func (o Operation) String() string {
	switch o.Kind {
	case "rename":
		return fmt.Sprintf("v%d: rename %s -> %s", o.FromVersion, o.Field, o.NewField)
	default:
		return fmt.Sprintf("v%d: %s %s", o.FromVersion, o.Kind, o.Field)
	}
}

// DiffVersions detects the operations between two consecutive entity
// type versions. A removed field and an added field are folded into a
// rename when their value samples overlap strongly or their names are
// similar; such folds are marked Ambiguous for user validation.
func DiffVersions(prev, next *EntityType) []Operation {
	var removed, added []string
	for f := range prev.Fields {
		if !next.Fields[f] {
			removed = append(removed, f)
		}
	}
	for f := range next.Fields {
		if !prev.Fields[f] {
			added = append(added, f)
		}
	}
	sort.Strings(removed)
	sort.Strings(added)
	var out []Operation
	usedAdd := map[string]bool{}
	for _, rf := range removed {
		bestAdd := ""
		bestSim := 0.0
		for _, af := range added {
			if usedAdd[af] {
				continue
			}
			sim := renameSimilarity(prev, next, rf, af)
			if sim > bestSim {
				bestSim, bestAdd = sim, af
			}
		}
		if bestAdd != "" && bestSim >= 0.3 {
			usedAdd[bestAdd] = true
			out = append(out, Operation{
				FromVersion: prev.Version, Kind: "rename",
				Field: rf, NewField: bestAdd, Ambiguous: bestSim < 0.7,
			})
			continue
		}
		out = append(out, Operation{FromVersion: prev.Version, Kind: "delete", Field: rf})
	}
	for _, af := range added {
		if !usedAdd[af] {
			out = append(out, Operation{FromVersion: prev.Version, Kind: "add", Field: af})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Field < out[j].Field
	})
	return out
}

// renameSimilarity combines value-sample overlap and name similarity
// as rename evidence.
func renameSimilarity(prev, next *EntityType, rf, af string) float64 {
	ids := sketch.NewDict()
	valSim := sketch.ExactJaccard(
		ids.Set(prev.FieldValues[rf]),
		ids.Set(next.FieldValues[af]),
	)
	nameSim := sketch.LevenshteinSim(rf, af)
	if valSim > nameSim {
		return valSim
	}
	return nameSim
}

// History reconstructs the whole evolution history from a sequence of
// version batches — "uncovering the evolution history of data lakes".
func History(batches [][]string) ([]*EntityType, []Operation, error) {
	var types []*EntityType
	var ops []Operation
	for v, docs := range batches {
		et, err := ExtractEntityType(v, docs)
		if err != nil {
			return nil, nil, err
		}
		types = append(types, et)
		if v > 0 {
			ops = append(ops, DiffVersions(types[v-1], et)...)
		}
	}
	return types, ops, nil
}

// Validator resolves ambiguous operations; Klettke et al. put the user
// in this role. Returning false turns a proposed rename into the
// delete+add pair.
type Validator func(op Operation) bool

// ValidateOps applies the validator to ambiguous operations.
func ValidateOps(ops []Operation, validate Validator) []Operation {
	var out []Operation
	for _, op := range ops {
		if op.Kind == "rename" && op.Ambiguous && !validate(op) {
			out = append(out,
				Operation{FromVersion: op.FromVersion, Kind: "delete", Field: op.Field},
				Operation{FromVersion: op.FromVersion, Kind: "add", Field: op.NewField},
			)
			continue
		}
		out = append(out, op)
	}
	return out
}

// InclusionDependency records that the value combinations of Lhs
// (fields of one entity type) are contained in those of Rhs (fields of
// another) — the k-ary INDs of Klettke et al.
type InclusionDependency struct {
	LhsType int // version/index of the entity type
	Lhs     []string
	RhsType int
	Rhs     []string
	// Coverage is the contained fraction (1.0 = strict IND).
	Coverage float64
}

// DetectInclusions finds k-ary inclusion dependencies between two
// entity types for k in 1..maxK, keeping those with coverage >=
// minCoverage. Field tuples are compared positionally after sorting
// field names.
func DetectInclusions(a, b *EntityType, maxK int, minCoverage float64) []InclusionDependency {
	var out []InclusionDependency
	ids := sketch.NewDict()
	aFields := sortedFields(a)
	bFields := sortedFields(b)
	for k := 1; k <= maxK; k++ {
		for _, lhs := range combinations(aFields, k) {
			lhsTuples := tuples(a, lhs, ids)
			if len(lhsTuples) == 0 {
				continue
			}
			for _, rhs := range combinations(bFields, k) {
				rhsTuples := tuples(b, rhs, ids)
				if len(rhsTuples) == 0 {
					continue
				}
				cov := sketch.Containment(lhsTuples, rhsTuples)
				if cov >= minCoverage {
					out = append(out, InclusionDependency{
						LhsType: a.Version, Lhs: lhs,
						RhsType: b.Version, Rhs: rhs,
						Coverage: cov,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Coverage != out[j].Coverage {
			return out[i].Coverage > out[j].Coverage
		}
		return fmt.Sprint(out[i].Lhs, out[i].Rhs) < fmt.Sprint(out[j].Lhs, out[j].Rhs)
	})
	return out
}

func sortedFields(et *EntityType) []string {
	out := make([]string, 0, len(et.Fields))
	for f := range et.Fields {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// tuples renders the distinct per-document value tuples of the given
// fields, interned through ids.
func tuples(et *EntityType, fields []string, ids *sketch.Dict) sketch.Set {
	n := -1
	for _, f := range fields {
		vs := et.FieldValues[f]
		if n < 0 || len(vs) < n {
			n = len(vs)
		}
	}
	if n <= 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		key := ""
		for _, f := range fields {
			key += et.FieldValues[f][i] + "\x00"
		}
		out[i] = key
	}
	return ids.Set(out)
}

func combinations(items []string, k int) [][]string {
	if k <= 0 || k > len(items) {
		return nil
	}
	var out [][]string
	var rec func(start int, cur []string)
	rec = func(start int, cur []string) {
		if len(cur) == k {
			out = append(out, append([]string(nil), cur...))
			return
		}
		for i := start; i < len(items); i++ {
			rec(i+1, append(cur, items[i]))
		}
	}
	rec(0, nil)
	return out
}
