// Package evolve implements the schema-evolution function of the
// maintenance tier (Sec. 6.6), following Klettke et al.: entity types
// (the structures of persisted JSON objects) are extracted per loaded
// batch with timestamps, and consecutive structure versions are diffed
// into evolution operations (add / delete / rename, with ambiguous
// renames marked for user validation).
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
	// FieldValues samples values per field for rename detection.
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
