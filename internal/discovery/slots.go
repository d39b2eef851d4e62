package discovery

import (
	"strings"

	"golake/internal/metamodel"
	"golake/internal/sketch"
)

// columnSlots numbers the columns an index holds. Every column gets a
// dense uint32 slot with its table's dense id stored beside it, so a
// read finds candidates in slot-keyed structures (LSH buckets, posting
// lists), scores them into per-call slices indexed by table id, and
// attributes them without parsing a "table.column" string. Slots and
// table ids that remove frees are reused by later adds.
type columnSlots struct {
	cols       []slotColumn
	byRef      map[metamodel.ColumnRef]uint32
	freeCols   []uint32
	tables     []slotTable
	byName     map[string]uint32
	freeTables []uint32
}

// slotColumn is one slot: the column in it and its table's id.
type slotColumn struct {
	ref   metamodel.ColumnRef
	table uint32
}

// slotTable is one table id: the table's name and its columns' slots.
type slotTable struct {
	name  string
	slots []uint32
}

func newColumnSlots() *columnSlots {
	return &columnSlots{byRef: map[metamodel.ColumnRef]uint32{}, byName: map[string]uint32{}}
}

// add returns the slot of a table's column, taking a free one (and a
// table id, for a table's first column) when it is new.
func (s *columnSlots) add(tableName, column string) uint32 {
	ref := metamodel.ColumnRef{Table: tableName, Column: column}
	if slot, ok := s.byRef[ref]; ok {
		return slot
	}
	tid, ok := s.byName[tableName]
	if !ok {
		tid = uint32(len(s.tables))
		if n := len(s.freeTables); n > 0 {
			tid, s.freeTables = s.freeTables[n-1], s.freeTables[:n-1]
			s.tables[tid] = slotTable{name: tableName}
		} else {
			s.tables = append(s.tables, slotTable{name: tableName})
		}
		s.byName[tableName] = tid
	}
	slot := uint32(len(s.cols))
	if n := len(s.freeCols); n > 0 {
		slot, s.freeCols = s.freeCols[n-1], s.freeCols[:n-1]
		s.cols[slot] = slotColumn{ref: ref, table: tid}
	} else {
		s.cols = append(s.cols, slotColumn{ref: ref, table: tid})
	}
	s.byRef[ref] = slot
	s.tables[tid].slots = append(s.tables[tid].slots, slot)
	return slot
}

// removeTable frees a table's id and the slots of its columns, and
// returns those slots so the owner can empty them in its own
// structures.
func (s *columnSlots) removeTable(name string) []uint32 {
	tid, ok := s.byName[name]
	if !ok {
		return nil
	}
	slots := s.tables[tid].slots
	for _, slot := range slots {
		delete(s.byRef, s.cols[slot].ref)
		s.cols[slot] = slotColumn{}
	}
	s.freeCols = append(s.freeCols, slots...)
	delete(s.byName, name)
	s.tables[tid] = slotTable{}
	s.freeTables = append(s.freeTables, tid)
	return slots
}

// slot returns the slot of a table's column, or sketch.NoSlot.
func (s *columnSlots) slot(tableName, column string) uint32 {
	if slot, ok := s.byRef[metamodel.ColumnRef{Table: tableName, Column: column}]; ok {
		return slot
	}
	return sketch.NoSlot
}

// tableID returns a table's id, or sketch.NoSlot when it holds no
// column; no slot's table is ever sketch.NoSlot.
func (s *columnSlots) tableID(name string) uint32 {
	if tid, ok := s.byName[name]; ok {
		return tid
	}
	return sketch.NoSlot
}

// numTables bounds the table ids: a per-call slice of this length
// indexes every one.
func (s *columnSlots) numTables() int { return len(s.tables) }

// numSlots bounds the slots.
func (s *columnSlots) numSlots() int { return len(s.cols) }

// compare orders two slots' columns as their "table.column" renderings
// compare, without rendering them unless one table name is a prefix of
// the other. Columns whose renderings are equal order by table name, so
// the order is total.
func (s *columnSlots) compare(a, b uint32) int {
	return compareRefs(s.cols[a].ref, s.cols[b].ref)
}

func compareRefs(a, b metamodel.ColumnRef) int {
	if a.Table == b.Table {
		return strings.Compare(a.Column, b.Column)
	}
	n := min(len(a.Table), len(b.Table))
	if c := strings.Compare(a.Table[:n], b.Table[:n]); c != 0 {
		return c
	}
	if c := strings.Compare(a.String(), b.String()); c != 0 {
		return c
	}
	return strings.Compare(a.Table, b.Table)
}
