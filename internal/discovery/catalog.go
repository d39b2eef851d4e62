package discovery

import (
	"strings"

	"golake/internal/metamodel"
	"golake/internal/sketch"
	"golake/internal/table"
)

// Catalog is the column profile the discovery indexes over it share:
// one Dict, and each column's distinct values interned once as a Set in
// a dense uint32 slot with its table's dense id stored beside it. A
// read finds candidates in slot-keyed structures (LSH buckets, posting
// lists), scores them into per-call slices indexed by table id, and
// attributes them without parsing a "table.column" string. An index
// adds the tables it indexes; one the Catalog holds is not profiled
// again. Removing a table from an index leaves it here: the owner
// removes it once every index has, and later adds reuse its slots and
// id. Writes are not concurrency-safe; read paths use a Lookup.
type Catalog struct {
	dict       *sketch.Dict
	cols       []catalogColumn
	byRef      map[metamodel.ColumnRef]uint32
	freeCols   []uint32
	tables     []catalogTable
	byName     map[string]uint32
	freeTables []uint32
}

// catalogColumn is one slot: the column in it, its table's id and its
// distinct values.
type catalogColumn struct {
	ref    metamodel.ColumnRef
	table  uint32
	values sketch.Set
}

// catalogTable is one table id: the table's name and its columns'
// slots, in first-seen order.
type catalogTable struct {
	name  string
	slots []uint32
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{dict: sketch.NewDict(), byRef: map[metamodel.ColumnRef]uint32{}, byName: map[string]uint32{}}
}

// add returns a table's id, interning the columns it does not hold
// from their profiles, cols (Profiles). A column name repeated within a
// new table holds one slot, with its last column's values.
func (c *Catalog) add(t *table.Table, cols []table.Profile) uint32 {
	held := c.Has(t.Name)
	for i, col := range t.Columns {
		if !held || c.slot(t.Name, col.Name) == sketch.NoSlot {
			c.setColumn(t.Name, col.Name, cols[i].Distinct)
		}
	}
	return c.addTable(t.Name)
}

// addTable returns a table's id, taking a free one when it is new.
func (c *Catalog) addTable(name string) uint32 {
	tid, ok := c.byName[name]
	if !ok {
		tid = place(&c.tables, &c.freeTables, catalogTable{name: name})
		c.byName[name] = tid
	}
	return tid
}

// setColumn interns a column's distinct values vals into its slot,
// taking a free one (and a table id) when it is new; it returns the slot.
func (c *Catalog) setColumn(tableName, column string, vals []string) uint32 {
	ref := metamodel.ColumnRef{Table: tableName, Column: column}
	values := c.dict.Set(vals)
	if slot, ok := c.byRef[ref]; ok {
		c.cols[slot].values = values
		return slot
	}
	tid := c.addTable(tableName)
	slot := place(&c.cols, &c.freeCols, catalogColumn{ref: ref, table: tid, values: values})
	c.byRef[ref] = slot
	c.tables[tid].slots = append(c.tables[tid].slots, slot)
	return slot
}

// place stores v at the last free index, or appends it; it returns v's.
func place[T any](items *[]T, free *[]uint32, v T) uint32 {
	if n := len(*free); n > 0 {
		i := (*free)[n-1]
		*free = (*free)[:n-1]
		(*items)[i] = v
		return i
	}
	*items = append(*items, v)
	return uint32(len(*items) - 1)
}

// Remove frees a table's id and slots, once every index has removed it.
func (c *Catalog) Remove(name string) {
	tid, ok := c.byName[name]
	if !ok {
		return
	}
	slots := c.tables[tid].slots
	for _, slot := range slots {
		delete(c.byRef, c.cols[slot].ref)
		c.cols[slot] = catalogColumn{}
	}
	c.freeCols = append(c.freeCols, slots...)
	delete(c.byName, name)
	c.tables[tid] = catalogTable{}
	c.freeTables = append(c.freeTables, tid)
}

// Has reports whether the catalog holds a table.
func (c *Catalog) Has(name string) bool { return c.tableID(name) != sketch.NoSlot }

// EachColumn calls fn with each column name of a table, first-seen first.
func (c *Catalog) EachColumn(name string, fn func(column string)) {
	for _, slot := range c.slotsOf(name) {
		fn(c.cols[slot].ref.Column)
	}
}

// slotsOf returns the slots of a table's columns, if any.
func (c *Catalog) slotsOf(name string) []uint32 {
	if tid, ok := c.byName[name]; ok {
		return c.tables[tid].slots
	}
	return nil
}

// values returns the Set in slot, or, when slot is sketch.NoSlot, the
// Set of col's distinct values built through ids.
func (c *Catalog) values(slot uint32, col *table.Column, ids interner) sketch.Set {
	if slot != sketch.NoSlot {
		return c.cols[slot].values
	}
	return ids.Set(col.Profile().Distinct)
}

// slot returns the slot of a table's column, or sketch.NoSlot.
func (c *Catalog) slot(tableName, column string) uint32 {
	if slot, ok := c.byRef[metamodel.ColumnRef{Table: tableName, Column: column}]; ok {
		return slot
	}
	return sketch.NoSlot
}

// tableID returns a table's id, or sketch.NoSlot, which no slot's is.
func (c *Catalog) tableID(name string) uint32 {
	if tid, ok := c.byName[name]; ok {
		return tid
	}
	return sketch.NoSlot
}

// compare orders two slots' columns as their "table.column" renderings
// compare, without rendering them unless one table name is a prefix of
// the other. Columns whose renderings are equal order by table name, so
// the order is total.
func (c *Catalog) compare(a, b uint32) int {
	return compareRefs(c.cols[a].ref, c.cols[b].ref)
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
