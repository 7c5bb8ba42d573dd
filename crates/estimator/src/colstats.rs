//! Columnar per-column statistics and compiled selectivity programs.
//!
//! The interpreted estimator path resolves every predicate's column *by
//! name* against the catalog on every evaluation. For the template fast
//! path that is wasted work: a template's predicate structure is fixed, so
//! column resolution can be done **once at compile time**, leaving a flat
//! program to evaluate per statement instead of a per-predicate tree walk.
//!
//! Two pieces:
//!
//! * [`ColumnarStats`] — a flat, slot-addressed table of resolved
//!   per-column statistics and per-table row counts, keyed by interned
//!   ([`TableId`], [`ColumnId`]) pairs. [`ColumnarStats::refresh_table`]
//!   re-reads one grown table's slots in place, so INSERT growth costs
//!   O(columns of that table) and recompiles nothing.
//! * [`TemplateSelProgram`] — a [`SelTrace`] (from
//!   `QueryShape::extract_traced`) compiled into flat postfix programs, one
//!   per `(predicate, table)` factor. Programs hold statistics *slots*, not
//!   statistics: every leaf reads its column and its table's row count
//!   from the [`ColumnarStats`] passed at evaluation time, through the
//!   *same* `autoindex_storage::selectivity` primitives as the interpreted
//!   path, so results are bit-identical to `QueryShape::extract` against
//!   whatever catalog the stats currently mirror. Only subtrees that read
//!   neither literals nor statistics are const-folded.

use autoindex_sql::intern::{ColumnId, Interner, TableId};
use autoindex_sql::predicate::AtomicPredicate;
use autoindex_sql::{CmpOp, Value};
use autoindex_storage::catalog::{Catalog, Column, Table};
use autoindex_storage::selectivity::{
    between_selectivity, clamp_sel, cmp_selectivity, in_list_selectivity, is_null_selectivity,
    like_selectivity, DEFAULT_EQ_SEL, DEFAULT_OPAQUE_SEL,
};
use autoindex_storage::shape::{SelTrace, SelTree};
use autoindex_storage::QueryShape;
use std::collections::HashMap;
use std::ops::Range;

/// Flat, slot-addressed per-column statistics mirroring one catalog
/// version.
#[derive(Debug, Clone, Default)]
pub struct ColumnarStats {
    interner: Interner,
    slots: HashMap<(TableId, ColumnId), u32>,
    tables: HashMap<TableId, u32>,
    cols: Vec<Column>,
    /// Owning table slot, parallel to `cols`.
    col_table: Vec<u32>,
    /// Row count per table slot.
    rows: Vec<u64>,
    /// Column-slot range per table slot (a table's columns are contiguous,
    /// in catalog column order).
    table_cols: Vec<Range<u32>>,
    /// Catalog version the stats mirror.
    version: u64,
}

impl ColumnarStats {
    /// Resolve every column of every catalog table into slots. Tables are
    /// visited in sorted-name order so slot numbering is deterministic.
    pub fn build(catalog: &Catalog) -> Self {
        let mut s = ColumnarStats {
            version: catalog.version(),
            ..ColumnarStats::default()
        };
        let mut tables: Vec<&Table> = catalog.tables().collect();
        tables.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        for table in tables {
            let tid = s.interner.table(&table.name);
            let tslot = s.rows.len() as u32;
            s.tables.insert(tid, tslot);
            s.rows.push(table.rows);
            let first = s.cols.len() as u32;
            for col in &table.columns {
                let cid = s.interner.column(&col.name);
                s.slots.insert((tid, cid), s.cols.len() as u32);
                s.col_table.push(tslot);
                s.cols.push(col.clone());
            }
            s.table_cols.push(first..s.cols.len() as u32);
        }
        s
    }

    /// Re-read one table's row count and column statistics after it grew
    /// (`Catalog::grow_table`), in place, and stamp the stats with
    /// `version`. Costs O(columns of `table`). Only the scalar column
    /// statistics are copied (`ndv`, `min`, `max`, `null_frac`, a superset
    /// of what growth changes); a histogram or schema edit needs
    /// [`ColumnarStats::build`]. Returns
    /// `false`, changing nothing, when the table is unknown or its column
    /// list no longer matches the slots.
    pub fn refresh_table(&mut self, table: &Table, version: u64) -> bool {
        let Some(tslot) = self.table_slot(&table.name) else {
            return false;
        };
        let range = self.table_cols[tslot as usize].clone();
        let cols = &mut self.cols[range.start as usize..range.end as usize];
        if cols.len() != table.columns.len()
            || cols
                .iter()
                .zip(&table.columns)
                .any(|(c, t)| c.name != t.name)
        {
            return false;
        }
        for (c, t) in cols.iter_mut().zip(&table.columns) {
            c.stats.ndv = t.stats.ndv;
            c.stats.min = t.stats.min;
            c.stats.max = t.stats.max;
            c.stats.null_frac = t.stats.null_frac;
        }
        self.rows[tslot as usize] = table.rows;
        self.version = version;
        true
    }

    /// Catalog version these stats mirror.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of resolved column slots.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether no columns are resolved.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Slot of `table.column`, if both exist in the catalog snapshot.
    pub fn slot(&self, table: &str, column: &str) -> Option<u32> {
        let tid = TableId(self.interner.get(table)?);
        let cid = ColumnId(self.interner.get(column)?);
        self.slots.get(&(tid, cid)).copied()
    }

    /// Slot of a table, if it exists in the catalog snapshot.
    pub fn table_slot(&self, table: &str) -> Option<u32> {
        let tid = TableId(self.interner.get(table)?);
        self.tables.get(&tid).copied()
    }

    /// Slot of the column an atom restricts on `table` (uses the atom's
    /// interned column id against this stats table's interner).
    pub fn slot_for_atom(&mut self, table: &str, atom: &AtomicPredicate) -> Option<u32> {
        let tid = TableId(self.interner.get(table)?);
        let cid = atom.interned_column(&mut self.interner)?;
        self.slots.get(&(tid, cid)).copied()
    }

    /// The resolved column behind a slot.
    pub fn column(&self, slot: u32) -> &Column {
        &self.cols[slot as usize]
    }

    /// Row count of the table owning column `slot`.
    pub fn table_rows(&self, slot: u32) -> u64 {
        self.rows[self.col_table[slot as usize] as usize]
    }

    /// Row count of table slot `table`.
    pub fn rows(&self, table: u32) -> u64 {
        self.rows[table as usize]
    }
}

/// Where a literal-dependent leaf gets its value at evaluation time.
#[derive(Debug, Clone, PartialEq)]
pub enum LitRef {
    /// `literals[slot]`, negated (unary minus in the statement) if set.
    Slot { slot: u16, negate: bool },
    /// A constant baked into the template text.
    Const(Value),
}

/// One selectivity leaf (an atom on the factor's table) with its column
/// slot pre-resolved; `col: None` is a column the statistics do not know,
/// which takes the primitives' defaults exactly as the interpreted path
/// does. Every leaf is clamped to `[1/rows, 1]` with the table's row count
/// at evaluation time.
#[derive(Debug, Clone, PartialEq)]
pub enum DynLeaf {
    /// `col OP value`.
    Cmp {
        col: Option<u32>,
        op: CmpOp,
        value: LitRef,
    },
    /// `col [NOT] BETWEEN low AND high`.
    Between {
        col: Option<u32>,
        low: LitRef,
        high: LitRef,
        negated: bool,
    },
    /// `col [NOT] IN (...)` with a fixed list length.
    InList {
        col: Option<u32>,
        len: usize,
        negated: bool,
    },
    /// `col IS [NOT] NULL`.
    IsNull { col: Option<u32>, negated: bool },
    /// A statistics-free atom (`LIKE`, a join edge used as a filter, an
    /// opaque atom): its unclamped selectivity.
    Fixed(f64),
}

/// One postfix instruction of a factor program.
#[derive(Debug, Clone, PartialEq)]
enum SelOp {
    /// Push a compile-time-folded selectivity.
    Const(f64),
    /// Push a leaf's selectivity.
    Leaf(DynLeaf),
    /// Pop `n`, push their product floored at `1/rows`.
    AndN(u16),
    /// Pop `n`, push `1 - ∏(1 - s)` clamped to `[0, 1]`.
    OrN(u16),
    /// Pop one, push `1 - s`.
    Not,
}

/// One `(predicate, table)` selectivity factor, compiled.
#[derive(Debug, Clone, PartialEq)]
struct FactorProgram {
    /// Index of the factor's table in the shape's `tables` vector.
    table_index: u16,
    /// Statistics slot of that table (its row count is the clamp floor).
    table: u32,
    /// Postfix ops; a fully folded factor is a single `Const`.
    ops: Vec<SelOp>,
}

/// A compiled selectivity program for one template: evaluates every
/// factor of the template's `filter_sel`s in one flat pass, writing
/// per-table selectivities bit-identical to what `QueryShape::extract`
/// would compute for the same literals against the catalog the
/// [`ColumnarStats`] mirror.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TemplateSelProgram {
    factors: Vec<FactorProgram>,
    /// Number of tables in the template's shape (length of the output).
    n_tables: u16,
}

impl TemplateSelProgram {
    /// Compile `trace` (recorded against the template's sentinel-parsed
    /// statement) into a flat program over `stats`' slots. `slot_of` maps
    /// a sentinel literal value back to its literal-buffer slot (`None` =
    /// a real constant). Returns `None` when a factor's table is missing
    /// from the shape or the statistics — callers fall back to the
    /// interpreted path.
    pub fn compile(
        trace: &SelTrace,
        shape: &QueryShape,
        stats: &mut ColumnarStats,
        slot_of: &dyn Fn(&Value) -> Option<(u16, bool)>,
    ) -> Option<TemplateSelProgram> {
        let mut factors = Vec::with_capacity(trace.factors.len());
        for (table, tree) in &trace.factors {
            let table_index = shape.tables.iter().position(|t| &t.table == table)?;
            let tslot = stats.table_slot(table)?;
            let mut ops = Vec::new();
            compile_tree(tree, table, stats, slot_of, &mut ops);
            factors.push(FactorProgram {
                table_index: table_index as u16,
                table: tslot,
                ops,
            });
        }
        Some(TemplateSelProgram {
            factors,
            n_tables: shape.tables.len() as u16,
        })
    }

    /// True when no leaf reads a literal: the template's `filter_sel`s are
    /// the same for every statement (they still follow the statistics).
    pub fn is_constant(&self) -> bool {
        let reads_literal = |leaf: &DynLeaf| match leaf {
            DynLeaf::Cmp { op, value, .. } => {
                !matches!(op, CmpOp::Eq | CmpOp::Ne) && matches!(value, LitRef::Slot { .. })
            }
            DynLeaf::Between { low, high, .. } => {
                matches!(low, LitRef::Slot { .. }) || matches!(high, LitRef::Slot { .. })
            }
            DynLeaf::InList { .. } | DynLeaf::IsNull { .. } | DynLeaf::Fixed(_) => false,
        };
        self.factors.iter().flat_map(|f| &f.ops).all(|op| match op {
            SelOp::Leaf(leaf) => !reads_literal(leaf),
            _ => true,
        })
    }

    /// Evaluate with `literals` bound against `stats`, writing one
    /// `filter_sel` per shape table into `out` (resized and reset by this
    /// call). `stack` is caller scratch, reused across calls to stay
    /// allocation-free at steady state.
    pub fn eval_into(
        &self,
        literals: &[Value],
        stats: &ColumnarStats,
        out: &mut Vec<f64>,
        stack: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(self.n_tables as usize, 1.0);
        for f in &self.factors {
            let rows = stats.rows(f.table);
            stack.clear();
            for op in &f.ops {
                match op {
                    SelOp::Const(s) => stack.push(*s),
                    SelOp::Leaf(leaf) => stack.push(eval_leaf(leaf, literals, stats, rows)),
                    SelOp::AndN(n) => {
                        let at = stack.len() - *n as usize;
                        let mut sel = 1.0;
                        for s in &stack[at..] {
                            sel *= *s;
                        }
                        stack.truncate(at);
                        stack.push(sel.max(1.0 / rows.max(1) as f64));
                    }
                    SelOp::OrN(n) => {
                        let at = stack.len() - *n as usize;
                        let mut not_sel = 1.0;
                        for s in &stack[at..] {
                            not_sel *= 1.0 - *s;
                        }
                        stack.truncate(at);
                        stack.push((1.0 - not_sel).clamp(0.0, 1.0));
                    }
                    SelOp::Not => {
                        let s = stack.pop().expect("well-formed program");
                        stack.push(1.0 - s);
                    }
                }
            }
            debug_assert_eq!(stack.len(), 1, "factor program leaves one value");
            out[f.table_index as usize] *= stack[0];
        }
        for s in out.iter_mut() {
            *s = s.clamp(0.0, 1.0);
        }
    }
}

/// The value of a subtree that reads neither literals nor statistics:
/// only `One` leaves under `Or`/`Not` (an `And` reads the row count for
/// its floor, an atom reads its column). The arithmetic is
/// `SelTree::eval`'s, so folding cannot change bits.
fn const_value(tree: &SelTree) -> Option<f64> {
    match tree {
        SelTree::One => Some(1.0),
        SelTree::Not(inner) => Some(1.0 - const_value(inner)?),
        SelTree::Or(children) => {
            let mut not_sel = 1.0;
            for c in children {
                not_sel *= 1.0 - const_value(c)?;
            }
            Some((1.0 - not_sel).clamp(0.0, 1.0))
        }
        SelTree::And(_) | SelTree::Atom(_) => None,
    }
}

/// Compile one subtree, appending postfix ops.
fn compile_tree(
    tree: &SelTree,
    table: &str,
    stats: &mut ColumnarStats,
    slot_of: &dyn Fn(&Value) -> Option<(u16, bool)>,
    ops: &mut Vec<SelOp>,
) {
    if let Some(v) = const_value(tree) {
        ops.push(SelOp::Const(v));
        return;
    }
    match tree {
        SelTree::And(children) => {
            for c in children {
                compile_tree(c, table, stats, slot_of, ops);
            }
            ops.push(SelOp::AndN(children.len() as u16));
        }
        SelTree::Or(children) => {
            for c in children {
                compile_tree(c, table, stats, slot_of, ops);
            }
            ops.push(SelOp::OrN(children.len() as u16));
        }
        SelTree::Not(inner) => {
            compile_tree(inner, table, stats, slot_of, ops);
            ops.push(SelOp::Not);
        }
        SelTree::Atom(atom) => ops.push(SelOp::Leaf(leaf_for(atom, table, stats, slot_of))),
        SelTree::One => unreachable!("`One` always folds"),
    }
}

/// The leaf for one atom, mirroring the dispatch of `atom_selectivity`.
fn leaf_for(
    atom: &AtomicPredicate,
    table: &str,
    stats: &mut ColumnarStats,
    slot_of: &dyn Fn(&Value) -> Option<(u16, bool)>,
) -> DynLeaf {
    let col = stats.slot_for_atom(table, atom);
    match atom {
        AtomicPredicate::Cmp { op, value, .. } => DynLeaf::Cmp {
            col,
            op: *op,
            value: lit_ref(value, slot_of),
        },
        AtomicPredicate::Between {
            low, high, negated, ..
        } => DynLeaf::Between {
            col,
            low: lit_ref(low, slot_of),
            high: lit_ref(high, slot_of),
            negated: *negated,
        },
        AtomicPredicate::InList {
            values, negated, ..
        } => DynLeaf::InList {
            col,
            len: values.len(),
            negated: *negated,
        },
        AtomicPredicate::IsNull { negated, .. } => DynLeaf::IsNull {
            col,
            negated: *negated,
        },
        AtomicPredicate::Like {
            pattern, negated, ..
        } => DynLeaf::Fixed(like_selectivity(pattern, *negated)),
        AtomicPredicate::JoinEq { .. } => DynLeaf::Fixed(DEFAULT_EQ_SEL),
        AtomicPredicate::Opaque { .. } => DynLeaf::Fixed(DEFAULT_OPAQUE_SEL),
    }
}

fn lit_ref(v: &Value, slot_of: &dyn Fn(&Value) -> Option<(u16, bool)>) -> LitRef {
    match slot_of(v) {
        Some((slot, negate)) => LitRef::Slot { slot, negate },
        None => LitRef::Const(v.clone()),
    }
}

fn eval_leaf(leaf: &DynLeaf, literals: &[Value], stats: &ColumnarStats, rows: u64) -> f64 {
    let column = |col: &Option<u32>| col.map(|c| stats.column(c));
    let sel = match leaf {
        DynLeaf::Cmp { col, op, value } => {
            with_lit(value, literals, |v| cmp_selectivity(column(col), *op, v))
        }
        DynLeaf::Between {
            col,
            low,
            high,
            negated,
        } => with_lit(low, literals, |lo| {
            with_lit(high, literals, |hi| {
                between_selectivity(column(col), lo, hi, *negated)
            })
        }),
        DynLeaf::InList { col, len, negated } => in_list_selectivity(column(col), *len, *negated),
        DynLeaf::IsNull { col, negated } => is_null_selectivity(column(col), *negated),
        DynLeaf::Fixed(sel) => *sel,
    };
    // The interpreted path clamps each atom via `atom_selectivity`.
    clamp_sel(sel, rows)
}

/// Resolve a `LitRef` to a `&Value` without heap allocation: slots borrow
/// from the literal buffer; negated slots materialise a stack-only
/// `Int`/`Float` (the bind guards reject negated non-numeric literals).
fn with_lit<R>(r: &LitRef, literals: &[Value], f: impl FnOnce(&Value) -> R) -> R {
    match r {
        LitRef::Const(v) => f(v),
        LitRef::Slot {
            slot,
            negate: false,
        } => f(&literals[*slot as usize]),
        LitRef::Slot { slot, negate: true } => match &literals[*slot as usize] {
            Value::Int(i) => f(&Value::Int(-i)),
            Value::Float(x) => f(&Value::Float(-x)),
            other => f(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_sql::parse_statement;
    use autoindex_storage::catalog::{Column as Col, TableBuilder};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("account", 100_000)
                .column(Col::int("id", 100_000))
                .column(Col::int("branch", 100))
                .column(Col::float("balance", 5_000, 0.0, 1_000_000.0))
                .column(Col::text("owner", 90_000, 16))
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("branch", 100)
                .column(Col::int("bid", 100))
                .column(Col::int("region", 10))
                .build()
                .unwrap(),
        );
        c
    }

    #[test]
    fn columnar_stats_resolve_slots() {
        let c = catalog();
        let s = ColumnarStats::build(&c);
        assert_eq!(s.len(), 6);
        let slot = s.slot("account", "balance").unwrap();
        assert_eq!(s.column(slot).name, "balance");
        assert_eq!(s.table_rows(slot), 100_000);
        assert!(s.slot("account", "ghost").is_none());
        assert!(s.slot("ghost", "id").is_none());
        // Same-named columns on different tables get distinct slots.
        assert_ne!(
            s.slot("account", "id"),
            s.slot("branch", "bid"),
            "distinct slots"
        );
    }

    #[test]
    fn columnar_build_is_deterministic() {
        let c = catalog();
        let a = ColumnarStats::build(&c);
        let b = ColumnarStats::build(&c);
        assert_eq!(a.slot("account", "balance"), b.slot("account", "balance"));
        assert_eq!(a.cols, b.cols);
        assert_eq!(a.rows, b.rows);
    }

    /// Compile a template's trace with sentinels standing in for the
    /// literals, then check that evaluating the program with *real*
    /// literals reproduces `QueryShape::extract` on the real statement,
    /// bit for bit.
    fn assert_program_matches(template_sql: &str, real_sql: &str, literals: Vec<Value>) {
        const SENTINEL_BASE: i64 = 9_100_000_000_000_000;
        let c = catalog();
        let tmpl = parse_statement(template_sql).unwrap();
        let (shape, trace) = QueryShape::extract_traced(&tmpl, &c);
        let mut stats = ColumnarStats::build(&c);
        let slot_of = |v: &Value| -> Option<(u16, bool)> {
            match v {
                Value::Int(i) if *i >= SENTINEL_BASE => Some(((*i - SENTINEL_BASE) as u16, false)),
                Value::Int(i) if *i <= -SENTINEL_BASE => Some(((-*i - SENTINEL_BASE) as u16, true)),
                _ => None,
            }
        };
        let prog =
            TemplateSelProgram::compile(&trace, &shape, &mut stats, &slot_of).expect("compiles");
        let mut out = Vec::new();
        let mut stack = Vec::new();
        prog.eval_into(&literals, &stats, &mut out, &mut stack);

        let real = parse_statement(real_sql).unwrap();
        let expect = QueryShape::extract(&real, &c);
        assert_eq!(out.len(), expect.tables.len());
        for (i, t) in expect.tables.iter().enumerate() {
            assert_eq!(
                out[i].to_bits(),
                t.filter_sel.to_bits(),
                "filter_sel drift on table {} ({} vs {})",
                t.table,
                out[i],
                t.filter_sel
            );
        }
    }

    #[test]
    fn program_reproduces_interpreted_filter_sel() {
        // Slot k is encoded as SENTINEL_BASE + k in the template text.
        assert_program_matches(
            "SELECT * FROM account WHERE branch = 9100000000000000 AND \
             balance > 9100000000000001",
            "SELECT * FROM account WHERE branch = 7 AND balance > 250000",
            vec![Value::Int(7), Value::Int(250_000)],
        );
        assert_program_matches(
            "SELECT * FROM account WHERE balance BETWEEN 9100000000000000 AND 9100000000000001",
            "SELECT * FROM account WHERE balance BETWEEN 1000 AND 90000",
            vec![Value::Int(1000), Value::Int(90_000)],
        );
        // OR / NOT structure with a mixed dynamic + constant leaf.
        assert_program_matches(
            "SELECT * FROM account WHERE balance < 9100000000000000 OR NOT (branch = 9100000000000001)",
            "SELECT * FROM account WHERE balance < 5000 OR NOT (branch = 3)",
            vec![Value::Int(5000), Value::Int(3)],
        );
        // Join query touching two tables.
        assert_program_matches(
            "SELECT * FROM account a, branch b WHERE a.branch = b.bid AND \
             b.region = 9100000000000000 AND a.balance >= 9100000000000001",
            "SELECT * FROM account a, branch b WHERE a.branch = b.bid AND \
             b.region = 4 AND a.balance >= 123.5",
            vec![Value::Int(4), Value::Float(123.5)],
        );
    }

    /// Programs compiled before `Catalog::grow_table` and evaluated against
    /// refreshed stats match a fresh extraction on the grown catalog, bit
    /// for bit: `=` on a unique column reads the scaled NDV, a range on a
    /// near-unique numeric column the scaled `max`, and every clamp the
    /// grown row count.
    #[test]
    fn refreshed_stats_track_insert_growth() {
        const SENTINEL_BASE: i64 = 9_100_000_000_000_000;
        let slot_of = |v: &Value| -> Option<(u16, bool)> {
            match v {
                Value::Int(i) if *i >= SENTINEL_BASE => Some(((*i - SENTINEL_BASE) as u16, false)),
                _ => None,
            }
        };
        let mut c = catalog();
        let mut stats = ColumnarStats::build(&c);
        let cases = [
            (
                "SELECT * FROM account WHERE id = 9100000000000000",
                "SELECT * FROM account WHERE id = 4242",
                vec![Value::Int(4242)],
            ),
            (
                "SELECT * FROM account WHERE id > 9100000000000000 AND branch = 9100000000000001",
                "SELECT * FROM account WHERE id > 90000 AND branch = 3",
                vec![Value::Int(90_000), Value::Int(3)],
            ),
            (
                "SELECT * FROM account WHERE id BETWEEN 9100000000000000 AND 9100000000000001",
                "SELECT * FROM account WHERE id BETWEEN 99000 AND 99990",
                vec![Value::Int(99_000), Value::Int(99_990)],
            ),
        ];
        let progs: Vec<TemplateSelProgram> = cases
            .iter()
            .map(|(tmpl, _, _)| {
                let (shape, trace) =
                    QueryShape::extract_traced(&parse_statement(tmpl).unwrap(), &c);
                TemplateSelProgram::compile(&trace, &shape, &mut stats, &slot_of).unwrap()
            })
            .collect();
        let (mut out, mut stack) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            c.grow_table("account", 40_000).unwrap();
            let grown = c.table("account").unwrap();
            let stale = stats.clone();
            assert!(stats.refresh_table(grown, c.version()));
            assert_eq!(stats.version(), c.version());
            for ((_, real, lits), prog) in cases.iter().zip(&progs) {
                let expect = QueryShape::extract(&parse_statement(real).unwrap(), &c);
                prog.eval_into(lits, &stats, &mut out, &mut stack);
                assert_eq!(
                    out[0].to_bits(),
                    expect.tables[0].filter_sel.to_bits(),
                    "{real}"
                );
                // The stale stats give a different answer: the refresh is
                // what keeps the program current.
                prog.eval_into(lits, &stale, &mut out, &mut stack);
                assert_ne!(
                    out[0].to_bits(),
                    expect.tables[0].filter_sel.to_bits(),
                    "{real}"
                );
            }
        }
        // A table the stats never saw, or whose columns changed, is not
        // refreshable: the caller must rebuild.
        let ghost = TableBuilder::new("ghost", 10)
            .column(Col::int("id", 10))
            .build()
            .unwrap();
        assert!(!stats.refresh_table(&ghost, 99));
        let reshaped = TableBuilder::new("branch", 100)
            .column(Col::int("bid", 100))
            .build()
            .unwrap();
        assert!(!stats.refresh_table(&reshaped, 99));
        assert_eq!(
            stats.version(),
            c.version(),
            "failed refreshes change nothing"
        );
    }

    #[test]
    fn negated_slots_evaluate_with_sign_applied() {
        // Template encodes `balance > -$0` as Int(-(SENTINEL_BASE + 0)).
        assert_program_matches(
            "SELECT * FROM account WHERE balance > -9100000000000000",
            "SELECT * FROM account WHERE balance > -50",
            vec![Value::Int(50)],
        );
    }

    #[test]
    fn value_independent_template_is_constant() {
        let c = catalog();
        let tmpl = parse_statement(
            "SELECT * FROM account WHERE branch = 9100000000000000 AND owner IS NOT NULL",
        )
        .unwrap();
        let (shape, trace) = QueryShape::extract_traced(&tmpl, &c);
        let mut stats = ColumnarStats::build(&c);
        // Eq depends only on NDV, IS NULL only on stats: fully foldable.
        let slot_of = |v: &Value| -> Option<(u16, bool)> {
            matches!(v, Value::Int(i) if *i >= 9_100_000_000_000_000).then_some((0, false))
        };
        let prog = TemplateSelProgram::compile(&trace, &shape, &mut stats, &slot_of).unwrap();
        assert!(prog.is_constant(), "Eq + IS NULL folds entirely");
    }

    #[test]
    fn eval_is_allocation_free_on_reused_scratch() {
        let c = catalog();
        let tmpl =
            parse_statement("SELECT * FROM account WHERE balance > 9100000000000000").unwrap();
        let (shape, trace) = QueryShape::extract_traced(&tmpl, &c);
        let mut stats = ColumnarStats::build(&c);
        let slot_of = |v: &Value| -> Option<(u16, bool)> {
            matches!(v, Value::Int(i) if *i >= 9_100_000_000_000_000).then_some((0, false))
        };
        let prog = TemplateSelProgram::compile(&trace, &shape, &mut stats, &slot_of).unwrap();
        let mut out = Vec::with_capacity(4);
        let mut stack = Vec::with_capacity(8);
        // Warm up, then check capacities never grow (proxy for no realloc).
        for v in [10.0, 500_000.0, 999_999.0] {
            prog.eval_into(&[Value::Float(v)], &stats, &mut out, &mut stack);
        }
        let (co, cs) = (out.capacity(), stack.capacity());
        for i in 0..100 {
            prog.eval_into(&[Value::Int(i)], &stats, &mut out, &mut stack);
        }
        assert_eq!(out.capacity(), co);
        assert_eq!(stack.capacity(), cs);
    }
}
