//! Compiled-template query fast path: repeat statements skip the parser.
//!
//! The serving hot path (PR 5) spent most of its per-statement budget on
//! `parse_statement` + `QueryShape::extract` — both allocation-heavy —
//! even though almost every OLTP statement is a repeat of a known
//! template. This module compiles each [`TemplateEntry`] into a bindable
//! *skeleton*: the template's pre-extracted [`QueryShape`] plus the exact
//! positions where literal values go. Executing a repeat statement then
//! costs one fingerprint scan ([`autoindex_sql::fingerprint::scan_fingerprint`],
//! zero-copy), one hash
//! lookup, a handful of slot writes into a reusable shape clone, and one
//! flat selectivity-program evaluation ([`TemplateSelProgram`]) — no
//! parser, no AST, no fresh extraction. Serve and the fleet publish one
//! frozen cache per epoch; `OnlineAutoIndex::feed` owns a live one that
//! compiles templates as the store admits them and follows the catalog's
//! INSERT growth without recompiling.
//!
//! # The sentinel trick
//!
//! Template text stores literals as `$` (see `autoindex_sql::fingerprint`).
//! To learn *where* those literals land in the extracted shape, the
//! compiler replaces the k-th `$` with the integer `SENTINEL_BASE + k`,
//! parses the result once, extracts it with
//! [`QueryShape::extract_traced`], and scans the shape for sentinel
//! values: each occurrence (sign included — `- $` parses to a negated
//! sentinel) becomes a `SlotWrite`. Canonical template text contains no
//! integer literals of its own, so sentinels cannot collide with baked
//! constants.
//!
//! # Bit-identity contract
//!
//! A bound shape must equal what `parse_statement` + `extract` would
//! produce for the concrete statement, **bit for bit** (`filter_sel`
//! included) — the serving determinism contract diffs fast-path-on and
//! fast-path-off transcripts byte-for-byte. Two mechanisms enforce this:
//!
//! * **Eligibility**: only templates whose predicates are AND-only
//!   conjunctions of `Cmp` / `Between` / `IS NULL` / join-equality atoms
//!   compile (no `OR`/`NOT`, no `IN`, no `LIKE`, no subqueries, no derived
//!   tables, no kept string pieces). Everything else misses the cache and
//!   takes the full parse path.
//! * **Bind guards**: conditions whose shape-level effect depends on the
//!   concrete values — duplicate atoms that extraction would dedup, a
//!   `LIMIT` bound to anything but a non-negative integer, a negated slot
//!   bound to a non-numeric — make [`CompiledTemplate::bind_into`] return
//!   `false`, and the caller falls back to the full parse (reproducing
//!   parse errors exactly where the slow path would report them).

use crate::templates::{TemplateEntry, TemplateStore};
use autoindex_estimator::{ColumnarStats, TemplateSelProgram};
use autoindex_sql::ast::{Predicate, SelectStatement, Statement, TableRef, Value};
use autoindex_sql::fingerprint::{scan_fingerprint, LiteralBuf};
use autoindex_sql::parse_statement;
use autoindex_sql::predicate::AtomicPredicate;
use autoindex_storage::catalog::Catalog;
use autoindex_storage::shape::{QueryShape, WriteKind};
use autoindex_storage::{ExecOutcome, SimDb};
use autoindex_support::hash::{U64HashMap, U64HashSet};
use autoindex_support::obs::{Counter, MetricsRegistry};

/// Base of the sentinel literal range. Far above any statistics value a
/// catalog produces and high enough that `SENTINEL_BASE + k` stays well
/// inside `i64` for any realistic slot count.
pub const SENTINEL_BASE: i64 = 9_100_000_000_000_000;

/// Which of a table's three atom collections a slot write targets.
#[derive(Debug, Clone, Copy)]
enum AtomArm {
    Conjunct,
    AllAtom,
    Group,
}

/// Which value field of the targeted atom receives the literal.
#[derive(Debug, Clone, Copy)]
enum ValueField {
    Cmp,
    BetweenLow,
    BetweenHigh,
}

/// One literal destination in the skeleton shape.
#[derive(Debug, Clone, Copy)]
struct SlotWrite {
    table: u16,
    arm: AtomArm,
    /// Group index when `arm == Group`, unused otherwise.
    group: u16,
    atom: u16,
    field: ValueField,
    /// Index into the statement's literal buffer.
    slot: u16,
    /// The template negates this literal (`- $`): bind `Int(-i)`/`Float(-x)`.
    negate: bool,
}

/// A template compiled for the fast path: skeleton shape + slot writes +
/// flat selectivity program.
#[derive(Debug, Clone)]
pub struct CompiledTemplate {
    skeleton: QueryShape,
    writes: Vec<SlotWrite>,
    limit_slot: Option<u16>,
    program: TemplateSelProgram,
    n_slots: usize,
    /// `(table, group)` pairs with two or more atoms: extraction dedups
    /// equal atoms, so a bind that makes two atoms collide must fall back.
    guard_groups: Vec<(u16, u16)>,
}

impl CompiledTemplate {
    /// The sentinel-valued template shape. Workers clone this once per
    /// `(template, epoch)` and re-bind the clone per statement.
    pub fn skeleton(&self) -> &QueryShape {
        &self.skeleton
    }

    /// Number of literals a statement of this template carries.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Bind `lits` into `shape` (a clone of [`Self::skeleton`]) and
    /// recompute its per-table `filter_sel`s through the compiled
    /// program. `sels`/`stack` are caller scratch, reused across calls.
    ///
    /// Returns `false` — leaving `shape` in an unspecified (but
    /// rebindable) state — when a guard trips; the caller must fall back
    /// to the full parse path.
    pub fn bind_into(
        &self,
        lits: &LiteralBuf,
        stats: &ColumnarStats,
        shape: &mut QueryShape,
        sels: &mut Vec<f64>,
        stack: &mut Vec<f64>,
    ) -> bool {
        let vals = &lits.values;
        if vals.len() != self.n_slots {
            return false;
        }
        for w in &self.writes {
            let v = &vals[w.slot as usize];
            let bound = if w.negate {
                // The parser folds `- <literal>` by negating the value and
                // rejects negated strings/NULL/placeholders; reproduce
                // both behaviours (rejection via full-parse fallback).
                match v {
                    Value::Int(i) => Value::Int(-i),
                    Value::Float(f) => Value::Float(-f),
                    _ => return false,
                }
            } else {
                v.clone()
            };
            let t = &mut shape.tables[w.table as usize];
            let atom = match w.arm {
                AtomArm::Conjunct => &mut t.conjuncts[w.atom as usize],
                AtomArm::AllAtom => &mut t.all_atoms[w.atom as usize],
                AtomArm::Group => &mut t.conjunct_groups[w.group as usize][w.atom as usize],
            };
            match (w.field, atom) {
                (ValueField::Cmp, AtomicPredicate::Cmp { value, .. }) => *value = bound,
                (ValueField::BetweenLow, AtomicPredicate::Between { low, .. }) => *low = bound,
                (ValueField::BetweenHigh, AtomicPredicate::Between { high, .. }) => *high = bound,
                // Unreachable by construction (writes were discovered on
                // this very structure); bail rather than corrupt.
                _ => return false,
            }
        }
        if let Some(k) = self.limit_slot {
            match vals[k as usize] {
                // The parser accepts only a non-negative integer here;
                // anything else is a parse error the fallback reproduces.
                Value::Int(n) if n >= 0 => shape.limit = Some(n as u64),
                _ => return false,
            }
        }
        // Extraction dedups pairwise-equal atoms inside a DNF conjunct
        // group (`conjunct_groups.contains`); with distinct sentinels no
        // two atoms collide, but concrete values can. Fall back so the
        // slow path performs the dedup.
        for &(t, g) in &self.guard_groups {
            let group = &shape.tables[t as usize].conjunct_groups[g as usize];
            for i in 0..group.len() {
                for j in i + 1..group.len() {
                    if group[i] == group[j] {
                        return false;
                    }
                }
            }
        }
        self.program.eval_into(vals, stats, sels, stack);
        for (i, t) in shape.tables.iter_mut().enumerate() {
            t.filter_sel = sels[i];
        }
        true
    }

    /// Compile `text` (canonical template text) against `catalog`.
    /// `None` means the template is ineligible — it will simply miss the
    /// cache and take the full parse path.
    fn compile(
        text: &str,
        catalog: &Catalog,
        stats: &mut ColumnarStats,
    ) -> Option<CompiledTemplate> {
        // Kept string pieces (LIKE patterns) and raw placeholders cannot
        // be sentinel-substituted.
        if text.contains('\'') || text.contains('?') {
            return None;
        }
        let n_slots = text.bytes().filter(|&b| b == b'$').count();
        if n_slots > u16::MAX as usize {
            return None;
        }
        // Replace the k-th `$` with its sentinel integer and parse once.
        let mut sentinel_text = String::with_capacity(text.len() + 20 * n_slots);
        for (k, piece) in text.split('$').enumerate() {
            if k > 0 {
                sentinel_text.push_str(&(SENTINEL_BASE + (k as i64 - 1)).to_string());
            }
            sentinel_text.push_str(piece);
        }
        let stmt = parse_statement(&sentinel_text).ok()?;
        if !statement_eligible(&stmt) {
            return None;
        }
        let (skeleton, trace) = QueryShape::extract_traced(&stmt, catalog);

        // Discover every sentinel occurrence in the shape. The scan walks
        // every `Value`-bearing field `QueryShape` has, so a sentinel
        // cannot hide anywhere a bind would miss.
        let sentinel_of = |v: &Value| -> Option<(u16, bool)> {
            match v {
                Value::Int(i) if *i >= SENTINEL_BASE && (*i - SENTINEL_BASE) < n_slots as i64 => {
                    Some(((*i - SENTINEL_BASE) as u16, false))
                }
                Value::Int(i) if *i <= -SENTINEL_BASE && (-*i - SENTINEL_BASE) < n_slots as i64 => {
                    Some(((-*i - SENTINEL_BASE) as u16, true))
                }
                _ => None,
            }
        };
        let mut writes = Vec::new();
        let mut guard_groups = Vec::new();
        for (ti, table) in skeleton.tables.iter().enumerate() {
            let arms = [
                (AtomArm::Conjunct, &table.conjuncts),
                (AtomArm::AllAtom, &table.all_atoms),
            ];
            for (arm, atoms) in arms {
                for (ai, atom) in atoms.iter().enumerate() {
                    scan_atom(atom, ti, arm, 0, ai, &sentinel_of, &mut writes)?;
                }
            }
            for (gi, group) in table.conjunct_groups.iter().enumerate() {
                if group.len() > 1 {
                    guard_groups.push((ti as u16, gi as u16));
                }
                for (ai, atom) in group.iter().enumerate() {
                    scan_atom(atom, ti, AtomArm::Group, gi, ai, &sentinel_of, &mut writes)?;
                }
            }
        }
        let limit_slot = match skeleton.limit {
            Some(l) => {
                let (slot, negate) = sentinel_of(&Value::Int(i64::try_from(l).ok()?))?;
                if negate {
                    return None;
                }
                Some(slot)
            }
            None => None,
        };

        let program = TemplateSelProgram::compile(&trace, &skeleton, stats, &sentinel_of)?;
        Some(CompiledTemplate {
            skeleton,
            writes,
            limit_slot,
            program,
            n_slots,
            guard_groups,
        })
    }
}

/// Scan one atom for sentinel values, appending slot writes. Returns
/// `None` (compile failure) if a sentinel sits in a field binds cannot
/// write, or the atom kind should have been ruled out by eligibility.
fn scan_atom(
    atom: &AtomicPredicate,
    table: usize,
    arm: AtomArm,
    group: usize,
    idx: usize,
    sentinel_of: &dyn Fn(&Value) -> Option<(u16, bool)>,
    writes: &mut Vec<SlotWrite>,
) -> Option<()> {
    let mut push = |field: ValueField, v: &Value| -> Option<()> {
        if let Some((slot, negate)) = sentinel_of(v) {
            writes.push(SlotWrite {
                table: table as u16,
                arm,
                group: group as u16,
                atom: idx as u16,
                field,
                slot,
                negate,
            });
        }
        Some(())
    };
    match atom {
        AtomicPredicate::Cmp { value, .. } => push(ValueField::Cmp, value),
        AtomicPredicate::Between { low, high, .. } => {
            push(ValueField::BetweenLow, low)?;
            push(ValueField::BetweenHigh, high)
        }
        AtomicPredicate::IsNull { .. } | AtomicPredicate::JoinEq { .. } => Some(()),
        // `Opaque` carries no `Value` (self-compare hints only, after
        // eligibility); `InList`/`Like` should have been ruled out.
        AtomicPredicate::Opaque { .. } => Some(()),
        AtomicPredicate::InList { .. } | AtomicPredicate::Like { .. } => None,
    }
}

/// AND-only eligibility over a whole statement (see module docs).
fn statement_eligible(stmt: &Statement) -> bool {
    match stmt {
        Statement::Select(s) => select_eligible(s),
        Statement::Insert(_) => true,
        Statement::Update(u) => u.where_clause.as_ref().is_none_or(predicate_eligible),
        Statement::Delete(d) => d.where_clause.as_ref().is_none_or(predicate_eligible),
    }
}

fn select_eligible(s: &SelectStatement) -> bool {
    let base_from = s.from.iter().all(|t| matches!(t, TableRef::Table { .. }));
    let base_joins = s
        .joins
        .iter()
        .all(|j| matches!(j.relation, TableRef::Table { .. }));
    let on_ok = s
        .joins
        .iter()
        .all(|j| j.on.as_ref().is_none_or(predicate_eligible));
    base_from
        && base_joins
        && on_ok
        && s.where_clause.as_ref().is_none_or(predicate_eligible)
        && s.having.as_ref().is_none_or(predicate_eligible)
}

fn predicate_eligible(p: &Predicate) -> bool {
    match p {
        Predicate::And(ps) => ps.iter().all(predicate_eligible),
        Predicate::Cmp { .. } | Predicate::JoinEq { .. } | Predicate::Between { .. } => true,
        Predicate::IsNull { .. } => true,
        Predicate::Or(_)
        | Predicate::Not(_)
        | Predicate::InList { .. }
        | Predicate::Like { .. }
        | Predicate::Exists { .. }
        | Predicate::InSubquery { .. }
        | Predicate::AggCmp { .. } => false,
    }
}

/// A cache of compiled templates, keyed by fingerprint hash, with the
/// [`ColumnarStats`] their selectivity programs read.
///
/// The serving tuner builds one per epoch boundary from the template store
/// ([`FastPathCache::build`]) and publishes it alongside the snapshot;
/// workers treat it as read-only shared state, so hit/miss behaviour is a
/// pure function of `(stream, caches)` — invariant under worker count.
/// The online loop fills one lazily instead, one template per admission,
/// and keeps it current with its live catalog (see `docs/PERFORMANCE.md`
/// §"The online fast path").
/// Programs hold statistics slots, not statistics, so both uses run the
/// same compiled code.
#[derive(Debug, Default)]
pub struct FastPathCache {
    entries: U64HashMap<CompiledTemplate>,
    /// Hashes whose templates did not compile, remembered so a lazily
    /// filled cache does not retry them.
    ineligible: U64HashSet,
    stats: ColumnarStats,
    /// Whether `stats` mirrors a catalog yet (a lazily filled cache builds
    /// them on its first compile).
    resolved: bool,
}

impl FastPathCache {
    /// An empty cache: every lookup misses (fast path disabled).
    pub fn empty() -> Self {
        FastPathCache::default()
    }

    /// Compile every eligible template against `catalog`. Iteration is
    /// id-ordered so compilation order is deterministic.
    pub fn build<'a>(
        templates: impl Iterator<Item = (u64, &'a TemplateEntry)>,
        catalog: &Catalog,
    ) -> Self {
        let mut sorted: Vec<(u64, &TemplateEntry)> = templates.collect();
        sorted.sort_by_key(|(_, e)| e.id);
        let mut cache = FastPathCache {
            entries: U64HashMap::with_capacity_and_hasher(sorted.len(), Default::default()),
            ..FastPathCache::default()
        };
        for (hash, entry) in sorted {
            cache.compile(hash, &entry.text, catalog);
        }
        cache
    }

    /// Compile template `text` under `hash` against `catalog`, building
    /// the statistics first if this cache has none that mirror it. An
    /// ineligible template is remembered ([`FastPathCache::knows`]).
    /// Returns whether it compiled.
    pub(crate) fn compile(&mut self, hash: u64, text: &str, catalog: &Catalog) -> bool {
        if !self.resolved || self.stats.version() != catalog.version() {
            self.clear();
            self.stats = ColumnarStats::build(catalog);
            self.resolved = true;
        }
        match CompiledTemplate::compile(text, catalog, &mut self.stats) {
            Some(c) => {
                self.entries.insert(hash, c);
                true
            }
            None => {
                self.ineligible.insert(hash);
                false
            }
        }
    }

    /// Bring the statistics in line with `catalog` after the caller's own
    /// statement ran. `grown` names the table an INSERT grew: if that
    /// growth is the catalog's only change since the stats were resolved,
    /// its slots are refreshed in place and every compiled template stays.
    /// Any other change empties the cache (templates recompile on their
    /// next admission). Returns `false` when the cache was emptied.
    pub(crate) fn sync(&mut self, catalog: &Catalog, grown: Option<&str>) -> bool {
        let version = catalog.version();
        if !self.resolved || self.stats.version() == version {
            return true;
        }
        let refreshed = self.stats.version() + 1 == version
            && grown
                .and_then(|t| catalog.table(t))
                .is_some_and(|t| self.stats.refresh_table(t, version));
        if !refreshed {
            self.clear();
        }
        refreshed
    }

    /// Drop every compiled template, remembered ineligible hash and the
    /// statistics.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.ineligible.clear();
        self.stats = ColumnarStats::default();
        self.resolved = false;
    }

    /// Keep only the templates (compiled or ineligible) whose hash passes
    /// `keep`.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u64) -> bool) {
        self.entries.retain(|h, _| keep(*h));
        self.ineligible.retain(|h| keep(*h));
    }

    /// Look up the compiled template for a fingerprint hash.
    pub fn get(&self, hash: u64) -> Option<&CompiledTemplate> {
        self.entries.get(&hash)
    }

    /// Whether `hash` was compiled or found ineligible.
    pub(crate) fn knows(&self, hash: u64) -> bool {
        self.entries.contains_key(&hash) || self.ineligible.contains(&hash)
    }

    /// The columnar statistics compiled programs evaluate against.
    pub fn stats(&self) -> &ColumnarStats {
        &self.stats
    }

    /// Number of compiled templates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing compiled (or the cache is the disabled stub).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Templates that were observed but did not compile.
    pub fn ineligible(&self) -> usize {
        self.ineligible.len()
    }
}

/// Per-thread scratch for binding statements into a cache's compiled
/// templates: the literal buffer, one bindable skeleton clone per template
/// and the selectivity-program buffers. Skeleton clones are valid only
/// against the cache they were cloned from, so the owner clears them
/// whenever that cache changes. At steady state — same cache, repeat
/// templates — a bind performs **zero heap allocations**
/// (integer/float literals; string literals clone into reused `Value`s).
#[derive(Debug, Default)]
pub(crate) struct BindScratch {
    lits: LiteralBuf,
    shapes: U64HashMap<QueryShape>,
    sels: Vec<f64>,
    stack: Vec<f64>,
}

/// How one statement met a cache ([`BindScratch::bind`]).
pub(crate) enum Bound<'a> {
    /// Bound into its template's reusable shape.
    Hit { hash: u64, shape: &'a QueryShape },
    /// No compiled template; carries the scanned hash when the scan
    /// succeeded.
    Miss(Option<u64>),
    /// A bind guard tripped: the statement's shape (or parseability)
    /// depends on its concrete values.
    Fallback,
}

impl BindScratch {
    /// Scan `sql`, look its template up in `cache` and bind its literals
    /// into the template's reusable shape. The caller takes the parse
    /// path on anything but a hit; a stale partial bind stays reusable.
    pub(crate) fn bind(&mut self, cache: &FastPathCache, sql: &str) -> Bound<'_> {
        let Some(hash) = scan_fingerprint(sql, &mut self.lits) else {
            return Bound::Miss(None);
        };
        let Some(compiled) = cache.get(hash) else {
            return Bound::Miss(Some(hash));
        };
        let shape = self
            .shapes
            .entry(hash)
            .or_insert_with(|| compiled.skeleton().clone());
        if compiled.bind_into(
            &self.lits,
            cache.stats(),
            shape,
            &mut self.sels,
            &mut self.stack,
        ) {
            Bound::Hit { hash, shape }
        } else {
            Bound::Fallback
        }
    }

    /// Drop the skeleton clones (their cache changed).
    pub(crate) fn clear(&mut self) {
        self.shapes.clear();
    }
}

/// The online loop's fast path: a lazily filled [`FastPathCache`] kept
/// current with the live catalog, its bind scratch and the
/// `sql.fastpath.*` counters (same meaning as in serve: a tripped bind
/// guard counts as a fallback *and* a miss).
#[derive(Debug)]
pub(crate) struct LiveFastPath {
    cache: FastPathCache,
    scratch: BindScratch,
    hits: Counter,
    misses: Counter,
    fallbacks: Counter,
}

impl LiveFastPath {
    /// An empty fast path counting into `metrics`. Compiles nothing.
    pub(crate) fn new(metrics: &MetricsRegistry) -> Self {
        LiveFastPath {
            cache: FastPathCache::empty(),
            scratch: BindScratch::default(),
            hits: metrics.counter("sql.fastpath.hits"),
            misses: metrics.counter("sql.fastpath.misses"),
            fallbacks: metrics.counter("sql.fastpath.fallbacks"),
        }
    }

    /// Execute `sql` through its compiled template: scan, bind into the
    /// template's reusable shape, execute. On a hit returns the
    /// fingerprint hash with the outcome. On a miss returns the scanned
    /// hash when the template is not compiled (the caller runs the parse
    /// path, then offers it to [`LiveFastPath::admit`]); a failed scan or
    /// a tripped bind guard returns `None`.
    pub(crate) fn execute(
        &mut self,
        sql: &str,
        db: &mut SimDb,
    ) -> Result<(u64, ExecOutcome), Option<u64>> {
        self.sync(db.catalog(), None);
        match self.scratch.bind(&self.cache, sql) {
            Bound::Hit { hash, shape } => {
                self.hits.incr();
                let outcome = db.execute_shape(shape);
                if !self.cache.sync(db.catalog(), insert_target(shape)) {
                    self.scratch.clear();
                }
                Ok((hash, outcome))
            }
            Bound::Miss(hash) => {
                self.misses.incr();
                Err(hash)
            }
            Bound::Fallback => {
                self.fallbacks.incr();
                self.misses.incr();
                Err(None)
            }
        }
    }

    /// Keep the statistics current after the parse path executed `shape`.
    pub(crate) fn executed(&mut self, catalog: &Catalog, shape: &QueryShape) {
        self.sync(catalog, insert_target(shape));
    }

    /// Compile the template behind a missed `hash` once the store holds
    /// it, and bound the cache by the store: templates the store has
    /// evicted or decayed away are dropped when the cache outgrows it.
    pub(crate) fn admit(&mut self, hash: u64, store: &TemplateStore, catalog: &Catalog) {
        if self.cache.knows(hash) {
            return;
        }
        let Some(entry) = store.get(hash) else {
            return;
        };
        self.sync(catalog, None);
        self.cache.compile(hash, &entry.text, catalog);
        if self.cache.len() + self.cache.ineligible() > store.len() {
            self.cache.retain(|h| store.get(h).is_some());
            self.scratch.clear();
        }
    }

    /// Drop everything compiled (the catalog may be edited behind the
    /// loop's back).
    pub(crate) fn clear(&mut self) {
        self.cache.clear();
        self.scratch.clear();
    }

    fn sync(&mut self, catalog: &Catalog, grown: Option<&str>) {
        if !self.cache.sync(catalog, grown) {
            self.scratch.clear();
        }
    }
}

/// The table an INSERT shape grows.
fn insert_target(shape: &QueryShape) -> Option<&str> {
    shape
        .write
        .as_ref()
        .filter(|w| w.kind == WriteKind::Insert)
        .map(|w| w.table.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoindex_sql::fingerprint::{fingerprint, scan_fingerprint};
    use autoindex_storage::catalog::{Column, TableBuilder};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            TableBuilder::new("accounts", 500_000)
                .column(Column::int("id", 500_000))
                .column(Column::int("balance", 40_000))
                .column(Column::int("branch", 512))
                .column(Column::text("owner", 300_000, 24))
                .primary_key(&["id"])
                .build()
                .unwrap(),
        );
        c.add_table(
            TableBuilder::new("tellers", 5_000)
                .column(Column::int("id", 5_000))
                .column(Column::int("branch", 512))
                .build()
                .unwrap(),
        );
        c
    }

    fn compile_sql(sql: &str, cat: &Catalog) -> Option<(CompiledTemplate, u64)> {
        let fp = fingerprint(sql).unwrap();
        let mut stats = ColumnarStats::build(cat);
        CompiledTemplate::compile(&fp.text, cat, &mut stats).map(|c| (c, fp.hash))
    }

    /// Bind `sql`'s literals through the compiled template and assert the
    /// result is bit-identical to a full parse + extract.
    fn assert_bind_matches(template_sql: &str, sql: &str, cat: &Catalog) {
        let fp = fingerprint(template_sql).unwrap();
        let mut stats = ColumnarStats::build(cat);
        let compiled = CompiledTemplate::compile(&fp.text, cat, &mut stats)
            .unwrap_or_else(|| panic!("template should compile: {}", fp.text));
        assert_eq!(fingerprint(sql).unwrap().hash, fp.hash, "same template");

        let mut lits = LiteralBuf::default();
        scan_fingerprint(sql, &mut lits).unwrap();
        let mut shape = compiled.skeleton().clone();
        let (mut sels, mut stack) = (Vec::new(), Vec::new());
        assert!(
            compiled.bind_into(&lits, &stats, &mut shape, &mut sels, &mut stack),
            "bind should succeed for {sql}"
        );

        let expected = QueryShape::extract(&parse_statement(sql).unwrap(), cat);
        assert_eq!(shape, expected, "bound shape mismatch for {sql}");
        for (b, e) in shape.tables.iter().zip(expected.tables.iter()) {
            assert_eq!(
                b.filter_sel.to_bits(),
                e.filter_sel.to_bits(),
                "filter_sel bits for {} in {sql}",
                b.table
            );
        }
    }

    #[test]
    fn bind_reproduces_full_extraction_bit_for_bit() {
        let cat = catalog();
        let cases = [
            (
                "SELECT * FROM accounts WHERE id = 7",
                "SELECT * FROM accounts WHERE id = 992",
            ),
            (
                "SELECT balance FROM accounts WHERE branch = 3 AND balance > 100 LIMIT 10",
                "SELECT balance FROM accounts WHERE branch = 77 AND balance > 3200 LIMIT 5",
            ),
            (
                "SELECT * FROM accounts WHERE balance BETWEEN 5 AND 10",
                "SELECT * FROM accounts WHERE balance BETWEEN 250 AND 8000",
            ),
            (
                "SELECT * FROM accounts WHERE balance = -5",
                "SELECT * FROM accounts WHERE balance = -999",
            ),
            (
                "SELECT * FROM accounts WHERE owner = 'a' AND branch = 1",
                "SELECT * FROM accounts WHERE owner = 'pat' AND branch = 9",
            ),
            (
                "SELECT a.id FROM accounts a JOIN tellers t ON a.branch = t.branch \
                 WHERE t.id = 5 AND a.balance >= 100",
                "SELECT a.id FROM accounts a JOIN tellers t ON a.branch = t.branch \
                 WHERE t.id = 4999 AND a.balance >= 1",
            ),
            (
                "UPDATE accounts SET balance = 10 WHERE id = 3",
                "UPDATE accounts SET balance = 77777 WHERE id = 123456",
            ),
            (
                "DELETE FROM tellers WHERE id = 1",
                "DELETE FROM tellers WHERE id = 44",
            ),
            (
                "INSERT INTO tellers (id, branch) VALUES (1, 2)",
                "INSERT INTO tellers (id, branch) VALUES (900, 12)",
            ),
            (
                "SELECT * FROM accounts WHERE owner IS NULL AND balance < 10",
                "SELECT * FROM accounts WHERE owner IS NULL AND balance < 42",
            ),
        ];
        for (template, concrete) in cases {
            assert_bind_matches(template, concrete, &cat);
        }
    }

    #[test]
    fn ineligible_templates_do_not_compile() {
        let cat = catalog();
        for sql in [
            "SELECT * FROM accounts WHERE branch = 1 OR branch = 2",
            "SELECT * FROM accounts WHERE NOT branch = 1",
            "SELECT * FROM accounts WHERE branch IN (1, 2, 3)",
            "SELECT * FROM accounts WHERE owner LIKE 'a%'",
            "SELECT * FROM accounts WHERE EXISTS (SELECT id FROM tellers WHERE id = 1)",
            "SELECT * FROM accounts WHERE id IN (SELECT id FROM tellers WHERE branch = 1)",
            "SELECT * FROM (SELECT id FROM accounts WHERE id = 1) s",
        ] {
            assert!(
                compile_sql(sql, &cat).is_none(),
                "should not compile: {sql}"
            );
        }
    }

    #[test]
    fn bind_guards_fall_back() {
        let cat = catalog();
        let (compiled, _) = compile_sql(
            "SELECT * FROM accounts WHERE branch = 1 AND branch = 2",
            &cat,
        )
        .unwrap();
        let stats = ColumnarStats::build(&cat);
        let (mut sels, mut stack) = (Vec::new(), Vec::new());
        let mut shape = compiled.skeleton().clone();

        // Colliding values: extraction would dedup the conjunct group.
        let mut lits = LiteralBuf::default();
        scan_fingerprint(
            "SELECT * FROM accounts WHERE branch = 5 AND branch = 5",
            &mut lits,
        )
        .unwrap();
        assert!(!compiled.bind_into(&lits, &stats, &mut shape, &mut sels, &mut stack));

        // Distinct values still bind (and match the slow path).
        assert_bind_matches(
            "SELECT * FROM accounts WHERE branch = 1 AND branch = 2",
            "SELECT * FROM accounts WHERE branch = 5 AND branch = 6",
            &cat,
        );

        // Slot-count mismatch.
        let mut lits = LiteralBuf::default();
        scan_fingerprint("SELECT * FROM accounts WHERE branch = 5", &mut lits).unwrap();
        assert!(!compiled.bind_into(&lits, &stats, &mut shape, &mut sels, &mut stack));

        // LIMIT must bind a non-negative integer (the parser rejects the
        // rest — the fallback reproduces the parse error).
        let (limited, _) =
            compile_sql("SELECT * FROM accounts WHERE id = 1 LIMIT 10", &cat).unwrap();
        let mut shape = limited.skeleton().clone();
        let mut lits = LiteralBuf::default();
        scan_fingerprint("SELECT * FROM accounts WHERE id = 1 LIMIT 2.5", &mut lits).unwrap();
        assert!(!limited.bind_into(&lits, &stats, &mut shape, &mut sels, &mut stack));

        // A negated slot cannot bind a string.
        let (neg, _) = compile_sql("SELECT * FROM accounts WHERE balance = -5", &cat).unwrap();
        let mut shape = neg.skeleton().clone();
        let mut lits = LiteralBuf::default();
        lits.values.clear();
        lits.values.push(Value::Str("x".into()));
        assert!(!neg.bind_into(&lits, &stats, &mut shape, &mut sels, &mut stack));
    }

    #[test]
    fn rebinding_the_same_scratch_shape_is_stable() {
        let cat = catalog();
        let (compiled, _) = compile_sql(
            "SELECT balance FROM accounts WHERE branch = 3 AND balance > 100 LIMIT 10",
            &cat,
        )
        .unwrap();
        let stats = ColumnarStats::build(&cat);
        let mut shape = compiled.skeleton().clone();
        let (mut sels, mut stack) = (Vec::new(), Vec::new());
        for i in 0..5i64 {
            let sql = format!(
                "SELECT balance FROM accounts WHERE branch = {} AND balance > {} LIMIT {}",
                i,
                i * 1000,
                i + 1
            );
            let mut lits = LiteralBuf::default();
            scan_fingerprint(&sql, &mut lits).unwrap();
            assert!(compiled.bind_into(&lits, &stats, &mut shape, &mut sels, &mut stack));
            let expected = QueryShape::extract(&parse_statement(&sql).unwrap(), &cat);
            assert_eq!(shape, expected, "rebind {i}");
        }
    }

    /// Bind through `cache` and compare with parse + extract against
    /// `cat`, bit for bit.
    fn assert_cache_bind_matches(cache: &FastPathCache, sql: &str, cat: &Catalog) {
        let mut lits = LiteralBuf::default();
        let hash = scan_fingerprint(sql, &mut lits).unwrap();
        let compiled = cache.get(hash).expect("compiled");
        let mut shape = compiled.skeleton().clone();
        let (mut sels, mut stack) = (Vec::new(), Vec::new());
        assert!(compiled.bind_into(&lits, cache.stats(), &mut shape, &mut sels, &mut stack));
        let expected = QueryShape::extract(&parse_statement(sql).unwrap(), cat);
        assert_eq!(shape, expected, "{sql}");
        for (b, e) in shape.tables.iter().zip(&expected.tables) {
            assert_eq!(b.filter_sel.to_bits(), e.filter_sel.to_bits(), "{sql}");
        }
    }

    #[test]
    fn growth_refresh_keeps_compiled_templates_exact_and_edits_drop_them() {
        let mut cat = catalog();
        let mut cache = FastPathCache::empty();
        let templates = [
            "SELECT * FROM accounts WHERE id = 1",
            "SELECT balance FROM accounts WHERE id > 1 AND branch = 2",
            "SELECT * FROM accounts WHERE id BETWEEN 1 AND 2 LIMIT 3",
        ];
        for t in templates {
            let fp = fingerprint(t).unwrap();
            assert!(cache.compile(fp.hash, &fp.text, &cat), "{t}");
        }
        let concrete = [
            "SELECT * FROM accounts WHERE id = 77",
            "SELECT balance FROM accounts WHERE id > 450000 AND branch = 9",
            "SELECT * FROM accounts WHERE id BETWEEN 499000 AND 640000 LIMIT 5",
        ];
        for _ in 0..4 {
            // INSERT growth scales rows, the unique `id`'s NDV and its
            // numeric max; the refresh tracks all three in place.
            cat.grow_table("accounts", 125_000).unwrap();
            assert!(cache.sync(&cat, Some("accounts")));
            assert_eq!(cache.len(), templates.len(), "growth recompiles nothing");
            assert_eq!(cache.stats().version(), cat.version());
            for sql in concrete {
                assert_cache_bind_matches(&cache, sql, &cat);
            }
        }
        // Growth the caller does not vouch for, two changes at once, a
        // statistics edit, a schema edit: each drops the cache.
        type Edit = fn(&mut Catalog) -> Option<&'static str>;
        let edits: [Edit; 4] = [
            |c| {
                c.grow_table("tellers", 10).unwrap();
                None
            },
            |c| {
                c.grow_table("accounts", 10).unwrap();
                c.grow_table("accounts", 10).unwrap();
                Some("accounts")
            },
            |c| {
                c.table_mut("accounts").unwrap().columns[1].stats.ndv = 7.0;
                None
            },
            |c| {
                c.add_table(
                    TableBuilder::new("branches", 512)
                        .column(Column::int("id", 512))
                        .build()
                        .unwrap(),
                );
                None
            },
        ];
        for edit in edits {
            for t in templates {
                let fp = fingerprint(t).unwrap();
                cache.compile(fp.hash, &fp.text, &cat);
            }
            let grown = edit(&mut cat);
            assert!(!cache.sync(&cat, grown));
            assert!(cache.is_empty() && !cache.knows(fingerprint(templates[0]).unwrap().hash));
        }
        // Recompiled against the edited catalog, binds are exact again.
        for t in templates {
            let fp = fingerprint(t).unwrap();
            assert!(cache.compile(fp.hash, &fp.text, &cat));
        }
        for sql in concrete {
            assert_cache_bind_matches(&cache, sql, &cat);
        }
    }

    #[test]
    fn cache_builds_from_template_store() {
        use crate::templates::{TemplateStore, TemplateStoreConfig};
        let cat = catalog();
        let mut store = TemplateStore::new(TemplateStoreConfig::default());
        store
            .observe("SELECT * FROM accounts WHERE id = 1", &cat)
            .unwrap();
        store
            .observe("SELECT * FROM accounts WHERE owner LIKE 'a%'", &cat)
            .unwrap();
        store
            .observe("UPDATE accounts SET balance = 5 WHERE id = 2", &cat)
            .unwrap();
        let cache = FastPathCache::build(store.entries(), &cat);
        assert_eq!(cache.len(), 2, "two eligible templates compile");
        assert_eq!(cache.ineligible(), 1, "the LIKE template is ineligible");
        let hash = fingerprint("SELECT * FROM accounts WHERE id = 99")
            .unwrap()
            .hash;
        assert!(cache.get(hash).is_some());
        assert!(FastPathCache::empty().is_empty());
        assert!(FastPathCache::empty().get(hash).is_none());
    }
}
