//! The query executor: join, filter, group, sort, project.
//!
//! Execution is late-materializing. The joined row set is a flat list of
//! row-id tuples, one id per FROM slot, and every combined column offset
//! maps to a `(slot, column)` pair, so values are read in place from
//! `TableData.columns`. Joins, WHERE, ORDER BY, LIMIT, DISTINCT and GROUP
//! BY all work on ids and borrowed values; the only values cloned are the
//! ones in the returned rows (plus one key per group, and aggregates).

use crate::eval::{
    compile_pred, compute_aggregate, eval_pred, AggMode, ColumnResolver, EAggArg, Row,
};
use crate::{Database, EngineError, ResultSet};
use dbpal_schema::Value;
use dbpal_sql::{
    AggArg, AggFunc, CmpOp, ColumnRef, FromClause, OrderDir, OrderKey, Pred, Query, Scalar,
    SelectItem,
};
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// One FROM-clause table.
struct Slot {
    name: String,
    /// Combined offset of the table's first column.
    offset: usize,
    /// Lowercased column names.
    cols: Vec<String>,
    row_count: usize,
}

/// The FROM-clause scope: the tables in play and, for every combined
/// column offset, the slot it belongs to and that column's storage.
struct Scope<'db> {
    slots: Vec<Slot>,
    columns: Vec<(usize, &'db [Value])>,
}

impl<'db> Scope<'db> {
    fn build(db: &'db Database, query: &Query) -> Result<Scope<'db>, EngineError> {
        let tables = match &query.from {
            FromClause::Tables(t) => t,
            FromClause::JoinPlaceholder => return Err(EngineError::UnexpandedJoinPlaceholder),
        };
        let mut slots = Vec::with_capacity(tables.len());
        let mut columns = Vec::new();
        for name in tables {
            let tid = db
                .schema()
                .table_id(name)
                .ok_or_else(|| EngineError::UnknownTable(name.clone()))?;
            let data = db.table_data(tid);
            let slot = slots.len();
            slots.push(Slot {
                name: name.to_lowercase(),
                offset: columns.len(),
                cols: db
                    .schema()
                    .table(tid)
                    .column_names()
                    .map(|c| c.to_lowercase())
                    .collect(),
                row_count: data.row_count,
            });
            columns.extend(data.columns.iter().map(|c| (slot, c.as_slice())));
        }
        Ok(Scope { slots, columns })
    }

    fn width(&self) -> usize {
        self.columns.len()
    }

    /// Headers for `SELECT *`.
    fn star_headers(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.width());
        for slot in &self.slots {
            for c in &slot.cols {
                if self.slots.len() > 1 {
                    out.push(format!("{}.{c}", slot.name));
                } else {
                    out.push(c.clone());
                }
            }
        }
        out
    }
}

impl ColumnResolver for Scope<'_> {
    fn resolve(&self, col: &ColumnRef) -> Result<usize, EngineError> {
        let mut found = None;
        for slot in &self.slots {
            if let Some(t) = &col.table {
                if *t != slot.name {
                    continue;
                }
            }
            if let Some(i) = slot.cols.iter().position(|c| c == &col.column) {
                if found.is_some() {
                    return Err(EngineError::AmbiguousColumn(col.to_string()));
                }
                found = Some(slot.offset + i);
            }
        }
        found.ok_or_else(|| EngineError::UnknownColumn(col.to_string()))
    }
}

/// One tuple of the joined row set: a row id per FROM slot.
#[derive(Clone, Copy)]
struct TupleRow<'a> {
    columns: &'a [(usize, &'a [Value])],
    ids: &'a [usize],
}

/// Read by HAVING for the one group a global aggregate forms over zero
/// rows, which has no row to read columns from.
static NULL: Value = Value::Null;

impl<'a> TupleRow<'a> {
    /// The value at combined column offset `col`, borrowed from storage
    /// for as long as the storage lives, not just this tuple.
    fn get(self, col: usize) -> &'a Value {
        let (slot, data) = self.columns[col];
        match self.ids.get(slot) {
            Some(&id) => &data[id],
            None => &NULL,
        }
    }
}

impl Row for TupleRow<'_> {
    fn value(&self, col: usize) -> &Value {
        self.get(col)
    }
}

/// The joined row set: `ids.len() / width` tuples of `width` row ids.
/// `width` is the number of FROM slots joined so far, at least 1.
struct RowSet {
    width: usize,
    ids: Vec<usize>,
}

impl RowSet {
    fn len(&self) -> usize {
        self.ids.len() / self.width
    }

    fn row<'a>(&'a self, scope: &'a Scope, i: usize) -> TupleRow<'a> {
        TupleRow {
            columns: &scope.columns,
            ids: &self.ids[i * self.width..(i + 1) * self.width],
        }
    }

    /// Keep the tuples `keep` accepts, in order.
    fn retain(&mut self, scope: &Scope, keep: impl Fn(TupleRow) -> bool) {
        let w = self.width;
        let mut kept = 0;
        for i in 0..self.len() {
            if keep(self.row(scope, i)) {
                self.ids.copy_within(i * w..(i + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.ids.truncate(kept * w);
    }
}

/// A tuple's values at some column offsets, hashed and compared in
/// place: the key of GROUP BY and DISTINCT.
#[derive(Clone, Copy)]
struct Projected<'a> {
    row: TupleRow<'a>,
    cols: &'a [usize],
}

impl Projected<'_> {
    fn values(&self) -> impl Iterator<Item = &Value> + '_ {
        self.cols.iter().map(|&c| self.row.get(c))
    }
}

impl Hash for Projected<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().for_each(|v| v.hash(state));
    }
}

impl PartialEq for Projected<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.values().eq(other.values())
    }
}

impl Eq for Projected<'_> {}

/// How FROM slot `i > 0` joins the slots before it: a hash join building
/// on column `build` of the new table and probing with combined offset
/// `probe`, taken from the WHERE equality `on`.
struct HashJoin<'q> {
    probe: usize,
    build: usize,
    on: (&'q ColumnRef, &'q ColumnRef),
}

/// The join plan `execute` runs and `explain` prints: per FROM slot, the
/// first top-level `col = col` conjunct with one side a column of that
/// slot's table and the other resolving into the slots before it, or
/// `None` for a cross product. Slot 0 has nothing before it to probe,
/// so it is always `None`.
fn plan_joins<'q>(scope: &Scope, where_pred: Option<&'q Pred>) -> Vec<Option<HashJoin<'q>>> {
    let mut equalities = Vec::new();
    if let Some(p) = where_pred {
        collect_equijoins(p, &mut equalities);
    }
    let plan_slot = |slot: &Slot| {
        equalities.iter().find_map(|&(a, b)| {
            [(a, b), (b, a)].into_iter().find_map(|(left, right)| {
                let build = slot.cols.iter().position(|c| c == &right.column)?;
                if right.table.as_ref().is_some_and(|t| *t != slot.name) {
                    return None;
                }
                let probe = scope.resolve(left).ok().filter(|&p| p < slot.offset)?;
                Some(HashJoin {
                    probe,
                    build,
                    on: (a, b),
                })
            })
        })
    };
    scope.slots.iter().map(plan_slot).collect()
}

fn collect_equijoins<'q>(p: &'q Pred, out: &mut Vec<(&'q ColumnRef, &'q ColumnRef)>) {
    match p {
        Pred::And(ps) => ps.iter().for_each(|p| collect_equijoins(p, out)),
        Pred::Compare {
            left: Scalar::Column(a),
            op: CmpOp::Eq,
            right: Scalar::Column(b),
        } => out.push((a, b)),
        _ => {}
    }
}

/// Build the joined row set: slot 0's row ids, then each further slot
/// hash-joined or crossed onto the prefix. Tuples come out in
/// cross-product order (first FROM table outermost); a hash join keeps
/// that order, emitting matches in build-table row order.
fn join(scope: &Scope, plan: &[Option<HashJoin>]) -> RowSet {
    let mut steps = scope.slots.iter().zip(plan);
    let mut rows = RowSet {
        width: 1,
        ids: match steps.next() {
            Some((first, _)) => (0..first.row_count).collect(),
            None => Vec::new(),
        },
    };
    for (slot, step) in steps {
        let mut ids = Vec::new();
        let prefixes = (0..rows.len()).map(|i| rows.row(scope, i));
        match step {
            Some(join) => {
                let (_, build) = scope.columns[slot.offset + join.build];
                let mut index: HashMap<&Value, Vec<usize>> = HashMap::new();
                for (r, v) in build.iter().enumerate() {
                    if !v.is_null() {
                        index.entry(v).or_default().push(r);
                    }
                }
                for prefix in prefixes {
                    if let Some(matches) = index.get(prefix.value(join.probe)) {
                        for &r in matches {
                            ids.extend_from_slice(prefix.ids);
                            ids.push(r);
                        }
                    }
                }
            }
            None => {
                ids.reserve(rows.len() * (rows.width + 1) * slot.row_count);
                for prefix in prefixes {
                    for r in 0..slot.row_count {
                        ids.extend_from_slice(prefix.ids);
                        ids.push(r);
                    }
                }
            }
        }
        rows = RowSet {
            width: rows.width + 1,
            ids,
        };
    }
    rows
}

pub(crate) fn execute(db: &Database, query: &Query) -> Result<ResultSet, EngineError> {
    let scope = Scope::build(db, query)?;
    let filter = match &query.where_pred {
        Some(p) => Some(compile_pred(p, &scope, db, AggMode::Forbidden)?),
        None => None,
    };
    let mut rows = join(&scope, &plan_joins(&scope, query.where_pred.as_ref()));
    if let Some(p) = &filter {
        rows.retain(&scope, |row| eval_pred(p, &row, None) == Some(true));
    }

    let grouped = !query.group_by.is_empty() || query.has_aggregate();
    let (headers, out_rows) = if grouped {
        execute_grouped(db, &scope, query, &rows)?
    } else {
        execute_plain(&scope, query, &rows)?
    };
    Ok(ResultSet::new(headers, out_rows))
}

/// Produce a human-readable plan description without executing.
pub(crate) fn explain(db: &Database, query: &Query) -> Result<String, EngineError> {
    let scope = Scope::build(db, query)?;
    let plan = plan_joins(&scope, query.where_pred.as_ref());
    let mut out = String::new();
    for (i, (slot, step)) in scope.slots.iter().zip(&plan).enumerate() {
        let (name, rows) = (&slot.name, slot.row_count);
        if i == 0 {
            out.push_str(&format!("scan {name} ({rows} rows)\n"));
        } else {
            let joined = match step {
                Some(HashJoin { on: (a, b), .. }) => format!("hash join on {a} = {b}"),
                None => "cross product".to_string(),
            };
            out.push_str(&format!("{joined} with {name} ({rows} rows)\n"));
        }
    }
    if let Some(p) = &query.where_pred {
        out.push_str(&format!("filter: {p}\n"));
    }
    if !query.group_by.is_empty() || query.has_aggregate() {
        if query.group_by.is_empty() {
            out.push_str("aggregate: single group\n");
        } else {
            let keys: Vec<String> = query.group_by.iter().map(|c| c.to_string()).collect();
            out.push_str(&format!("aggregate: group by {}\n", keys.join(", ")));
        }
        if let Some(h) = &query.having {
            out.push_str(&format!("having: {h}\n"));
        }
    }
    if !query.order_by.is_empty() {
        out.push_str("sort\n");
    }
    if let Some(n) = query.limit {
        out.push_str(&format!("limit {n}\n"));
    }
    if query.distinct {
        out.push_str("distinct\n");
    }
    Ok(out)
}

/// The order the first `limit` of `n` items are returned in, sorted by
/// the flat sort keys (`keys[i * dirs.len() + j]` is item `i`'s key
/// `j`). Ties keep input order: the comparator falls back to position,
/// which makes the order total. With a limit below `n` the work is a
/// top-k — select the k-th, then sort the kept k — and returns exactly
/// the prefix a full stable sort would.
fn output_order<K: Borrow<Value>>(
    keys: &[K],
    dirs: &[OrderDir],
    n: usize,
    limit: Option<usize>,
) -> Vec<usize> {
    let k = limit.unwrap_or(n).min(n);
    let mut order: Vec<usize> = (0..n).collect();
    if dirs.is_empty() || k == 0 {
        order.truncate(k);
        return order;
    }
    let w = dirs.len();
    let cmp = |&a: &usize, &b: &usize| {
        for (j, d) in dirs.iter().enumerate() {
            let ord = keys[a * w + j].borrow().total_cmp(keys[b * w + j].borrow());
            let ord = match d {
                OrderDir::Asc => ord,
                OrderDir::Desc => ord.reverse(),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        a.cmp(&b)
    };
    if k < n {
        order.select_nth_unstable_by(k - 1, cmp);
        order.truncate(k);
    }
    order.sort_unstable_by(cmp);
    order
}

/// Non-grouped execution: order the tuples, dedup and limit on borrowed
/// values, then clone the survivors' projected values.
fn execute_plain(
    scope: &Scope,
    query: &Query,
    rows: &RowSet,
) -> Result<(Vec<String>, Vec<Vec<Value>>), EngineError> {
    let mut headers = Vec::new();
    let mut projection: Vec<usize> = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::Star => {
                headers.extend(scope.star_headers());
                projection.extend(0..scope.width());
            }
            SelectItem::Column(c) => {
                headers.push(c.to_string());
                projection.push(scope.resolve(c)?);
            }
            SelectItem::Aggregate(..) => unreachable!("grouped path handles aggregates"),
        }
    }
    // Order keys resolve against the scope, so they need not be selected.
    let mut key_cols = Vec::new();
    let mut dirs = Vec::new();
    for (k, d) in &query.order_by {
        match k {
            OrderKey::Column(c) => key_cols.push(scope.resolve(c)?),
            OrderKey::Aggregate(..) => {
                return Err(EngineError::InvalidOrderKey(
                    "aggregate ORDER BY requires GROUP BY".into(),
                ))
            }
        }
        dirs.push(*d);
    }

    let n = rows.len();
    let limit = query.limit.map(|l| l as usize);
    let mut keys: Vec<&Value> = Vec::with_capacity(n * key_cols.len());
    if !key_cols.is_empty() {
        for i in 0..n {
            let row = rows.row(scope, i);
            keys.extend(key_cols.iter().map(|&c| row.get(c)));
        }
    }
    let mut order = output_order(&keys, &dirs, n, limit.filter(|_| !query.distinct));
    if query.distinct {
        let mut seen = HashSet::with_capacity(order.len());
        order.retain(|&i| {
            seen.insert(Projected {
                row: rows.row(scope, i),
                cols: &projection,
            })
        });
        order.truncate(limit.unwrap_or(usize::MAX));
    }
    let out = order
        .iter()
        .map(|&i| {
            let row = rows.row(scope, i);
            projection.iter().map(|&c| row.get(c).clone()).collect()
        })
        .collect();
    Ok((headers, out))
}

/// A compiled grouped select item or ORDER BY key.
enum GroupExpr {
    /// The group's value of `key_cols[i]`.
    Key(usize),
    Agg(AggFunc, EAggArg),
}

impl GroupExpr {
    fn aggregate(scope: &Scope, f: AggFunc, arg: &AggArg) -> Result<GroupExpr, EngineError> {
        let arg = match arg {
            AggArg::Star => EAggArg::Star,
            AggArg::Column(c) => EAggArg::Col(scope.resolve(c)?),
        };
        Ok(GroupExpr::Agg(f, arg))
    }

    fn eval<'a>(&self, key_cols: &[usize], rows: &'a [TupleRow<'a>]) -> Cow<'a, Value> {
        match self {
            GroupExpr::Key(i) => Cow::Borrowed(rows[0].get(key_cols[*i])),
            GroupExpr::Agg(f, arg) => Cow::Owned(compute_aggregate(*f, *arg, rows)),
        }
    }
}

/// Partition the tuples into groups by their values at `key_cols`,
/// hashing borrowed keys. Groups are numbered in creation order (first
/// occurrence of each key) and group `g` is
/// `members[starts[g]..starts[g + 1]]`, in input order. With no key
/// columns every tuple lands in one group, which exists even when there
/// are no tuples: a global aggregate over zero rows is one row.
fn group_rows<'a>(
    scope: &'a Scope,
    rows: &'a RowSet,
    key_cols: &'a [usize],
) -> (Vec<TupleRow<'a>>, Vec<usize>) {
    let n = rows.len();
    if key_cols.is_empty() {
        return ((0..n).map(|i| rows.row(scope, i)).collect(), vec![0, n]);
    }
    let mut index: HashMap<Projected, usize> = HashMap::with_capacity(n);
    let mut group_of = Vec::with_capacity(n);
    let mut sizes: Vec<usize> = Vec::new();
    for i in 0..n {
        let key = Projected {
            row: rows.row(scope, i),
            cols: key_cols,
        };
        let next = sizes.len();
        let g = *index.entry(key).or_insert(next);
        if g == next {
            sizes.push(0);
        }
        sizes[g] += 1;
        group_of.push(g);
    }
    let mut starts = Vec::with_capacity(sizes.len() + 1);
    starts.push(0);
    for size in &sizes {
        starts.push(starts[starts.len() - 1] + size);
    }
    let mut fill = starts.clone();
    let mut slots = vec![0; n];
    for (i, &g) in group_of.iter().enumerate() {
        slots[fill[g]] = i;
        fill[g] += 1;
    }
    let members = slots.iter().map(|&i| rows.row(scope, i)).collect();
    (members, starts)
}

/// Grouped execution: group tuples, filter groups with HAVING, order
/// them, then build output rows for the groups the answer returns.
fn execute_grouped(
    db: &Database,
    scope: &Scope,
    query: &Query,
    rows: &RowSet,
) -> Result<(Vec<String>, Vec<Vec<Value>>), EngineError> {
    let mut key_cols = Vec::with_capacity(query.group_by.len());
    for c in &query.group_by {
        key_cols.push(scope.resolve(c)?);
    }
    let key_pos = |c: &ColumnRef, err: fn(String) -> EngineError| {
        let idx = scope.resolve(c)?;
        key_cols
            .iter()
            .position(|&k| k == idx)
            .map(GroupExpr::Key)
            .ok_or_else(|| err(c.to_string()))
    };

    let mut headers = Vec::new();
    let mut select = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::Star => return Err(EngineError::InvalidGroupSelect("*".into())),
            SelectItem::Column(c) => {
                select.push(key_pos(c, EngineError::InvalidGroupSelect)?);
                headers.push(c.to_string());
            }
            SelectItem::Aggregate(f, arg) => {
                select.push(GroupExpr::aggregate(scope, *f, arg)?);
                headers.push(item.to_string());
            }
        }
    }

    let (members, starts) = group_rows(scope, rows, &key_cols);
    let groups = starts.windows(2).map(|w| &members[w[0]..w[1]]);

    let having = match &query.having {
        Some(p) => Some(compile_pred(p, scope, db, AggMode::Allowed)?),
        None => None,
    };
    let mut order_by = Vec::new();
    let mut dirs = Vec::new();
    for (k, d) in &query.order_by {
        order_by.push(match k {
            OrderKey::Column(c) => key_pos(c, EngineError::InvalidOrderKey)?,
            OrderKey::Aggregate(f, arg) => GroupExpr::aggregate(scope, *f, arg)?,
        });
        dirs.push(*d);
    }

    // HAVING reads key columns from the group's first row and
    // aggregates from all of them.
    let no_row = TupleRow {
        columns: &scope.columns,
        ids: &[],
    };
    let mut kept: Vec<&[TupleRow]> = Vec::new();
    let mut keys: Vec<Cow<Value>> = Vec::new();
    for group in groups {
        if let Some(h) = &having {
            let first = group.first().unwrap_or(&no_row);
            if eval_pred(h, first, Some(group)) != Some(true) {
                continue;
            }
        }
        keys.extend(order_by.iter().map(|e| e.eval(&key_cols, group)));
        kept.push(group);
    }

    let limit = query.limit.map(|l| l as usize);
    let order = output_order(&keys, &dirs, kept.len(), limit.filter(|_| !query.distinct));
    let mut out: Vec<Vec<Value>> = order
        .iter()
        .map(|&g| {
            select
                .iter()
                .map(|e| e.eval(&key_cols, kept[g]).into_owned())
                .collect()
        })
        .collect();
    if query.distinct {
        // Aggregates exist only in built rows, so dedup those in place.
        let keep: Vec<bool> = {
            let mut seen = HashSet::new();
            out.iter().map(|r| seen.insert(r.as_slice())).collect()
        };
        let mut keep = keep.into_iter();
        out.retain(|_| keep.next() == Some(true));
        out.truncate(limit.unwrap_or(usize::MAX));
    }
    Ok((headers, out))
}

#[cfg(test)]
mod tests {
    use crate::{Database, EngineError};
    use dbpal_schema::{SchemaBuilder, SqlType, Value};
    use dbpal_sql::parse_query;

    fn hospital() -> Database {
        let schema = SchemaBuilder::new("hospital")
            .table("patients", |t| {
                t.column("id", SqlType::Integer)
                    .column("name", SqlType::Text)
                    .column("age", SqlType::Integer)
                    .column("disease", SqlType::Text)
                    .column("doctor_id", SqlType::Integer)
                    .primary_key("id")
            })
            .table("doctors", |t| {
                t.column("id", SqlType::Integer)
                    .column("name", SqlType::Text)
                    .column("specialty", SqlType::Text)
                    .primary_key("id")
            })
            .foreign_key("patients", "doctor_id", "doctors", "id")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let patients: Vec<(i64, &str, i64, &str, i64)> = vec![
            (1, "Ann", 80, "influenza", 1),
            (2, "Bob", 35, "asthma", 1),
            (3, "Cat", 64, "influenza", 2),
            (4, "Dan", 80, "diabetes", 2),
            (5, "Eve", 12, "asthma", 1),
        ];
        for (id, name, age, disease, doc) in patients {
            db.insert(
                "patients",
                vec![
                    Value::Int(id),
                    name.into(),
                    Value::Int(age),
                    disease.into(),
                    Value::Int(doc),
                ],
            )
            .unwrap();
        }
        for (id, name, spec) in [(1, "House", "diagnostics"), (2, "Grey", "surgery")] {
            db.insert("doctors", vec![Value::Int(id), name.into(), spec.into()])
                .unwrap();
        }
        db
    }

    fn run(db: &Database, sql: &str) -> crate::ResultSet {
        run_query(db, &parse_query(sql).unwrap())
    }

    fn run_query(db: &Database, q: &dbpal_sql::Query) -> crate::ResultSet {
        db.execute(q).unwrap()
    }

    #[test]
    fn simple_filter() {
        let db = hospital();
        let r = run(&db, "SELECT name FROM patients WHERE age = 80");
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn star_projection() {
        let db = hospital();
        let r = run(&db, "SELECT * FROM doctors");
        assert_eq!(r.column_count(), 3);
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn count_star() {
        let db = hospital();
        let r = run(&db, "SELECT COUNT(*) FROM patients");
        assert_eq!(r.rows()[0][0], Value::Int(5));
    }

    #[test]
    fn avg_age() {
        let db = hospital();
        let r = run(&db, "SELECT AVG(age) FROM patients");
        assert_eq!(
            r.rows()[0][0],
            Value::Float((80 + 35 + 64 + 80 + 12) as f64 / 5.0)
        );
    }

    #[test]
    fn group_by_disease() {
        let db = hospital();
        let r = run(
            &db,
            "SELECT disease, COUNT(*) FROM patients GROUP BY disease ORDER BY COUNT(*) DESC, disease",
        );
        assert_eq!(r.row_count(), 3);
        // influenza and asthma both have 2; diabetes has 1. Ties broken by name.
        assert_eq!(r.rows()[0][0], Value::Text("asthma".into()));
        assert_eq!(r.rows()[2][0], Value::Text("diabetes".into()));
        assert_eq!(r.rows()[2][1], Value::Int(1));
    }

    #[test]
    fn having_filters_groups() {
        let db = hospital();
        let r = run(
            &db,
            "SELECT disease FROM patients GROUP BY disease HAVING COUNT(*) > 1 ORDER BY disease",
        );
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn join_via_where() {
        let db = hospital();
        let r = run(
            &db,
            "SELECT patients.name FROM patients, doctors \
             WHERE patients.doctor_id = doctors.id AND doctors.name = 'House' \
             ORDER BY patients.name",
        );
        assert_eq!(r.row_count(), 3);
        assert_eq!(r.rows()[0][0], Value::Text("Ann".into()));
    }

    #[test]
    fn join_aggregate() {
        let db = hospital();
        let r = run(
            &db,
            "SELECT AVG(patients.age) FROM patients, doctors \
             WHERE patients.doctor_id = doctors.id AND doctors.name = 'Grey'",
        );
        assert_eq!(r.rows()[0][0], Value::Float(72.0));
    }

    #[test]
    fn cross_product_without_join_pred() {
        let db = hospital();
        let r = run(&db, "SELECT COUNT(*) FROM patients, doctors");
        assert_eq!(r.rows()[0][0], Value::Int(10));
    }

    #[test]
    fn scalar_subquery_max() {
        let db = hospital();
        let r = run(
            &db,
            "SELECT name FROM patients WHERE age = (SELECT MAX(age) FROM patients) ORDER BY name",
        );
        assert_eq!(r.row_count(), 2);
        assert_eq!(r.rows()[0][0], Value::Text("Ann".into()));
    }

    #[test]
    fn in_subquery() {
        let db = hospital();
        let r = run(
            &db,
            "SELECT name FROM patients WHERE doctor_id IN \
             (SELECT id FROM doctors WHERE specialty = 'surgery') ORDER BY name",
        );
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn exists_subquery() {
        let db = hospital();
        let r = run(
            &db,
            "SELECT name FROM doctors WHERE EXISTS (SELECT * FROM patients WHERE age > 100)",
        );
        assert_eq!(r.row_count(), 0);
        let r = run(
            &db,
            "SELECT name FROM doctors WHERE EXISTS (SELECT * FROM patients WHERE age > 70)",
        );
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn order_by_limit() {
        let db = hospital();
        let r = run(&db, "SELECT name FROM patients ORDER BY age DESC LIMIT 2");
        assert_eq!(r.row_count(), 2);
        let names: Vec<_> = r.rows().iter().map(|r| r[0].to_string()).collect();
        assert!(names.contains(&"Ann".to_string()) || names.contains(&"Dan".to_string()));
    }

    #[test]
    fn limit_top_k_keeps_tie_order() {
        let db = hospital();
        // Ann and Dan tie at 80; the stable order keeps Ann (inserted
        // first) whether or not LIMIT cuts the tie.
        for (sql, expect) in [
            (
                "SELECT name FROM patients ORDER BY age DESC LIMIT 1",
                vec!["Ann"],
            ),
            (
                "SELECT name FROM patients ORDER BY age DESC LIMIT 3",
                vec!["Ann", "Dan", "Cat"],
            ),
            (
                "SELECT name FROM patients ORDER BY disease, age LIMIT 3",
                vec!["Eve", "Bob", "Dan"],
            ),
        ] {
            let r = run(&db, sql);
            let names: Vec<String> = r.rows().iter().map(|r| r[0].to_string()).collect();
            assert_eq!(names, expect, "{sql}");
        }
    }

    #[test]
    fn explain_names_the_join_the_executor_runs() {
        // The join key `doc_id` is unqualified and exists only in the
        // table being joined, so the planner still finds the hash join.
        let schema = SchemaBuilder::new("clinic")
            .table("patients", |t| {
                t.column("name", SqlType::Text)
                    .column("doctor_id", SqlType::Integer)
            })
            .table("doctors", |t| {
                t.column("doc_id", SqlType::Integer)
                    .column("specialty", SqlType::Text)
            })
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("patients", vec!["Ann".into(), Value::Int(1)])
            .unwrap();
        db.insert("patients", vec!["Bob".into(), Value::Int(2)])
            .unwrap();
        db.insert("doctors", vec![Value::Int(2), "surgery".into()])
            .unwrap();
        let q = parse_query(
            "SELECT name, specialty FROM patients, doctors WHERE patients.doctor_id = doc_id",
        )
        .unwrap();
        let plan = db.explain(&q).unwrap();
        assert!(
            plan.contains("hash join on patients.doctor_id = doc_id with doctors (1 rows)"),
            "{plan}"
        );
        let r = db.execute(&q).unwrap();
        assert_eq!(r.rows(), [vec![Value::from("Bob"), "surgery".into()]]);
    }

    #[test]
    fn having_over_an_empty_global_group_reads_null() {
        // The parser requires GROUP BY for HAVING, but a programmatic
        // query can pair HAVING with a global aggregate over zero rows.
        // Its key columns read NULL there instead of indexing a missing
        // row.
        let schema = SchemaBuilder::new("s")
            .table("t", |t| t.column("x", SqlType::Integer))
            .build()
            .unwrap();
        let db = Database::new(schema);
        let mut q = parse_query("SELECT COUNT(*) FROM t").unwrap();
        q.having = parse_query("SELECT x FROM t WHERE x IS NULL")
            .unwrap()
            .where_pred;
        assert_eq!(run_query(&db, &q).rows(), [vec![Value::Int(0)]]);
        q.having = parse_query("SELECT x FROM t WHERE x > 0")
            .unwrap()
            .where_pred;
        assert_eq!(run_query(&db, &q).row_count(), 0);
    }

    #[test]
    fn distinct() {
        let db = hospital();
        let r = run(&db, "SELECT DISTINCT disease FROM patients");
        assert_eq!(r.row_count(), 3);
    }

    #[test]
    fn like_predicate() {
        let db = hospital();
        let r = run(&db, "SELECT name FROM patients WHERE disease LIKE '%flu%'");
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn between() {
        let db = hospital();
        let r = run(&db, "SELECT name FROM patients WHERE age BETWEEN 30 AND 70");
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn in_list() {
        let db = hospital();
        let r = run(&db, "SELECT name FROM patients WHERE age IN (12, 35)");
        assert_eq!(r.row_count(), 2);
        let r = run(&db, "SELECT name FROM patients WHERE age NOT IN (12, 35)");
        assert_eq!(r.row_count(), 3);
    }

    #[test]
    fn or_and_not() {
        let db = hospital();
        let r = run(&db, "SELECT name FROM patients WHERE age = 12 OR age = 35");
        assert_eq!(r.row_count(), 2);
        let r = run(&db, "SELECT name FROM patients WHERE NOT (age = 80)");
        assert_eq!(r.row_count(), 3);
    }

    #[test]
    fn null_semantics() {
        let schema = SchemaBuilder::new("s")
            .table("t", |t| t.column("x", SqlType::Integer))
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        db.insert("t", vec![Value::Int(1)]).unwrap();
        db.insert("t", vec![Value::Null]).unwrap();
        // NULL never satisfies comparisons...
        let r = run(&db, "SELECT x FROM t WHERE x = 1");
        assert_eq!(r.row_count(), 1);
        let r = run(&db, "SELECT x FROM t WHERE x <> 1");
        assert_eq!(r.row_count(), 0);
        // ...but IS NULL sees it.
        let r = run(&db, "SELECT x FROM t WHERE x IS NULL");
        assert_eq!(r.row_count(), 1);
        let r = run(&db, "SELECT x FROM t WHERE x IS NOT NULL");
        assert_eq!(r.row_count(), 1);
    }

    #[test]
    fn aggregate_over_empty_table() {
        let schema = SchemaBuilder::new("s")
            .table("t", |t| t.column("x", SqlType::Integer))
            .build()
            .unwrap();
        let db = Database::new(schema);
        let r = run(&db, "SELECT COUNT(*) FROM t");
        assert_eq!(r.rows()[0][0], Value::Int(0));
        let r = run(&db, "SELECT SUM(x) FROM t");
        assert_eq!(r.rows()[0][0], Value::Null);
    }

    #[test]
    fn group_by_empty_table_has_no_groups() {
        let schema = SchemaBuilder::new("s")
            .table("t", |t| {
                t.column("x", SqlType::Integer)
                    .column("y", SqlType::Integer)
            })
            .build()
            .unwrap();
        let db = Database::new(schema);
        let r = run(&db, "SELECT x, COUNT(*) FROM t GROUP BY x");
        assert_eq!(r.row_count(), 0);
    }

    #[test]
    fn join_placeholder_rejected() {
        let db = hospital();
        let err = db
            .execute(&parse_query("SELECT COUNT(*) FROM @JOIN WHERE a.x = b.y").unwrap())
            .unwrap_err();
        assert_eq!(err, EngineError::UnexpandedJoinPlaceholder);
    }

    #[test]
    fn unbound_placeholder_rejected() {
        let db = hospital();
        let err = db
            .execute(&parse_query("SELECT name FROM patients WHERE age = @AGE").unwrap())
            .unwrap_err();
        assert_eq!(err, EngineError::UnboundPlaceholder("AGE".into()));
    }

    #[test]
    fn unknown_column_rejected() {
        let db = hospital();
        let err = db
            .execute(&parse_query("SELECT salary FROM patients").unwrap())
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownColumn(_)));
    }

    #[test]
    fn ambiguous_column_rejected() {
        let db = hospital();
        // `name` and `id` exist in both tables.
        let err = db
            .execute(
                &parse_query(
                    "SELECT name FROM patients, doctors WHERE patients.doctor_id = doctors.id",
                )
                .unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::AmbiguousColumn(_)));
    }

    #[test]
    fn non_group_select_rejected() {
        let db = hospital();
        let err = db
            .execute(&parse_query("SELECT name, COUNT(*) FROM patients GROUP BY disease").unwrap())
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidGroupSelect(_)));
    }

    #[test]
    fn nested_query_from_paper() {
        // "What is the name of the mountain with maximum height in ...".
        let schema = SchemaBuilder::new("geo")
            .table("mountain", |t| {
                t.column("name", SqlType::Text)
                    .column("height", SqlType::Integer)
                    .column("state", SqlType::Text)
            })
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (n, h, s) in [
            ("Denali", 6190, "Alaska"),
            ("Foraker", 5304, "Alaska"),
            ("Whitney", 4421, "California"),
        ] {
            db.insert("mountain", vec![n.into(), Value::Int(h), s.into()])
                .unwrap();
        }
        let r = run(
            &db,
            "SELECT name FROM mountain WHERE height = \
             (SELECT MAX(height) FROM mountain WHERE state = 'Alaska')",
        );
        assert_eq!(r.rows()[0][0], Value::Text("Denali".into()));
    }
}
