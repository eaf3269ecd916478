//! Differential test of the executor against a materializing reference.
//!
//! The reference copies every joined row out of the tables with nested
//! loops, filters, groups by linear search, sorts with a stable sort,
//! projects, dedups and truncates: the plainest reading of the query.
//! `Database::execute` must return the byte-identical `ResultSet` —
//! headers, rows and row order. In particular this pins the tie rule of
//! DESIGN.md ("ORDER BY tie-break rule") under LIMIT: rows equal on
//! every key keep insertion, cross-product or group-creation order,
//! whether the limit is 0, 1, inside the row count or past it.

use dbpal_engine::{Database, ResultSet};
use dbpal_schema::{SchemaBuilder, SqlType, Value};
use dbpal_sql::parse_query;
use dbpal_util::{forall, Rng};
use std::cmp::Ordering;

/// `t(a INT, s TEXT, b INT)` and `u(id INT, tag TEXT)`, NULLs included.
struct Tables {
    t: Vec<Vec<Value>>,
    u: Vec<Vec<Value>>,
}

const T_COLS: [&str; 3] = ["a", "s", "b"];
const U_COLS: [&str; 2] = ["id", "tag"];

fn maybe_null(rng: &mut Rng, v: Value) -> Value {
    if rng.gen_bool(0.2) {
        Value::Null
    } else {
        v
    }
}

fn gen_tables(rng: &mut Rng) -> Tables {
    let t = (0..rng.gen_range(0..=40usize))
        .map(|_| {
            let a = Value::Int(rng.gen_range(-3i64..3));
            let s = Value::Text(["x", "y", "z", "X"][rng.gen_range(0..4usize)].into());
            let b = Value::Int(rng.gen_range(0i64..5));
            vec![maybe_null(rng, a), maybe_null(rng, s), maybe_null(rng, b)]
        })
        .collect();
    let u = (0..rng.gen_range(0..=6usize))
        .map(|_| {
            let id = Value::Int(rng.gen_range(0i64..5));
            let tag = Value::Text(["p", "q"][rng.gen_range(0..2usize)].into());
            vec![maybe_null(rng, id), tag]
        })
        .collect();
    Tables { t, u }
}

fn database(tables: &Tables) -> Database {
    let schema = SchemaBuilder::new("diff")
        .table("t", |t| {
            t.column("a", SqlType::Integer)
                .column("s", SqlType::Text)
                .column("b", SqlType::Integer)
        })
        .table("u", |t| {
            t.column("id", SqlType::Integer)
                .column("tag", SqlType::Text)
        })
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    db.insert_all("t", tables.t.iter().cloned()).unwrap();
    db.insert_all("u", tables.u.iter().cloned()).unwrap();
    db
}

#[derive(Clone, Copy, Debug)]
enum Agg {
    CountStar,
    Count,
    Sum,
    Max,
}

/// A select item or order key, as a combined-row column offset or an
/// aggregate over `a` (offset 0).
#[derive(Clone, Copy, Debug)]
enum Expr {
    Col(usize),
    Agg(Agg),
}

/// One query, rendered to SQL for the executor and interpreted directly
/// by the reference.
#[derive(Debug)]
struct Spec {
    /// `FROM t, u` when set, else `FROM t`.
    two_tables: bool,
    /// `WHERE t.b = u.id` (a hash join) when set.
    join: bool,
    /// `a > k`.
    filter: Option<i64>,
    select: Vec<Expr>,
    group_by: Option<usize>,
    distinct: bool,
    order: Vec<(Expr, bool)>,
    limit: Option<usize>,
}

impl Spec {
    fn col_name(&self, c: usize) -> String {
        if self.two_tables {
            match c {
                0..=2 => format!("t.{}", T_COLS[c]),
                _ => format!("u.{}", U_COLS[c - 3]),
            }
        } else {
            T_COLS[c].to_string()
        }
    }

    fn expr_sql(&self, e: Expr) -> String {
        let a = self.col_name(0);
        match e {
            Expr::Col(c) => self.col_name(c),
            Expr::Agg(Agg::CountStar) => "COUNT(*)".into(),
            Expr::Agg(Agg::Count) => format!("COUNT({a})"),
            Expr::Agg(Agg::Sum) => format!("SUM({a})"),
            Expr::Agg(Agg::Max) => format!("MAX({a})"),
        }
    }

    fn sql(&self) -> String {
        let items: Vec<String> = self.select.iter().map(|&e| self.expr_sql(e)).collect();
        let mut sql = format!(
            "SELECT {}{} FROM {}",
            if self.distinct { "DISTINCT " } else { "" },
            items.join(", "),
            if self.two_tables { "t, u" } else { "t" }
        );
        let mut conds = Vec::new();
        if self.join {
            conds.push("t.b = u.id".to_string());
        }
        if let Some(k) = self.filter {
            conds.push(format!("{} > {k}", self.col_name(0)));
        }
        if !conds.is_empty() {
            sql += &format!(" WHERE {}", conds.join(" AND "));
        }
        if let Some(g) = self.group_by {
            sql += &format!(" GROUP BY {}", self.col_name(g));
        }
        if !self.order.is_empty() {
            let keys: Vec<String> = self
                .order
                .iter()
                .map(|&(e, desc)| {
                    format!("{}{}", self.expr_sql(e), if desc { " DESC" } else { "" })
                })
                .collect();
            sql += &format!(" ORDER BY {}", keys.join(", "));
        }
        if let Some(n) = self.limit {
            sql += &format!(" LIMIT {n}");
        }
        sql
    }
}

fn aggregate(f: Agg, rows: &[&Vec<Value>]) -> Value {
    let values = rows.iter().map(|r| &r[0]).filter(|v| !v.is_null());
    match f {
        Agg::CountStar => Value::Int(rows.len() as i64),
        Agg::Count => Value::Int(values.count() as i64),
        Agg::Sum => {
            let ints: Vec<i64> = values
                .map(|v| match v {
                    Value::Int(i) => *i,
                    other => panic!("non-int {other:?}"),
                })
                .collect();
            if ints.is_empty() {
                Value::Null
            } else {
                Value::Int(ints.iter().sum())
            }
        }
        Agg::Max => values.max().cloned().unwrap_or(Value::Null),
    }
}

/// The materializing reference executor.
fn reference(spec: &Spec, tables: &Tables) -> ResultSet {
    // Nested loops in FROM order: the first table is outermost.
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for t in &tables.t {
        if spec.two_tables {
            for u in &tables.u {
                rows.push(t.iter().chain(u).cloned().collect());
            }
        } else {
            rows.push(t.clone());
        }
    }
    rows.retain(|r| {
        let joined = !spec.join || r[2].sql_eq(&r[3]) == Some(true);
        let filtered = spec
            .filter
            .is_none_or(|k| r[0].sql_cmp(&Value::Int(k)) == Some(Ordering::Greater));
        joined && filtered
    });

    // (output row, sort keys) per row or per group.
    let eval = |e: Expr, group: &[&Vec<Value>]| match e {
        Expr::Col(c) => group[0][c].clone(),
        Expr::Agg(f) => aggregate(f, group),
    };
    let mut out: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
    let grouped = spec.group_by.is_some() || spec.select.iter().any(|e| matches!(e, Expr::Agg(_)));
    if grouped {
        // Groups in creation order: first occurrence of each key.
        let mut groups: Vec<(Value, Vec<&Vec<Value>>)> = Vec::new();
        for r in &rows {
            let key = spec.group_by.map_or(Value::Null, |g| r[g].clone());
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(r),
                None => groups.push((key, vec![r])),
            }
        }
        if spec.group_by.is_none() && groups.is_empty() {
            groups.push((Value::Null, Vec::new()));
        }
        for (_, members) in &groups {
            let row = spec.select.iter().map(|&e| eval(e, members)).collect();
            let keys = spec.order.iter().map(|&(e, _)| eval(e, members)).collect();
            out.push((row, keys));
        }
    } else {
        for r in &rows {
            let row = spec.select.iter().map(|&e| eval(e, &[r])).collect();
            let keys = spec.order.iter().map(|&(e, _)| eval(e, &[r])).collect();
            out.push((row, keys));
        }
    }

    out.sort_by(|(_, x), (_, y)| {
        for (i, &(_, desc)) in spec.order.iter().enumerate() {
            let ord = x[i].total_cmp(&y[i]);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    let mut result: Vec<Vec<Value>> = Vec::new();
    for (row, _) in out {
        if !spec.distinct || !result.contains(&row) {
            result.push(row);
        }
    }
    result.truncate(spec.limit.unwrap_or(usize::MAX));
    let headers = spec.select.iter().map(|&e| spec.expr_sql(e)).collect();
    ResultSet::new(headers, result)
}

/// Limits around the interesting edges: 0, 1, inside the (unknown)
/// result size, and past it.
fn gen_limit(rng: &mut Rng) -> Option<usize> {
    match rng.gen_range(0..5u32) {
        0 => None,
        1 => Some(0),
        2 => Some(1),
        3 => Some(rng.gen_range(2..12usize)),
        _ => Some(rng.gen_range(12..200usize)),
    }
}

fn gen_order(rng: &mut Rng, cols: usize) -> Vec<(Expr, bool)> {
    (0..rng.gen_range(1..=2usize))
        .map(|_| (Expr::Col(rng.gen_range(0..cols)), rng.gen_bool(0.5)))
        .collect()
}

/// One random query of the shapes the executor plans differently.
fn gen_spec(rng: &mut Rng) -> Spec {
    let filter = rng.gen_bool(0.3).then(|| rng.gen_range(-3i64..2));
    let mut spec = Spec {
        two_tables: false,
        join: false,
        filter,
        select: Vec::new(),
        group_by: None,
        distinct: false,
        order: Vec::new(),
        limit: gen_limit(rng),
    };
    match rng.gen_range(0..5u32) {
        // ORDER BY with heavy ties, some keys unselected.
        0 => {
            spec.select = vec![
                Expr::Col(rng.gen_range(0..3)),
                Expr::Col(rng.gen_range(0..3)),
            ];
            spec.order = gen_order(rng, 3);
        }
        // DISTINCT, with or without ORDER BY.
        1 => {
            spec.distinct = true;
            spec.select = vec![Expr::Col(rng.gen_range(0..3))];
            if rng.gen_bool(0.5) {
                spec.select.push(Expr::Col(rng.gen_range(0..3)));
            }
            if rng.gen_bool(0.6) {
                spec.order = gen_order(rng, 3);
            }
        }
        // GROUP BY, ordered by an aggregate (ties broken by creation).
        2 => {
            let g = rng.gen_range(1..3);
            let agg = [Agg::CountStar, Agg::Count, Agg::Sum, Agg::Max][rng.gen_range(0..4usize)];
            spec.group_by = Some(g);
            spec.select = vec![Expr::Col(g), Expr::Agg(agg)];
            spec.order = vec![(Expr::Agg(agg), rng.gen_bool(0.5))];
            if rng.gen_bool(0.3) {
                spec.order.push((Expr::Col(g), false));
            }
            spec.distinct = rng.gen_bool(0.2);
        }
        // Two tables: a hash join or a cross product.
        _ => {
            spec.two_tables = true;
            spec.join = rng.gen_bool(0.5);
            spec.select = vec![
                Expr::Col(rng.gen_range(0..5)),
                Expr::Col(rng.gen_range(0..5)),
            ];
            if rng.gen_bool(0.7) {
                spec.order = gen_order(rng, 5);
            }
            spec.distinct = rng.gen_bool(0.2);
        }
    }
    spec
}

#[test]
fn executor_matches_materializing_reference() {
    forall!(cases = 512, |rng| {
        let tables = gen_tables(rng);
        let db = database(&tables);
        for _ in 0..8 {
            let spec = gen_spec(rng);
            let sql = spec.sql();
            let got = db.execute(&parse_query(&sql).unwrap()).unwrap();
            let want = reference(&spec, &tables);
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{sql}\nt = {:?}\nu = {:?}",
                tables.t,
                tables.u
            );
        }
    });
}

/// The shapes above all occur within the default case budget.
#[test]
fn generator_covers_every_shape() {
    let mut rng = Rng::seed_from_u64(7);
    let specs: Vec<Spec> = (0..400).map(|_| gen_spec(&mut rng)).collect();
    let any = |f: &dyn Fn(&Spec) -> bool| specs.iter().any(f);
    assert!(any(&|s| !s.order.is_empty() && s.limit == Some(0)));
    assert!(any(&|s| !s.order.is_empty() && s.limit == Some(1)));
    assert!(any(
        &|s| !s.order.is_empty() && s.limit.is_some_and(|n| n > 40)
    ));
    assert!(any(&|s| s.distinct && s.limit.is_some()));
    assert!(any(
        &|s| s.group_by.is_some() && matches!(s.order[0].0, Expr::Agg(_))
    ));
    assert!(any(&|s| s.join));
    assert!(any(&|s| s.two_tables && !s.join));
}
