//! Compiled predicate/scalar evaluation over joined rows.
//!
//! Queries are compiled once per execution: column references are resolved
//! to row offsets, LIKE patterns are lowercased, and uncorrelated
//! subqueries are materialized up front (DBPal's dialect only permits
//! uncorrelated nesting, paper §5.2). Per-row evaluation reads values in
//! place through the [`Row`] trait and borrows them, so it allocates only
//! when a HAVING clause computes an aggregate.

use crate::{Database, EngineError};
use dbpal_schema::Value;
use dbpal_sql::{AggArg, AggFunc, CmpOp, Pred, Query, Scalar};
use std::borrow::Cow;

/// A compiled scalar: either a row offset or a constant (literals and
/// pre-evaluated scalar subqueries).
#[derive(Debug, Clone)]
pub(crate) enum EScalar {
    Col(usize),
    Const(Value),
    /// Aggregate over the current group (HAVING only).
    Agg(AggFunc, EAggArg),
}

/// Compiled aggregate argument.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EAggArg {
    Star,
    Col(usize),
}

/// A compiled predicate.
#[derive(Debug, Clone)]
pub(crate) enum EPred {
    And(Vec<EPred>),
    Or(Vec<EPred>),
    Not(Box<EPred>),
    Compare {
        left: EScalar,
        op: CmpOp,
        right: EScalar,
    },
    Between {
        col: usize,
        low: EScalar,
        high: EScalar,
    },
    InSet {
        scalar: EScalar,
        set: Vec<Value>,
        negated: bool,
    },
    /// Pre-evaluated EXISTS.
    Const(bool),
    Like {
        col: usize,
        /// Lowercased by [`compile_like`].
        pattern: Vec<char>,
        negated: bool,
    },
    IsNull {
        col: usize,
        negated: bool,
    },
}

/// Resolves column references against the current FROM scope.
pub(crate) trait ColumnResolver {
    fn resolve(&self, col: &dbpal_sql::ColumnRef) -> Result<usize, EngineError>;
}

/// Whether aggregates are permitted while compiling (HAVING vs WHERE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggMode {
    Forbidden,
    Allowed,
}

pub(crate) fn compile_scalar(
    s: &Scalar,
    resolver: &dyn ColumnResolver,
    db: &Database,
    agg: AggMode,
) -> Result<EScalar, EngineError> {
    match s {
        Scalar::Column(c) => Ok(EScalar::Col(resolver.resolve(c)?)),
        Scalar::Literal(v) => Ok(EScalar::Const(v.clone())),
        Scalar::Placeholder(p) => Err(EngineError::UnboundPlaceholder(p.clone())),
        Scalar::Aggregate(f, arg) => {
            if agg == AggMode::Forbidden {
                return Err(EngineError::Invalid(
                    "aggregate expression outside HAVING/SELECT".into(),
                ));
            }
            let arg = match arg {
                AggArg::Star => EAggArg::Star,
                AggArg::Column(c) => EAggArg::Col(resolver.resolve(c)?),
            };
            Ok(EScalar::Agg(*f, arg))
        }
        Scalar::Subquery(q) => {
            let v = eval_scalar_subquery(db, q)?;
            Ok(EScalar::Const(v))
        }
    }
}

/// Evaluate a scalar subquery to a single value. Empty results yield NULL
/// (SQL semantics); multi-row/column results are errors.
pub(crate) fn eval_scalar_subquery(db: &Database, q: &Query) -> Result<Value, EngineError> {
    let result = db.execute(q)?;
    match (result.row_count(), result.column_count()) {
        (0, 1) => Ok(Value::Null),
        (1, 1) => Ok(result.rows()[0][0].clone()),
        (rows, cols) => Err(EngineError::ScalarSubqueryShape { rows, cols }),
    }
}

pub(crate) fn compile_pred(
    p: &Pred,
    resolver: &dyn ColumnResolver,
    db: &Database,
    agg: AggMode,
) -> Result<EPred, EngineError> {
    match p {
        Pred::And(ps) => Ok(EPred::And(
            ps.iter()
                .map(|p| compile_pred(p, resolver, db, agg))
                .collect::<Result<_, _>>()?,
        )),
        Pred::Or(ps) => Ok(EPred::Or(
            ps.iter()
                .map(|p| compile_pred(p, resolver, db, agg))
                .collect::<Result<_, _>>()?,
        )),
        Pred::Not(p) => Ok(EPred::Not(Box::new(compile_pred(p, resolver, db, agg)?))),
        Pred::Compare { left, op, right } => Ok(EPred::Compare {
            left: compile_scalar(left, resolver, db, agg)?,
            op: *op,
            right: compile_scalar(right, resolver, db, agg)?,
        }),
        Pred::Between { col, low, high } => Ok(EPred::Between {
            col: resolver.resolve(col)?,
            low: compile_scalar(low, resolver, db, agg)?,
            high: compile_scalar(high, resolver, db, agg)?,
        }),
        Pred::InList {
            col,
            values,
            negated,
        } => {
            let mut set = Vec::with_capacity(values.len());
            for v in values {
                match compile_scalar(v, resolver, db, agg)? {
                    EScalar::Const(v) => set.push(v),
                    _ => {
                        return Err(EngineError::Invalid(
                            "IN list elements must be constants".into(),
                        ))
                    }
                }
            }
            Ok(EPred::InSet {
                scalar: EScalar::Col(resolver.resolve(col)?),
                set,
                negated: *negated,
            })
        }
        Pred::InSubquery {
            col,
            query,
            negated,
        } => {
            let result = db.execute(query)?;
            if result.column_count() != 1 {
                return Err(EngineError::InSubqueryShape {
                    cols: result.column_count(),
                });
            }
            let set: Vec<Value> = result.rows().iter().map(|r| r[0].clone()).collect();
            Ok(EPred::InSet {
                scalar: EScalar::Col(resolver.resolve(col)?),
                set,
                negated: *negated,
            })
        }
        Pred::Exists { query, negated } => {
            let result = db.execute(query)?;
            Ok(EPred::Const(result.row_count() > 0).negate_if(*negated))
        }
        Pred::Like {
            col,
            pattern,
            negated,
        } => {
            let pattern = match compile_scalar(pattern, resolver, db, agg)? {
                EScalar::Const(Value::Text(s)) => compile_like(&s),
                _ => {
                    return Err(EngineError::Invalid(
                        "LIKE pattern must be a string constant".into(),
                    ))
                }
            };
            Ok(EPred::Like {
                col: resolver.resolve(col)?,
                pattern,
                negated: *negated,
            })
        }
        Pred::IsNull { col, negated } => Ok(EPred::IsNull {
            col: resolver.resolve(col)?,
            negated: *negated,
        }),
    }
}

impl EPred {
    fn negate_if(self, negated: bool) -> EPred {
        if negated {
            EPred::Not(Box::new(self))
        } else {
            self
        }
    }
}

/// Column access for one row of the (joined) row set. The executor reads
/// values in place from column storage through this; nothing is copied
/// per row.
pub(crate) trait Row {
    /// The value at combined column offset `col`.
    fn value(&self, col: usize) -> &Value;
}

#[cfg(test)]
impl Row for &[Value] {
    fn value(&self, col: usize) -> &Value {
        &self[col]
    }
}

/// Columns and constants are borrowed; only aggregates produce a value.
pub(crate) fn eval_scalar<'a, R: Row>(
    s: &'a EScalar,
    row: &'a R,
    group: Option<&[R]>,
) -> Cow<'a, Value> {
    match s {
        EScalar::Col(i) => Cow::Borrowed(row.value(*i)),
        EScalar::Const(v) => Cow::Borrowed(v),
        EScalar::Agg(f, arg) => Cow::Owned(match group {
            Some(rows) => compute_aggregate(*f, *arg, rows),
            None => Value::Null,
        }),
    }
}

/// Three-valued predicate evaluation: `None` is SQL "unknown". `group`
/// holds the rows of the current group during HAVING and is `None`
/// during WHERE filtering.
pub(crate) fn eval_pred<R: Row>(p: &EPred, row: &R, group: Option<&[R]>) -> Option<bool> {
    match p {
        EPred::And(ps) => {
            let mut saw_unknown = false;
            for p in ps {
                match eval_pred(p, row, group) {
                    Some(false) => return Some(false),
                    None => saw_unknown = true,
                    Some(true) => {}
                }
            }
            if saw_unknown {
                None
            } else {
                Some(true)
            }
        }
        EPred::Or(ps) => {
            let mut saw_unknown = false;
            for p in ps {
                match eval_pred(p, row, group) {
                    Some(true) => return Some(true),
                    None => saw_unknown = true,
                    Some(false) => {}
                }
            }
            if saw_unknown {
                None
            } else {
                Some(false)
            }
        }
        EPred::Not(p) => eval_pred(p, row, group).map(|b| !b),
        EPred::Compare { left, op, right } => {
            let l = eval_scalar(left, row, group);
            let r = eval_scalar(right, row, group);
            let ord = l.sql_cmp(&r)?;
            Some(match op {
                CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                CmpOp::NotEq => ord != std::cmp::Ordering::Equal,
                CmpOp::Lt => ord == std::cmp::Ordering::Less,
                CmpOp::LtEq => ord != std::cmp::Ordering::Greater,
                CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                CmpOp::GtEq => ord != std::cmp::Ordering::Less,
            })
        }
        EPred::Between { col, low, high } => {
            let v = row.value(*col);
            let lo = eval_scalar(low, row, group);
            let hi = eval_scalar(high, row, group);
            let ge = v.sql_cmp(&lo)? != std::cmp::Ordering::Less;
            let le = v.sql_cmp(&hi)? != std::cmp::Ordering::Greater;
            Some(ge && le)
        }
        EPred::InSet {
            scalar,
            set,
            negated,
        } => {
            let v = eval_scalar(scalar, row, group);
            if v.is_null() {
                return None;
            }
            let mut saw_null = false;
            for candidate in set {
                match v.sql_eq(candidate) {
                    Some(true) => return Some(!negated),
                    None => saw_null = true,
                    Some(false) => {}
                }
            }
            if saw_null {
                None
            } else {
                Some(*negated)
            }
        }
        EPred::Const(b) => Some(*b),
        EPred::Like {
            col,
            pattern,
            negated,
        } => match row.value(*col) {
            Value::Null => None,
            Value::Text(s) => Some(like_match(s, pattern) != *negated),
            _ => Some(*negated),
        },
        EPred::IsNull { col, negated } => Some(row.value(*col).is_null() != *negated),
    }
}

/// Compute an aggregate over a group of rows. NULLs are skipped for
/// column aggregates; `COUNT(*)` counts every row. Empty inputs yield
/// NULL except for COUNT, which yields 0.
pub(crate) fn compute_aggregate<R: Row>(f: AggFunc, arg: EAggArg, rows: &[R]) -> Value {
    match (f, arg) {
        (AggFunc::Count, EAggArg::Star) => Value::Int(rows.len() as i64),
        (AggFunc::Count, EAggArg::Col(i)) => {
            Value::Int(rows.iter().filter(|r| !r.value(i).is_null()).count() as i64)
        }
        (_, EAggArg::Star) => {
            // SUM(*)/AVG(*)/MIN(*)/MAX(*) are not valid SQL; treat as NULL.
            Value::Null
        }
        (AggFunc::Sum, EAggArg::Col(i)) => {
            let mut int_sum: i64 = 0;
            let mut float_sum: f64 = 0.0;
            let mut any = false;
            let mut all_int = true;
            for r in rows {
                match r.value(i) {
                    Value::Null => {}
                    Value::Int(v) => {
                        any = true;
                        int_sum = int_sum.wrapping_add(*v);
                        float_sum += *v as f64;
                    }
                    Value::Float(v) => {
                        any = true;
                        all_int = false;
                        float_sum += v;
                    }
                    _ => return Value::Null,
                }
            }
            if !any {
                Value::Null
            } else if all_int {
                Value::Int(int_sum)
            } else {
                Value::Float(float_sum)
            }
        }
        (AggFunc::Avg, EAggArg::Col(i)) => {
            let mut sum = 0.0;
            let mut n = 0usize;
            for r in rows {
                if let Some(v) = r.value(i).as_f64() {
                    sum += v;
                    n += 1;
                }
            }
            if n == 0 {
                Value::Null
            } else {
                Value::Float(sum / n as f64)
            }
        }
        (AggFunc::Min, EAggArg::Col(i)) | (AggFunc::Max, EAggArg::Col(i)) => {
            let mut best: Option<&Value> = None;
            for r in rows {
                let v = r.value(i);
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match v.sql_cmp(b) {
                            Some(std::cmp::Ordering::Less) => f == AggFunc::Min,
                            Some(std::cmp::Ordering::Greater) => f == AggFunc::Max,
                            _ => false,
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            best.cloned().unwrap_or(Value::Null)
        }
    }
}

/// Lowercase a LIKE pattern once, at compile time.
pub(crate) fn compile_like(pattern: &str) -> Vec<char> {
    pattern.to_lowercase().chars().collect()
}

/// SQL LIKE matching against a pattern from [`compile_like`]: `%` matches
/// any sequence, `_` any single character. Matching is case-insensitive,
/// mirroring common collations and giving the NLIDB forgiving string
/// search. ASCII values are lowercased byte by byte without allocating;
/// other values are lowercased with full Unicode rules first.
pub(crate) fn like_match(s: &str, pattern: &[char]) -> bool {
    if s.is_ascii() {
        let bytes = s.as_bytes();
        wildcard_match(
            bytes.len(),
            |i| char::from(bytes[i].to_ascii_lowercase()),
            pattern,
        )
    } else {
        let lower: Vec<char> = s.to_lowercase().chars().collect();
        wildcard_match(lower.len(), |i| lower[i], pattern)
    }
}

/// Iterative wildcard matching over `len` characters read through `at`.
/// On a mismatch it backtracks only to the most recent `%`, letting that
/// `%` absorb one more character, so the work is O(len · |pattern|)
/// whatever the number of `%` signs.
fn wildcard_match(len: usize, at: impl Fn(usize) -> char, p: &[char]) -> bool {
    let (mut si, mut pi) = (0, 0);
    // (pattern index after the last `%`, text index that `%` resumes at)
    let mut resume: Option<(usize, usize)> = None;
    while si < len {
        match p.get(pi) {
            Some('%') => {
                pi += 1;
                resume = Some((pi, si));
            }
            Some(&c) if c == '_' || c == at(si) => {
                pi += 1;
                si += 1;
            }
            _ => match resume {
                Some((rp, rs)) => {
                    pi = rp;
                    si = rs + 1;
                    resume = Some((rp, rs + 1));
                }
                None => return false,
            },
        }
    }
    p[pi..].iter().all(|&c| c == '%')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn like(s: &str, pattern: &str) -> bool {
        like_match(s, &compile_like(pattern))
    }

    /// The recursive matcher `like_match` replaced. It backtracks at
    /// every `%`, costing O(|s|^k) for k `%` signs; kept as the
    /// reference the iterative matcher must agree with.
    fn like_reference(s: &str, pattern: &str) -> bool {
        fn inner(s: &[char], p: &[char]) -> bool {
            match p.first() {
                None => s.is_empty(),
                Some('%') => (0..=s.len()).any(|i| inner(&s[i..], &p[1..])),
                Some('_') => !s.is_empty() && inner(&s[1..], &p[1..]),
                Some(c) => s.first() == Some(c) && inner(&s[1..], &p[1..]),
            }
        }
        let s: Vec<char> = s.to_lowercase().chars().collect();
        let p: Vec<char> = pattern.to_lowercase().chars().collect();
        inner(&s, &p)
    }

    #[test]
    fn like_basics() {
        assert!(like("hello", "hello"));
        assert!(like("hello", "h%"));
        assert!(like("hello", "%llo"));
        assert!(like("hello", "%ell%"));
        assert!(like("hello", "h_llo"));
        assert!(!like("hello", "h_go"));
        assert!(!like("hello", "hell"));
        assert!(like("", "%"));
        assert!(!like("", "_"));
    }

    #[test]
    fn like_is_case_insensitive() {
        assert!(like("Hello", "hello"));
        assert!(like("HELLO", "%ell%"));
        assert!(like("ÉCOLE", "%col_"));
        assert!(like("école", "ÉCOLE"));
    }

    /// The iterative matcher agrees with the recursive reference over a
    /// small alphabet (mixed case, one non-ASCII letter) plus `%` and `_`.
    #[test]
    fn like_matches_recursive_reference() {
        dbpal_util::forall!(cases = 512, |rng| {
            let s = dbpal_util::check::string_from(rng, &['a', 'b', 'A', 'é'], 0..=8);
            let p = dbpal_util::check::string_from(rng, &['a', 'B', 'É', '%', '_'], 0..=6);
            assert_eq!(like(&s, &p), like_reference(&s, &p), "{s:?} LIKE {p:?}");
        });
    }

    /// Twenty `%a` groups against forty `a`s: the recursive matcher
    /// explores on the order of C(40, 20) splits before failing; the
    /// iterative one does at most 40 × 41 steps.
    #[test]
    fn like_pathological_pattern_is_bounded() {
        let s = "a".repeat(40);
        let many = "%a".repeat(20);
        assert!(!like(&s, &format!("{many}b")));
        assert!(like(&s, &format!("{many}%")));
        assert!(like(&s, &many));
    }

    #[test]
    fn aggregates_over_empty_group() {
        let rows: Vec<&[Value]> = vec![];
        assert_eq!(
            compute_aggregate(AggFunc::Count, EAggArg::Star, &rows),
            Value::Int(0)
        );
        assert_eq!(
            compute_aggregate(AggFunc::Sum, EAggArg::Col(0), &rows),
            Value::Null
        );
        assert_eq!(
            compute_aggregate(AggFunc::Min, EAggArg::Col(0), &rows),
            Value::Null
        );
    }

    #[test]
    fn aggregates_skip_nulls() {
        let r1 = [Value::Int(10)];
        let r2 = [Value::Null];
        let r3 = [Value::Int(20)];
        let rows: Vec<&[Value]> = vec![&r1, &r2, &r3];
        assert_eq!(
            compute_aggregate(AggFunc::Count, EAggArg::Col(0), &rows),
            Value::Int(2)
        );
        assert_eq!(
            compute_aggregate(AggFunc::Count, EAggArg::Star, &rows),
            Value::Int(3)
        );
        assert_eq!(
            compute_aggregate(AggFunc::Sum, EAggArg::Col(0), &rows),
            Value::Int(30)
        );
        assert_eq!(
            compute_aggregate(AggFunc::Avg, EAggArg::Col(0), &rows),
            Value::Float(15.0)
        );
        assert_eq!(
            compute_aggregate(AggFunc::Min, EAggArg::Col(0), &rows),
            Value::Int(10)
        );
        assert_eq!(
            compute_aggregate(AggFunc::Max, EAggArg::Col(0), &rows),
            Value::Int(20)
        );
    }

    #[test]
    fn sum_mixes_int_and_float() {
        let r1 = [Value::Int(1)];
        let r2 = [Value::Float(0.5)];
        let rows: Vec<&[Value]> = vec![&r1, &r2];
        assert_eq!(
            compute_aggregate(AggFunc::Sum, EAggArg::Col(0), &rows),
            Value::Float(1.5)
        );
    }
}
