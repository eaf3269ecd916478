//! Engine edge cases surfaced while building the fuzzing subsystem:
//! NULL semantics in aggregates and GROUP BY keys, joins over empty
//! tables, LIMIT 0, and ORDER BY tie-breaking (see DESIGN.md,
//! "Fuzzing & differential testing" — ties keep pre-sort row order
//! because the executor compares input position after the sort keys).

use dbpal_engine::Database;
use dbpal_schema::{Schema, SchemaBuilder, SqlType, Value};
use dbpal_sql::parse_query;

fn schema() -> Schema {
    SchemaBuilder::new("edge")
        .table("users", |t| {
            t.column("id", SqlType::Integer)
                .column("score", SqlType::Integer)
                .column("label", SqlType::Text)
                .primary_key("id")
        })
        .table("orders", |t| {
            t.column("id", SqlType::Integer)
                .column("users_id", SqlType::Integer)
                .column("qty", SqlType::Integer)
                .primary_key("id")
        })
        .foreign_key("orders", "users_id", "users", "id")
        .build()
        .unwrap()
}

fn db_with_nulls() -> Database {
    let mut db = Database::new(schema());
    let rows = [
        (1, Some(10), Some("a")),
        (2, None, Some("b")),
        (3, Some(10), None),
        (4, None, Some("a")),
        (5, Some(30), Some("a")),
    ];
    for (id, score, label) in rows {
        db.insert(
            "users",
            vec![
                Value::Int(id),
                score.map_or(Value::Null, Value::Int),
                label.map_or(Value::Null, |l| Value::Text(l.into())),
            ],
        )
        .unwrap();
    }
    db
}

fn run(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    db.execute(&parse_query(sql).unwrap())
        .unwrap()
        .rows()
        .to_vec()
}

#[test]
fn aggregates_skip_nulls() {
    let db = db_with_nulls();
    // scores: 10, NULL, 10, NULL, 30 — aggregates see only non-NULLs.
    assert_eq!(run(&db, "SELECT SUM(score) FROM users"), [[Value::Int(50)]]);
    assert_eq!(run(&db, "SELECT MIN(score) FROM users"), [[Value::Int(10)]]);
    assert_eq!(run(&db, "SELECT MAX(score) FROM users"), [[Value::Int(30)]]);
    // COUNT(col) counts non-NULL values; COUNT(*) counts rows.
    assert_eq!(
        run(&db, "SELECT COUNT(score) FROM users"),
        [[Value::Int(3)]]
    );
    assert_eq!(run(&db, "SELECT COUNT(*) FROM users"), [[Value::Int(5)]]);
    // AVG divides by the non-NULL count, not the row count.
    assert_eq!(
        run(&db, "SELECT AVG(score) FROM users"),
        [[Value::Float(50.0 / 3.0)]]
    );
}

#[test]
fn global_aggregate_over_empty_input_is_one_row() {
    let db = Database::new(schema());
    assert_eq!(run(&db, "SELECT COUNT(*) FROM users"), [[Value::Int(0)]]);
    assert_eq!(
        run(&db, "SELECT COUNT(score) FROM users"),
        [[Value::Int(0)]]
    );
    // Non-count aggregates over zero rows yield NULL, not an error.
    assert_eq!(run(&db, "SELECT SUM(score) FROM users"), [[Value::Null]]);
    assert_eq!(run(&db, "SELECT AVG(score) FROM users"), [[Value::Null]]);
    assert_eq!(run(&db, "SELECT MIN(score) FROM users"), [[Value::Null]]);
}

#[test]
fn null_group_keys_form_a_single_group() {
    let db = db_with_nulls();
    let rows = run(
        &db,
        "SELECT score, COUNT(*) FROM users GROUP BY score ORDER BY score",
    );
    // Both NULL scores land in one group; NULL sorts before numbers.
    assert_eq!(
        rows,
        [
            [Value::Null, Value::Int(2)],
            [Value::Int(10), Value::Int(2)],
            [Value::Int(30), Value::Int(1)],
        ]
    );
}

#[test]
fn all_null_group_aggregates_to_null() {
    let db = db_with_nulls();
    let rows = run(
        &db,
        "SELECT label, SUM(score) FROM users GROUP BY label ORDER BY label",
    );
    // label NULL group holds only the score=10 row; label 'b' holds only
    // a NULL score, so its SUM is NULL.
    assert_eq!(
        rows,
        [
            [Value::Null, Value::Int(10)],
            [Value::Text("a".into()), Value::Int(40)],
            [Value::Text("b".into()), Value::Null],
        ]
    );
}

#[test]
fn joins_over_empty_tables_are_empty_not_errors() {
    // Both sides present but empty.
    let db = Database::new(schema());
    assert!(run(
        &db,
        "SELECT users.id FROM users, orders WHERE orders.users_id = users.id"
    )
    .is_empty());

    // One populated side, one empty side.
    let mut db = Database::new(schema());
    db.insert(
        "users",
        vec![Value::Int(1), Value::Int(5), Value::Text("a".into())],
    )
    .unwrap();
    assert!(run(
        &db,
        "SELECT users.id FROM users, orders WHERE orders.users_id = users.id"
    )
    .is_empty());
    // And the bare cross product is empty too.
    assert!(run(&db, "SELECT users.id FROM users, orders").is_empty());
}

#[test]
fn limit_zero_yields_no_rows() {
    let db = db_with_nulls();
    assert!(run(&db, "SELECT id FROM users LIMIT 0").is_empty());
    assert!(run(
        &db,
        "SELECT score, COUNT(*) FROM users GROUP BY score LIMIT 0"
    )
    .is_empty());
    // LIMIT larger than the result is a no-op.
    assert_eq!(run(&db, "SELECT id FROM users LIMIT 99").len(), 5);
}

#[test]
fn order_by_ties_keep_insertion_order() {
    let db = db_with_nulls();
    // score=10 ties: ids 1 and 3; score NULL ties: ids 2 and 4. The
    // executor's sort is stable, so ties keep pre-sort (insertion) order.
    let rows = run(&db, "SELECT id, score FROM users ORDER BY score");
    let ids: Vec<&Value> = rows.iter().map(|r| &r[0]).collect();
    assert_eq!(
        ids,
        [
            &Value::Int(2),
            &Value::Int(4),
            &Value::Int(1),
            &Value::Int(3),
            &Value::Int(5),
        ]
    );
    // Descending flips key order but not tie order.
    let rows = run(&db, "SELECT id, score FROM users ORDER BY score DESC");
    let ids: Vec<&Value> = rows.iter().map(|r| &r[0]).collect();
    assert_eq!(
        ids,
        [
            &Value::Int(5),
            &Value::Int(1),
            &Value::Int(3),
            &Value::Int(2),
            &Value::Int(4),
        ]
    );
}

#[test]
fn order_by_ties_in_joins_keep_cross_product_order() {
    let mut db = Database::new(schema());
    for id in 1..=2 {
        db.insert(
            "users",
            vec![Value::Int(id), Value::Int(7), Value::Text("x".into())],
        )
        .unwrap();
    }
    for id in 1..=2 {
        db.insert(
            "orders",
            vec![Value::Int(id), Value::Int(3 - id), Value::Int(1)],
        )
        .unwrap();
    }
    // Every row ties on score; the result keeps cross-product order
    // (outer FROM table major, inner minor).
    let rows = run(
        &db,
        "SELECT users.id, orders.id FROM users, orders ORDER BY users.score",
    );
    assert_eq!(
        rows,
        [
            [Value::Int(1), Value::Int(1)],
            [Value::Int(1), Value::Int(2)],
            [Value::Int(2), Value::Int(1)],
            [Value::Int(2), Value::Int(2)],
        ]
    );
}
