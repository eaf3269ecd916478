//! Table-driven rule tests: one firing and one non-firing fixture per
//! `L###` code (the mutation-test style `dbpal-analyze` uses). The
//! fixture path matters — several rules scope by workspace location —
//! so every case carries the synthetic path it pretends to live at.

use dbpal_lint::analyze_source;

struct Case {
    name: &'static str,
    /// Synthetic workspace-relative path (rules scope by it).
    path: &'static str,
    src: &'static str,
    /// The rule code under test.
    code: &'static str,
    /// Expected number of findings with that code.
    expect: usize,
}

const CASES: &[Case] = &[
    // ---- L001 TIME -----------------------------------------------------
    Case {
        name: "time_fires_on_instant",
        path: "crates/core/src/x.rs",
        src: "fn f() { let t = Instant::now(); }",
        code: "L001",
        expect: 1,
    },
    Case {
        name: "time_fires_on_systemtime",
        path: "crates/core/src/x.rs",
        src: "fn f() { let t = SystemTime::now(); }",
        code: "L001",
        expect: 1,
    },
    Case {
        name: "time_ignores_comments_and_strings",
        path: "crates/core/src/x.rs",
        src: "// Instant is banned\nfn f() { let s = \"SystemTime\"; let r = r#\"Instant\"#; }",
        code: "L001",
        expect: 0,
    },
    Case {
        name: "time_ignores_test_code",
        path: "crates/core/src/x.rs",
        src: "#[cfg(test)] mod tests { fn f() { let t = Instant::now(); } }",
        code: "L001",
        expect: 0,
    },
    // ---- L002 SPAWN ----------------------------------------------------
    Case {
        name: "spawn_fires_on_thread_spawn",
        path: "crates/core/src/x.rs",
        src: "fn f() { std::thread::spawn(|| {}); }",
        code: "L002",
        expect: 1,
    },
    Case {
        name: "spawn_fires_on_thread_scope",
        path: "crates/core/src/x.rs",
        src: "fn f() { thread::scope(|s| {}); }",
        code: "L002",
        expect: 1,
    },
    Case {
        name: "spawn_ignores_other_spawns",
        path: "crates/core/src/x.rs",
        src: "fn f() { pool::spawn(|| {}); let s = \"thread::spawn\"; }",
        code: "L002",
        expect: 0,
    },
    // ---- L003 HASHITER -------------------------------------------------
    Case {
        name: "hashiter_fires_when_item_serializes",
        path: "crates/core/src/x.rs",
        src: "impl Report { fn counts(&self) -> HashMap<String, u32> { todo() } fn to_json(&self) -> Json { Json::Obj(vec![]) } }",
        code: "L003",
        expect: 1,
    },
    Case {
        name: "hashiter_quiet_when_serializer_is_another_item",
        path: "crates/core/src/x.rs",
        src: "fn counts() -> HashMap<String, u32> { HashMap::new() } fn to_json() -> Json { Json::Obj(vec![]) }",
        code: "L003",
        expect: 0,
    },
    Case {
        name: "hashiter_quiet_without_serialization",
        path: "crates/core/src/x.rs",
        src: "impl Cache { fn map(&self) -> &HashMap<String, u32> { &self.m } }",
        code: "L003",
        expect: 0,
    },
    // ---- L010 PANIC ----------------------------------------------------
    Case {
        name: "panic_fires_on_unwrap_in_serve",
        path: "crates/serve/src/conn.rs",
        src: "fn f(x: Option<u8>) -> u8 { x.unwrap() }",
        code: "L010",
        expect: 1,
    },
    Case {
        name: "panic_fires_on_panic_macro_in_frame",
        path: "crates/util/src/frame.rs",
        src: "fn f() { panic!(\"boom\"); }",
        code: "L010",
        expect: 1,
    },
    Case {
        name: "panic_quiet_outside_scope",
        path: "crates/core/src/x.rs",
        src: "fn f(x: Option<u8>) -> u8 { x.unwrap() }",
        code: "L010",
        expect: 0,
    },
    Case {
        name: "panic_quiet_in_test_fn",
        path: "crates/serve/src/conn.rs",
        src: "#[test] fn t(x: Option<u8>) { x.unwrap(); }",
        code: "L010",
        expect: 0,
    },
    // ---- L011 INDEX ----------------------------------------------------
    Case {
        name: "index_fires_in_net",
        path: "crates/serve/src/net/conn.rs",
        src: "fn f(buf: &[u8]) -> u8 { buf[0] }",
        code: "L011",
        expect: 1,
    },
    Case {
        name: "index_quiet_outside_net",
        path: "crates/serve/src/service.rs",
        src: "fn f(buf: &[u8]) -> u8 { buf[0] }",
        code: "L011",
        expect: 0,
    },
    Case {
        name: "index_quiet_on_mut_slice_type",
        path: "crates/serve/src/net/conn.rs",
        src: "fn f(buf: &mut [u8]) {}",
        code: "L011",
        expect: 0,
    },
    // ---- L020 LOCKORDER ------------------------------------------------
    Case {
        name: "lockorder_fires_on_nlidb_after_cache",
        path: "crates/serve/src/service.rs",
        src: "fn f(&self) { let c = self.cache.lock(); let g = self.tenants[0].nlidb.read(); }",
        code: "L020",
        expect: 1,
    },
    Case {
        name: "lockorder_fires_on_decreasing_tenant_index",
        path: "crates/serve/src/service.rs",
        src: "fn f(&self) { let a = self.tenants[1].nlidb.read(); let b = self.tenants[0].nlidb.write(); }",
        code: "L020",
        expect: 1,
    },
    Case {
        name: "lockorder_quiet_in_canonical_order",
        path: "crates/serve/src/service.rs",
        src: "fn f(&self) { let g = self.tenants[0].nlidb.read(); let c = self.cache.lock(); }",
        code: "L020",
        expect: 0,
    },
    Case {
        name: "lockorder_per_fn_not_per_file",
        path: "crates/serve/src/service.rs",
        src: "fn a(&self) { let c = self.cache.lock(); } fn b(&self) { let g = self.tenants[0].nlidb.read(); }",
        code: "L020",
        expect: 0,
    },
    // ---- L030 HOTCLONE -------------------------------------------------
    Case {
        name: "hotclone_fires_in_anonymize",
        path: "crates/runtime/src/x.rs",
        src: "fn anonymize(&self) -> String { self.text.clone() }",
        code: "L030",
        expect: 1,
    },
    Case {
        name: "hotclone_fires_on_format_in_cache_key",
        path: "crates/runtime/src/x.rs",
        src: "fn cache_key_for(&self, t: &str) -> String { format!(\"{t}\") }",
        code: "L030",
        expect: 1,
    },
    Case {
        name: "hotclone_fires_on_clone_in_eval_scalar",
        path: "crates/engine/src/eval.rs",
        src: "fn eval_scalar(s: &EScalar, row: &[Value]) -> Value { row[0].clone() }",
        code: "L030",
        expect: 1,
    },
    Case {
        name: "hotclone_fires_on_format_in_eval_pred",
        path: "crates/engine/src/eval.rs",
        src: "fn eval_pred(p: &EPred, row: &[Value]) -> bool { format!(\"{p:?}\").is_empty() }",
        code: "L030",
        expect: 1,
    },
    Case {
        name: "hotclone_quiet_in_borrowing_eval_scalar",
        path: "crates/engine/src/eval.rs",
        src: "fn eval_scalar<'a>(s: &'a EScalar, row: &'a [Value]) -> Cow<'a, Value> { Cow::Borrowed(&row[0]) }",
        code: "L030",
        expect: 0,
    },
    Case {
        name: "hotclone_quiet_in_eval_scalar_subquery",
        path: "crates/engine/src/eval.rs",
        src: "fn eval_scalar_subquery(r: &ResultSet) -> Value { r.rows()[0][0].clone() }",
        code: "L030",
        expect: 0,
    },
    Case {
        name: "hotclone_quiet_in_cold_fn",
        path: "crates/runtime/src/x.rs",
        src: "fn helper(&self) -> String { self.text.clone() }",
        code: "L030",
        expect: 0,
    },
    // ---- L040 ATOMICORD ------------------------------------------------
    Case {
        name: "atomicord_fires_on_seqcst",
        path: "crates/core/src/x.rs",
        src: "fn f(x: &AtomicU64) { x.store(1, Ordering::SeqCst); }",
        code: "L040",
        expect: 1,
    },
    Case {
        name: "atomicord_fires_on_acquire_in_metrics",
        path: "crates/util/src/metrics.rs",
        src: "fn f(x: &AtomicU64) -> u64 { x.load(Ordering::Acquire) }",
        code: "L040",
        expect: 1,
    },
    Case {
        name: "atomicord_quiet_on_relaxed",
        path: "crates/util/src/metrics.rs",
        src: "fn f(x: &AtomicU64) -> u64 { x.load(Ordering::Relaxed) }",
        code: "L040",
        expect: 0,
    },
    Case {
        name: "atomicord_quiet_on_acquire_outside_metrics",
        path: "crates/serve/src/net/server.rs",
        src: "fn f(x: &AtomicBool) -> bool { x.load(Ordering::Acquire) }",
        code: "L040",
        expect: 0,
    },
];

#[test]
fn rule_fixtures() {
    let mut failures = Vec::new();
    for case in CASES {
        let findings = analyze_source(case.path, case.src);
        let hits = findings.iter().filter(|f| f.code == case.code).count();
        if hits != case.expect {
            failures.push(format!(
                "{}: expected {} {} finding(s), got {} — all findings: {:?}",
                case.name,
                case.expect,
                case.code,
                hits,
                findings.iter().map(|f| f.render()).collect::<Vec<_>>()
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// Spans are 1-based and point at the offending token.
#[test]
fn finding_spans_are_exact() {
    let findings = analyze_source(
        "crates/core/src/x.rs",
        "fn f() {\n    let t = Instant::now();\n}",
    );
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].line, 2);
    assert_eq!(findings[0].col, 13);
    assert_eq!(findings[0].item, "f");
}

/// The old grep lint's classes (TIME/SPAWN/HASHITER) stay covered, and
/// the two grep failure modes are fixed: a pattern in a comment no
/// longer fires, and context decides HASHITER instead of the whole
/// file.
#[test]
fn grep_parity_and_improvements() {
    // Grep would have flagged this comment-only file; the lexer doesn't.
    let quiet = analyze_source(
        "crates/core/src/x.rs",
        "// uses SystemTime and thread::spawn and HashMap\nfn f() {}",
    );
    assert!(quiet.is_empty(), "{quiet:?}");

    // Grep flagged any file pairing HashMap with to_json; the rule now
    // requires them in the same item (see hashiter cases above), but
    // still catches the real co-residency grep caught.
    let real = analyze_source(
        "crates/core/src/x.rs",
        "impl Export { fn to_tsv_rows(&self) -> Vec<String> { self.rows(&self.map) } fn rows(&self, m: &HashMap<u8, u8>) -> Vec<String> { vec![] } }",
    );
    assert_eq!(real.iter().filter(|f| f.code == "L003").count(), 1);
}
