//! The serving path: a bootstrapped `SketchModel` behind the in-crate TCP
//! server, driven by a closed-loop load generator in this process.

use std::collections::{BTreeMap, HashMap};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dbpal_benchsuite::{LinguisticCategory, PatientsBenchmark};
use dbpal_core::{GenerationConfig, TrainOptions, TranslationModel};
use dbpal_engine::Database;
use dbpal_model::SketchModel;
use dbpal_runtime::{Nlidb, NlidbResponse, PostProcessor, RuntimeError, ValueIndex};
use dbpal_schema::Value;
use dbpal_serve::net::{
    serve, Client, QueryOutcome, Request, Response, ServerConfig, ServerHandle,
};
use dbpal_serve::{QueryService, ServeConfig, ServeError, ServeResponse, DEFAULT_TENANT};
use dbpal_util::{stream_seed, Rng, SliceRandom};

use crate::procfs;
use crate::trace::Tracer;

/// Fresh constant fills per Patients phrasing in `serve_patients`.
const PATIENTS_FILLS: usize = 4;
/// Questions per frame in `serve_patients`.
const PATIENTS_FRAME: usize = 32;
/// Rows in the `serve_bigdb` Patients table.
const BIGDB_ROWS: usize = 2000;
/// Fresh constant fills per Naive phrasing in `serve_bigdb`.
const BIGDB_FILLS: usize = 8;
/// Questions per frame in `serve_bigdb`.
const BIGDB_FRAME: usize = 8;
/// Time between `replace_tenant` calls in `serve_bigdb`.
pub const SWAP_INTERVAL: Duration = Duration::from_millis(500);

/// Load threads, each with one connection. One: a second client made
/// every figure less steady on two cores, and the load must never use
/// more threads than the machine has cores.
pub const LOAD_THREADS: usize = 1;

/// The two serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// All 399 Patients phrasings on the 21-row fixture, 32 per frame.
    Patients,
    /// The 57 Naive phrasings on a 2,000-row table, eight per frame,
    /// with periodic database swaps.
    BigDb,
}

/// Everything a serving run sends, built from the seed before any
/// timing starts.
pub struct ServeInput {
    /// The tenant database.
    pub db: Database,
    /// Question frames in send order (cycled by the load thread).
    pub frames: Vec<Vec<String>>,
    /// Seed for rebuilding the database with identical content.
    pub seed: u64,
}

impl ServeInput {
    /// Build the inputs of `traffic` for `seed`.
    pub fn new(traffic: Traffic, seed: u64) -> Self {
        let bench = PatientsBenchmark::new();
        let mut rng = Rng::seed_from_u64(stream_seed(seed, 3));
        match traffic {
            Traffic::Patients => {
                let db = bench.database().clone();
                let templates: Vec<&str> = bench.queries().iter().map(|q| q.nl.as_str()).collect();
                let questions = fill_all(&templates, PATIENTS_FILLS, &db, &mut rng);
                ServeInput {
                    db,
                    frames: questions
                        .chunks(PATIENTS_FRAME)
                        .map(<[String]>::to_vec)
                        .collect(),
                    seed,
                }
            }
            Traffic::BigDb => {
                let db = big_database(seed);
                let templates: Vec<&str> = bench
                    .queries_in(LinguisticCategory::Naive)
                    .into_iter()
                    .map(|q| q.nl.as_str())
                    .collect();
                let questions = fill_all(&templates, BIGDB_FILLS, &db, &mut rng);
                ServeInput {
                    db,
                    frames: questions
                        .chunks(BIGDB_FRAME)
                        .map(<[String]>::to_vec)
                        .collect(),
                    seed,
                }
            }
        }
    }

    /// Every question, in frame order.
    pub fn questions(&self) -> impl Iterator<Item = &String> {
        self.frames.iter().flatten()
    }
}

/// Distinct values of every Patients column, rendered as question text.
fn column_values(db: &Database) -> BTreeMap<String, Vec<String>> {
    let table = &db.schema().tables()[0];
    table
        .columns()
        .iter()
        .map(|c| {
            let mut values = db
                .distinct_values(table.name(), c.name())
                .expect("column exists");
            values.sort_by(Value::total_cmp);
            let rendered = values
                .iter()
                .map(|v| match v {
                    Value::Text(s) => s.clone(),
                    other => other.to_sql_literal(),
                })
                .collect();
            (c.name().to_string(), rendered)
        })
        .collect()
}

/// The column a placeholder stands for: `@AGE_LOW` → `age`,
/// `@DISEASE_2` → `disease`, `@LENGTH_OF_STAY` → `length_of_stay`.
fn placeholder_column<'c>(
    placeholder: &str,
    columns: &'c BTreeMap<String, Vec<String>>,
) -> Option<&'c str> {
    let mut name = placeholder.to_lowercase();
    loop {
        if let Some((key, _)) = columns.get_key_value(&name) {
            return Some(key);
        }
        let cut = name.rfind('_')?;
        name.truncate(cut);
    }
}

/// Replace every `@PLACEHOLDER` in `template` with a value drawn from the
/// matching column.
fn fill_question(template: &str, columns: &BTreeMap<String, Vec<String>>, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(template.len() + 16);
    let mut rest = template;
    while let Some(at) = rest.find('@') {
        out.push_str(&rest[..at]);
        let tail = &rest[at + 1..];
        let len = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        let column = placeholder_column(&tail[..len], columns)
            .unwrap_or_else(|| panic!("no column for placeholder @{}", &tail[..len]));
        out.push_str(
            columns[column]
                .choose(rng)
                .expect("every column holds values"),
        );
        rest = &tail[len..];
    }
    out.push_str(rest);
    out
}

/// `fills` fresh fills of every template, shuffled.
fn fill_all(templates: &[&str], fills: usize, db: &Database, rng: &mut Rng) -> Vec<String> {
    let columns = column_values(db);
    let mut out: Vec<String> = (0..fills)
        .flat_map(|_| templates.to_vec())
        .map(|t| fill_question(t, &columns, rng))
        .collect();
    out.shuffle(rng);
    out
}

const SYLLABLES: [&str; 24] = [
    "ka", "lo", "mi", "nu", "pe", "ra", "si", "to", "vu", "ze", "bo", "da", "fe", "gi", "ho", "ju",
    "ke", "li", "mo", "na", "po", "ru", "sa", "ti",
];

fn word(rng: &mut Rng, syllables: usize) -> String {
    (0..syllables)
        .map(|_| *SYLLABLES.choose(rng).expect("syllables"))
        .collect()
}

/// The Patients schema re-populated with `BIGDB_ROWS` seeded rows of
/// mostly distinct values. The same seed always rebuilds the same
/// content.
pub fn big_database(seed: u64) -> Database {
    let bench = PatientsBenchmark::new();
    let mut db = Database::new(bench.schema().clone());
    let mut rng = Rng::seed_from_u64(stream_seed(seed, 4));
    let diseases: Vec<String> = (0..BIGDB_ROWS / 10)
        .map(|_| format!("{}itis", word(&mut rng, 2)))
        .collect();
    for _ in 0..BIGDB_ROWS {
        let row = vec![
            Value::Text(word(&mut rng, 3)),
            Value::Int(rng.gen_range(18..=99)),
            Value::Text(diseases.choose(&mut rng).expect("diseases").clone()),
            Value::Int(rng.gen_range(1..=60)),
        ];
        db.insert("patients", row).expect("row fits the schema");
    }
    db
}

/// `Nlidb::bootstrap` on `db` with the default generation and training
/// settings: generate DBPal's synthetic corpus, then train the model.
pub fn bootstrap(db: &Database) -> Nlidb<SketchModel> {
    let mut nlidb = Nlidb::new(db.clone(), SketchModel::new(vec![db.schema().clone()]));
    nlidb.bootstrap(GenerationConfig::default(), &TrainOptions::default());
    nlidb
}

/// Wrap an NLIDB in the default query service and start the TCP server
/// on an ephemeral local port.
pub fn start_server(nlidb: Nlidb<SketchModel>) -> ServerHandle<SketchModel> {
    serve(
        QueryService::new(nlidb, ServeConfig::default()),
        ServerConfig::default(),
    )
    .expect("bind a local port")
}

/// Accuracy on the Patients benchmark.
pub fn accuracy(model: &dyn TranslationModel) -> f64 {
    PatientsBenchmark::new().evaluate(model).1.accuracy()
}

/// The wire digest of an in-process answer.
pub fn answer_digest(result: Result<NlidbResponse, RuntimeError>) -> String {
    let served = result
        .map(|response| ServeResponse {
            cache_hit: false,
            response,
        })
        .map_err(ServeError::Runtime);
    QueryOutcome::from_result(&served).digest_form()
}

/// The offline answer to every distinct question.
pub fn offline_digests<'q>(
    nlidb: &Nlidb<SketchModel>,
    questions: impl Iterator<Item = &'q String>,
) -> HashMap<String, String> {
    let mut out = HashMap::new();
    for q in questions {
        if !out.contains_key(q) {
            out.insert(q.clone(), answer_digest(nlidb.answer(q)));
        }
    }
    out
}

/// Whether a wire outcome is a failure: a shed, or an answer that
/// differs from the offline one.
fn outcome_failed(
    outcome: &QueryOutcome,
    question: &str,
    offline: &HashMap<String, String>,
) -> bool {
    match outcome {
        QueryOutcome::Overloaded { .. } | QueryOutcome::TenantOverloaded { .. } => true,
        _ => offline.get(question) != Some(&outcome.digest_form()),
    }
}

/// Length of one measurement interval: the serving metrics are
/// interquartile means over the intervals of the window, so a burst of
/// host interference spoils one interval rather than the run.
const INTERVAL: Duration = Duration::from_secs(1);

/// One interval of the measured window.
#[derive(Debug, Default, Clone)]
pub struct Interval {
    /// Latency of each request that completed in the interval, in ms.
    pub latencies_ms: Vec<f64>,
    /// Questions answered as the offline evaluator answers them.
    pub answered: usize,
    /// CPU seconds the load thread used.
    pub load_cpu_s: f64,
    /// CPU seconds the whole process used.
    pub process_cpu_s: f64,
}

impl Interval {
    /// Program CPU per answered question, in µs: the process's CPU time
    /// minus the load thread's own.
    pub fn cpu_us_per_question(&self) -> f64 {
        (self.process_cpu_s - self.load_cpu_s) * 1e6 / self.answered.max(1) as f64
    }
}

/// What the load generator saw: accounting over every question it sent,
/// warm-up included, and figures over the measured window.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// The window's intervals, in time order.
    pub intervals: Vec<Interval>,
    /// Questions sent, warm-up included.
    pub questions: usize,
    /// Questions sent that failed (error, shed, timeout or wrong answer).
    pub failed: usize,
    /// Questions of the window answered as the offline evaluator does.
    pub answered: usize,
    /// Answers of the window served from the translation cache.
    pub cached: usize,
    /// Wall time of each `replace_tenant` call, in milliseconds.
    pub swaps_ms: Vec<f64>,
    /// First few failure descriptions.
    pub failures: Vec<String>,
}

impl LoadReport {
    fn fail(&mut self, questions: usize, what: impl FnOnce() -> String) {
        self.failed += questions;
        if self.failures.len() < 5 {
            self.failures.push(what());
        }
    }

    /// Every request latency of the window, in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.intervals
            .iter()
            .flat_map(|i| i.latencies_ms.iter().copied())
            .collect()
    }

    /// Interquartile mean over intervals of `f(interval)`.
    pub fn over_intervals(&self, f: impl Fn(&Interval) -> Option<f64>) -> f64 {
        let per: Vec<f64> = self.intervals.iter().filter_map(f).collect();
        crate::stats::interquartile_mean(&per).unwrap_or(f64::NAN)
    }
}

/// A frame's round trip that came back whole.
struct Exchanged {
    latency_ms: f64,
    answered: usize,
    cached: usize,
}

/// Send one frame on the live connection in `client` and check every
/// answer against the offline one. A wire error drops the connection;
/// every failure is counted in `report`.
fn exchange(
    client: &mut Option<Client>,
    frame: &[String],
    offline: &HashMap<String, String>,
    report: &mut LoadReport,
) -> Option<Exchanged> {
    report.questions += frame.len();
    let t = Instant::now();
    let result = client.as_mut().expect("a live connection").query(frame);
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    let outcomes = match result {
        Ok(outcomes) if outcomes.len() == frame.len() => outcomes,
        Ok(_) => {
            report.fail(frame.len(), || {
                "result count differs from question count".into()
            });
            return None;
        }
        Err(e) => {
            report.fail(frame.len(), || format!("wire error: {e}"));
            *client = None;
            return None;
        }
    };
    let mut done = Exchanged {
        latency_ms,
        answered: 0,
        cached: 0,
    };
    for (q, o) in frame.iter().zip(&outcomes) {
        if outcome_failed(o, q, offline) {
            report.fail(1, || format!("{q:?}: {}", o.digest_form()));
        } else {
            done.answered += 1;
            done.cached += usize::from(matches!(o, QueryOutcome::Answer { cached: true, .. }));
        }
    }
    Some(done)
}

/// Run the closed loop against `handle` from the calling thread, the
/// one load thread: one connection sends frames in a cycle for `warmup`,
/// then for a measured window of whole `INTERVAL`s, reading the
/// process's and its own CPU time at every interval boundary. With
/// `swaps`, a writer thread calls `replace_tenant` with the next
/// database every `SWAP_INTERVAL` of the window.
pub fn closed_loop(
    handle: &ServerHandle<SketchModel>,
    frames: &[Vec<String>],
    offline: &HashMap<String, String>,
    warmup: Duration,
    window: Duration,
    swaps: Vec<Database>,
) -> LoadReport {
    let intervals = (window.as_secs_f64() / INTERVAL.as_secs_f64())
        .round()
        .max(1.0) as usize;
    let with_writer = !swaps.is_empty();
    let window_starts = Barrier::new(1 + usize::from(with_writer));
    let service = handle.service();
    std::thread::scope(|s| {
        let writer = with_writer.then(|| {
            let window_starts = &window_starts;
            s.spawn(move || {
                window_starts.wait();
                let deadline = Instant::now() + window;
                let mut times = Vec::new();
                for db in swaps {
                    std::thread::sleep(SWAP_INTERVAL);
                    if Instant::now() >= deadline {
                        break;
                    }
                    let t = Instant::now();
                    let swapped = service.replace_tenant(DEFAULT_TENANT, db);
                    times.push(t.elapsed().as_secs_f64() * 1e3);
                    swapped.expect("the default tenant exists");
                }
                times
            })
        });

        let mut report = LoadReport {
            intervals: vec![Interval::default(); intervals],
            ..LoadReport::default()
        };
        let mut client = match Client::connect(handle.addr()) {
            Ok(c) => Some(c),
            Err(e) => {
                report.fail(0, || format!("connect: {e}"));
                None
            }
        };
        let mut cycle = frames.iter().cycle();
        let warm_until = Instant::now() + warmup;
        while client.is_some() && Instant::now() < warm_until {
            let frame = cycle.next().expect("at least one frame");
            exchange(&mut client, frame, offline, &mut report);
        }

        window_starts.wait();
        let begin = Instant::now();
        let mut marks = (procfs::process_cpu_s(), procfs::thread_cpu_s());
        let mut current = 0;
        while current < intervals && client.is_some() {
            let frame = cycle.next().expect("at least one frame");
            if let Some(done) = exchange(&mut client, frame, offline, &mut report) {
                let slot = &mut report.intervals[current];
                slot.latencies_ms.push(done.latency_ms);
                slot.answered += done.answered;
                report.answered += done.answered;
                report.cached += done.cached;
            }
            // Close every interval whose boundary has passed.
            let elapsed = begin.elapsed();
            while current < intervals && elapsed >= INTERVAL * (current as u32 + 1) {
                let now = (procfs::process_cpu_s(), procfs::thread_cpu_s());
                let slot = &mut report.intervals[current];
                slot.process_cpu_s = now.0 - marks.0;
                slot.load_cpu_s = now.1 - marks.1;
                marks = now;
                current += 1;
            }
        }
        if let Some(w) = writer {
            report.swaps_ms = w.join().expect("swap thread panicked");
        }
        report
    })
}

/// Counters of the traced serving replay.
#[derive(Debug, Default)]
pub struct ServeCounts {
    /// Questions the model could not translate.
    pub translate_failed: usize,
    /// Post-processing failures.
    pub postprocess_failed: usize,
    /// Execution failures.
    pub execute_failed: usize,
    /// Rows returned by every execution.
    pub execute_rows: usize,
    /// Wire answers served from the cache, and all wire answers.
    pub wire_cached: usize,
    /// Wire answers.
    pub wire_answers: usize,
    /// Operations checked against the offline answers.
    pub attempted: usize,
    /// Checked operations that failed.
    pub failed: usize,
    /// Wall time of the untraced and the traced in-process replay.
    pub replay_wall: (Duration, Duration),
    /// First few failure descriptions.
    pub failures: Vec<String>,
}

impl ServeCounts {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(what());
            }
        }
    }
}

/// Replay `frames` through every serving layer with spans around each
/// call: the `Nlidb` stages in-process on `nlidb`, `submit_batch` and
/// the protocol codecs on the running server's service, one closed-loop
/// connection over the wire, value-index builds and tenant swaps.
/// Every answer is checked against `nlidb.answer`.
pub fn serving_trace(
    tracer: &mut Tracer,
    nlidb: &Nlidb<SketchModel>,
    handle: &ServerHandle<SketchModel>,
    frames: &[Vec<String>],
    db: &Database,
) -> ServeCounts {
    let mut counts = ServeCounts::default();
    let questions: Vec<&String> = frames.iter().flatten().collect();

    // A warm-up pass records the offline answers; the next pass times
    // the untraced `Nlidb::answer` path on warm state.
    let offline = offline_digests(nlidb, questions.iter().copied());
    let t = Instant::now();
    for q in &questions {
        std::hint::black_box(nlidb.answer(q).is_ok());
    }
    let untraced = t.elapsed();

    let t = Instant::now();
    let post = PostProcessor::new(nlidb.database().schema());
    for (i, q) in questions.iter().enumerate() {
        let request = i as u64;
        let request_span = tracer.open("serve.request_inproc", None, request);
        let root = Some(request_span);
        let anonymized = tracer.span("runtime.anonymize", root, request, || nlidb.anonymize(q));
        let lemmas = tracer.span("nlp.lemmatize_query", root, request, || {
            nlidb.lemmatize(&anonymized.text)
        });
        let translated = tracer.span("model.translate", root, request, || {
            nlidb.model().translate(&lemmas)
        });
        let result = match translated {
            None => {
                counts.translate_failed += 1;
                Err(RuntimeError::TranslationFailed)
            }
            Some(translated) => match tracer.span("runtime.postprocess", root, request, || {
                post.process(&translated, &anonymized.bindings)
            }) {
                Err(e) => {
                    counts.postprocess_failed += 1;
                    Err(e)
                }
                Ok(final_sql) => {
                    match tracer.span("engine.execute", root, request, || {
                        nlidb.database().execute(&final_sql)
                    }) {
                        Err(e) => {
                            counts.execute_failed += 1;
                            Err(RuntimeError::from(e))
                        }
                        Ok(result) => {
                            counts.execute_rows += result.row_count();
                            Ok(NlidbResponse {
                                anonymized_nl: anonymized.text.clone(),
                                translated_sql: translated,
                                final_sql,
                                result,
                            })
                        }
                    }
                }
            },
        };
        tracer.close(request_span);
        let digest = answer_digest(result);
        counts.check(offline.get(*q) == Some(&digest), || {
            format!("in-process replay of {q:?} differs from Nlidb::answer")
        });
    }
    counts.replay_wall = (untraced, t.elapsed());

    // Over the wire: one pass to fill the cache, one recorded pass.
    match Client::connect(handle.addr()) {
        Err(e) => counts.check(false, || format!("connect: {e}")),
        Ok(mut client) => {
            for record in [false, true] {
                for (i, frame) in frames.iter().enumerate() {
                    let id = record.then(|| tracer.open("serve.request", None, i as u64));
                    let result = client.query(frame);
                    if let Some(id) = id {
                        tracer.close(id);
                    }
                    let Ok(outcomes) = result else {
                        counts.check(false, || format!("wire error on frame {i}"));
                        continue;
                    };
                    for (q, o) in frame.iter().zip(&outcomes) {
                        if record {
                            counts.wire_answers += 1;
                            counts.wire_cached +=
                                usize::from(matches!(o, QueryOutcome::Answer { cached: true, .. }));
                        }
                        counts.check(!outcome_failed(o, q, &offline), || {
                            format!("wire answer to {q:?} differs from the offline answer")
                        });
                    }
                }
            }
        }
    }

    // In-process submit and the protocol codecs on the same frames.
    let service = handle.service();
    for (i, frame) in frames.iter().enumerate() {
        let request = i as u64;
        let results = tracer.span("serve.submit", None, request, || {
            service.submit_batch(frame)
        });
        let outcomes: Vec<QueryOutcome> = results.iter().map(QueryOutcome::from_result).collect();
        for (q, o) in frame.iter().zip(&outcomes) {
            counts.check(!outcome_failed(o, q, &offline), || {
                format!("submit_batch answer to {q:?} differs from the offline answer")
            });
        }
        let round_trip = tracer.span("serve.wire", None, request, || {
            let req = Request::Query {
                tenant: None,
                questions: frame.clone(),
            };
            let decoded_req = Request::from_bytes(&req.to_bytes());
            let resp = Response::Results(outcomes.clone());
            let decoded_resp = Response::from_bytes(&resp.to_bytes());
            decoded_req.as_ref() == Ok(&req) && decoded_resp.as_ref() == Ok(&resp)
        });
        counts.check(round_trip, || {
            format!("frame {i} does not survive the codecs")
        });
    }

    // The write side: value-index rebuilds and tenant swaps.
    for i in 0..5 {
        tracer.span("runtime.index_build", None, i, || ValueIndex::build(db));
        let fresh = db.clone();
        let swapped = tracer.span("serve.swap", None, i, || {
            service.replace_tenant(DEFAULT_TENANT, fresh)
        });
        counts.check(swapped.is_ok(), || "replace_tenant failed".into());
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filler_leaves_no_placeholder_and_is_deterministic() {
        let a = ServeInput::new(Traffic::Patients, 11);
        let b = ServeInput::new(Traffic::Patients, 11);
        let c = ServeInput::new(Traffic::Patients, 12);
        assert_eq!(a.frames, b.frames);
        assert_ne!(a.frames, c.frames);
        assert_eq!(a.questions().count(), 399 * PATIENTS_FILLS);
        for q in a.questions() {
            assert!(!q.contains('@'), "unfilled placeholder in {q:?}");
        }
    }

    #[test]
    fn bigdb_inputs_are_seeded_and_filled() {
        let a = ServeInput::new(Traffic::BigDb, 5);
        let b = ServeInput::new(Traffic::BigDb, 5);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.db.row_count("patients").unwrap(), BIGDB_ROWS);
        assert!(a.frames.iter().all(|f| f.len() == BIGDB_FRAME));
        assert!(a.questions().all(|q| !q.contains('@')));
        let names = a.db.distinct_values("patients", "name").unwrap().len();
        assert!(names > BIGDB_ROWS * 9 / 10, "only {names} distinct names");
        let again = big_database(5);
        assert_eq!(
            again.distinct_values("patients", "name").unwrap(),
            a.db.distinct_values("patients", "name").unwrap()
        );
    }

    #[test]
    fn placeholders_map_to_columns() {
        let db = PatientsBenchmark::new().database().clone();
        let columns = column_values(&db);
        assert_eq!(placeholder_column("AGE_LOW", &columns), Some("age"));
        assert_eq!(placeholder_column("DISEASE_2", &columns), Some("disease"));
        assert_eq!(
            placeholder_column("LENGTH_OF_STAY_HIGH", &columns),
            Some("length_of_stay")
        );
        assert_eq!(placeholder_column("NOPE", &columns), None);
        let mut rng = Rng::seed_from_u64(1);
        let q = fill_question("patients aged @AGE with @DISEASE", &columns, &mut rng);
        assert!(!q.contains('@'));
    }

    #[test]
    fn load_threads_never_exceed_cores() {
        assert!(LOAD_THREADS <= dbpal_util::auto_threads());
    }
}
