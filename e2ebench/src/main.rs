//! DBPal's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload serve_patients --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `DESIGN.md` beside this crate):
//!
//! * `corpus_jsonl` — the Patients schema plus 16 generated schemas,
//!   each streamed through `TrainingPipeline::stream` into a JSONL file;
//! * `serve_patients` — a bootstrapped `SketchModel` behind the TCP
//!   server, asked all 399 Patients phrasings in 32-question frames by
//!   one closed-loop client;
//! * `serve_bigdb` — the same model over a 2,000-row table, asked the
//!   57 Naive phrasings in eight-question frames while the tenant's
//!   database is swapped every half second.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` drives every
//! layer through its public functions with spans around each call and
//! prints the per-layer table. Human-readable lines come first; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any failed check makes the exit
//! code non-zero.

mod corpus;
mod procfs;
mod serving;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dbpal_core::{
    corpus_from_jsonl, GenerationConfig, MemorySink, StreamOptions, TrainOptions, TrainingPipeline,
    TranslationModel,
};
use dbpal_engine::Database;
use dbpal_model::SketchModel;
use dbpal_runtime::Nlidb;
use dbpal_serve::net::ServerHandle;

use corpus::{CorpusInput, GenCounts, TimingSink, Written};
use serving::{ServeInput, Traffic};
use stats::{median, percentile};
use trace::Tracer;

/// Set-up repetitions per run at the least; `setup_s` is their median.
/// The serving workloads set up once before the window and the rest
/// after it; the corpus workload also sets up between its passes.
const SETUP_REPS: usize = 3;
/// Closed-loop warm-up before the measured window.
const WARMUP: Duration = Duration::from_millis(1500);
/// Where runs write corpora and span logs, relative to the checkout.
const OUT_DIR: &str = ".e2ebench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// One metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run reports: checks, accounting and metrics.
#[derive(Default)]
struct Outcome {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    info: Vec<Metric>,
}

impl Outcome {
    /// A metric of the result line (gated by `BENCHMARK.json`).
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// A printed figure that is not gated: too unsteady on a shared host
    /// to bound, or specific to one workload.
    fn info(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.info.push(Metric { name, value, unit });
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(what);
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(r#""{}":{{"value":{value},"unit":"{}"}}"#, m.name, m.unit)
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(OUT_DIR).join(&args.workload);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("e2ebench: create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    let window = Duration::from_secs(args.seconds);
    let mut tracer = Tracer::new();
    let outcome = match (args.workload.as_str(), args.trace) {
        ("corpus_jsonl", false) => corpus_run(args.seed, window, &out_dir),
        ("corpus_jsonl", true) => corpus_traced(args.seed, &out_dir, &mut tracer),
        ("serve_patients", false) => serve_run(Traffic::Patients, args.seed, window),
        ("serve_patients", true) => serve_traced(Traffic::Patients, args.seed, &mut tracer),
        ("serve_bigdb", false) => serve_run(Traffic::BigDb, args.seed, window),
        ("serve_bigdb", true) => serve_traced(Traffic::BigDb, args.seed, &mut tracer),
        (other, _) => {
            eprintln!("e2ebench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if args.trace {
        let path = out_dir.join("spans.jsonl");
        let written = std::fs::File::create(&path)
            .map(std::io::BufWriter::new)
            .and_then(|mut f| {
                tracer.write_jsonl(&mut f)?;
                std::io::Write::flush(&mut f)
            });
        match written {
            Ok(()) => println!(
                "spans     {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("e2ebench: write {}: {e}", path.display()),
        }
    }
    for m in &outcome.info {
        println!("info      {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.metrics {
        println!("metric    {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for f in &outcome.failures {
        println!("FAILED    {f}");
    }
    println!(
        "checks    {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    println!("{}", outcome.json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}

fn median_of(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(f64::NAN)
}

// ----- corpus_jsonl ------------------------------------------------------

fn corpus_run(seed: u64, window: Duration, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let (input, reference, setup_s) = corpus_setup(seed);
    let mut setups = vec![setup_s];
    let reference = match reference {
        Ok(w) => w,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    println!(
        "corpus    {} schemas x {} rounds, {} threads",
        input.schemas.len(),
        input.opts.max_rounds,
        input.config.effective_threads()
    );

    // The measured window: whole passes over the schema list, no warm-up.
    // Before every pass but the first a set-up repeats, outside the
    // window's time and CPU, so that the set-up median samples a shared
    // host's speed phases across the whole run.
    let repeat_setup = |out: &mut Outcome, setups: &mut Vec<f64>| {
        let (_, again, setup_s) = corpus_setup(seed);
        setups.push(setup_s);
        out.check(again.as_ref() == Ok(&reference), || {
            format!("a repeated reference stream gave {again:?}, not {reference:?}")
        });
    };
    let paths: Vec<PathBuf> = (0..input.schemas.len())
        .map(|i| corpus::corpus_path(dir, i))
        .collect();
    let mut latencies_ms = Vec::new();
    let (mut pairs, mut busy, mut cpu) = (0usize, 0.0f64, 0.0f64);
    let mut measured = Duration::ZERO;
    let mut first: Option<Vec<Written>> = None;
    let mut last = Vec::new();
    while measured < window {
        if first.is_some() {
            repeat_setup(&mut out, &mut setups);
        }
        last.clear();
        let cpu0 = procfs::process_cpu_s();
        let pass = Instant::now();
        for (i, path) in paths.iter().enumerate() {
            let t = Instant::now();
            let written = corpus::stream_schema(&input, i, path);
            let secs = t.elapsed().as_secs_f64();
            out.attempted += 1;
            match written {
                Ok(w) => {
                    latencies_ms.push(secs * 1e3);
                    busy += secs;
                    pairs += w.pairs;
                    last.push(w);
                }
                Err(e) => {
                    out.fail(e);
                    last.push(Written {
                        pairs: 0,
                        digest: 0,
                    });
                }
            }
        }
        measured += pass.elapsed();
        cpu += procfs::process_cpu_s() - cpu0;
        out.check(last[0] == reference, || {
            format!(
                "the Patients file ({:?}) differs from the one-thread reference ({reference:?})",
                last[0]
            )
        });
        match &first {
            None => first = Some(last.clone()),
            Some(f) => out.check(f == &last, || "a later pass wrote different bytes".into()),
        }
    }
    let peak_rss_mb = procfs::peak_rss_mb();
    while setups.len() < SETUP_REPS {
        repeat_setup(&mut out, &mut setups);
    }
    println!(
        "window    {:.2} s, {} streams, {pairs} pairs",
        measured.as_secs_f64(),
        latencies_ms.len()
    );
    println!(
        "setup     {} repetitions: {}",
        setups.len(),
        setups
            .iter()
            .map(|s| format!("{s:.3} s"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    for (path, w) in paths.iter().zip(&last) {
        let verified = corpus::verify_file(path, *w);
        out.check(verified.is_ok(), || verified.unwrap_err());
    }
    // Quality of what reached the disk: train on the Patients corpus read
    // back from its file and score the model.
    let accuracy = match std::fs::read_to_string(&paths[0])
        .map_err(|e| e.to_string())
        .and_then(|text| corpus_from_jsonl(&text).map_err(|e| e.to_string()))
    {
        Ok(corpus) => {
            out.check(corpus.len() == last[0].pairs, || {
                "the Patients corpus did not read back whole".into()
            });
            let mut model = SketchModel::new(vec![input.schemas[0].clone()]);
            model.train(&corpus, &TrainOptions::default());
            serving::accuracy(&model)
        }
        Err(e) => {
            out.fail(format!("read back the Patients corpus: {e}"));
            f64::NAN
        }
    };
    let _ = std::fs::remove_dir_all(dir);

    print_latency_samples(&latencies_ms, "stream");
    out.info("pairs_per_s", pairs as f64 / busy, "1/s");
    out.info(
        "latency_p50_ms",
        percentile(&latencies_ms, 50.0).unwrap_or(f64::NAN),
        "ms",
    );
    out.info(
        "latency_p90_ms",
        percentile(&latencies_ms, 90.0).unwrap_or(f64::NAN),
        "ms",
    );
    out.metric("cpu_us_per_question", cpu * 1e6 / pairs as f64, "us");
    out.metric("accuracy", accuracy, "ratio");
    out.metric("setup_s", median_of(&setups), "s");
    out.metric("peak_rss_mb", peak_rss_mb, "MiB");
    out
}

/// One corpus set-up: the inputs, then the reference that every pass's
/// Patients file is checked against (the Patients stream on one thread
/// into a `DigestSink`). Returns the set-up time in seconds as well.
fn corpus_setup(seed: u64) -> (CorpusInput, Result<Written, String>, f64) {
    let t = Instant::now();
    let input = CorpusInput::new(seed);
    let reference = corpus::reference(&input);
    (input, reference, t.elapsed().as_secs_f64())
}

fn corpus_traced(seed: u64, dir: &Path, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let input = CorpusInput::new(seed);
    let n = input.schemas.len();

    // An untraced pass, the traced pass, and a second untraced pass that
    // is timed on equally warm state; all must write the same bytes.
    let untraced_pass = || {
        let t = Instant::now();
        let written: Vec<Result<Written, String>> = (0..n)
            .map(|i| corpus::stream_schema(&input, i, &corpus::corpus_path(dir, i)))
            .collect();
        (t.elapsed(), written)
    };
    let (_, untraced) = untraced_pass();
    let mut counts = GenCounts::default();
    let t = Instant::now();
    let traced_path = |i| dir.join(format!("traced_{i:02}.jsonl"));
    let mut traced = Vec::new();
    for (i, schema) in input.schemas.iter().enumerate() {
        let result = corpus::open_jsonl(&traced_path(i)).and_then(|jsonl| {
            let mut sink = TimingSink::new(jsonl);
            corpus::traced_stream(
                tracer,
                &mut counts,
                schema,
                &input.config,
                &input.opts,
                &mut sink,
                i as u64,
            )?;
            let jsonl = sink.into_inner();
            Ok(Written {
                pairs: jsonl.pairs(),
                digest: jsonl.digest(),
            })
        });
        traced.push(result);
    }
    let traced_wall = t.elapsed();
    let (untraced_wall, again) = untraced_pass();
    out.check(again == untraced, || {
        "a second untraced pass wrote different bytes".into()
    });
    for (i, (u, t)) in untraced.iter().zip(&traced).enumerate() {
        out.check(matches!((u, t), (Ok(a), Ok(b)) if a == b), || {
            format!(
                "schema {i}: traced JSONL digest differs from the untraced stream ({u:?} vs {t:?})"
            )
        });
    }
    out.metric(
        "trace.generation.overhead_pct",
        overhead_pct("generation", untraced_wall, traced_wall),
        "%",
    );

    // The model a user trains from the Patients corpus on disk, served.
    let corpus = std::fs::read_to_string(traced_path(0))
        .map_err(|e| e.to_string())
        .and_then(|text| corpus_from_jsonl(&text).map_err(|e| e.to_string()));
    let corpus = match corpus {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("read back the Patients corpus: {e}"));
            return out;
        }
    };
    let serve_input = ServeInput::new(Traffic::Patients, seed);
    let (nlidb, served) = train_pair(tracer, &serve_input, &corpus);
    for i in 0..n {
        let _ = std::fs::remove_file(corpus::corpus_path(dir, i));
        let _ = std::fs::remove_file(traced_path(i));
    }
    finish_traced(tracer, out, counts, &nlidb, served, &serve_input)
}

// ----- serve_patients / serve_bigdb --------------------------------------

fn serve_run(traffic: Traffic, seed: u64, window: Duration) -> Outcome {
    let mut out = Outcome::default();
    let input = ServeInput::new(traffic, seed);

    // The first set-up serves the traffic. The peak resident set is read
    // right after it, before the reference and the swap databases exist.
    let (handle, setup_s, accuracy) = serve_setup(&input.db);
    let peak_rss_mb = procfs::peak_rss_mb();
    let mut setups = vec![setup_s];
    let mut accuracies = vec![accuracy];

    // The offline reference: an independent bootstrap answering in-process.
    let reference = serving::bootstrap(&input.db);
    let offline_accuracy = serving::accuracy(reference.model());
    let offline = serving::offline_digests(&reference, input.questions());
    let replacements: Vec<_> = match traffic {
        Traffic::Patients => Vec::new(),
        Traffic::BigDb => {
            let swaps = (window.as_millis() / serving::SWAP_INTERVAL.as_millis()) as usize + 1;
            (0..swaps)
                .map(|_| serving::big_database(input.seed))
                .collect()
        }
    };

    let load = serving::closed_loop(
        &handle,
        &input.frames,
        &offline,
        WARMUP,
        window,
        replacements,
    );
    let report = handle.shutdown();

    // The other set-ups run after the window, so that their median
    // samples more than one of a shared host's speed phases.
    for _ in 1..SETUP_REPS {
        let (handle, setup_s, accuracy) = serve_setup(&input.db);
        handle.shutdown();
        setups.push(setup_s);
        accuracies.push(accuracy);
    }
    out.check(accuracies.iter().all(|&a| a == offline_accuracy), || {
        format!("served model accuracy {accuracies:?} differs from the offline evaluation {offline_accuracy}")
    });

    out.attempted += load.questions;
    out.failed += load.failed;
    out.failures.extend(load.failures.iter().cloned());
    out.check(report.protocol_errors == 0, || {
        format!("{} protocol errors", report.protocol_errors)
    });
    out.check(load.answered > 0, || "no question was answered".into());
    let latencies = load.latencies_ms();
    println!(
        "load      {} thread(s), closed loop, {} questions sent (warm-up included), {} frames in the window, {:.1}% cached",
        serving::LOAD_THREADS,
        load.questions,
        latencies.len(),
        100.0 * load.cached as f64 / load.answered.max(1) as f64
    );
    for (i, slot) in load.intervals.iter().enumerate() {
        println!(
            "interval  {i:>2}: {:>6} requests, p50 {:.4} ms, p90 {:.4} ms, cpu {:.1} us/question (process {:.3} s, load {:.3} s)",
            slot.latencies_ms.len(),
            percentile(&slot.latencies_ms, 50.0).unwrap_or(f64::NAN),
            percentile(&slot.latencies_ms, 90.0).unwrap_or(f64::NAN),
            slot.cpu_us_per_question(),
            slot.process_cpu_s,
            slot.load_cpu_s
        );
    }
    if !load.swaps_ms.is_empty() {
        println!(
            "swaps     {} replace_tenant calls, median {:.3} ms",
            load.swaps_ms.len(),
            median_of(&load.swaps_ms)
        );
    }
    println!(
        "setup     {} repetitions: {}",
        setups.len(),
        setups
            .iter()
            .map(|s| format!("{s:.3} s"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    print_latency_samples(&latencies, "request (whole window)");

    if !load.swaps_ms.is_empty() {
        out.info("swap_ms", median_of(&load.swaps_ms), "ms");
    }
    out.info(
        "latency_p50_ms",
        load.over_intervals(|i| percentile(&i.latencies_ms, 50.0)),
        "ms",
    );
    out.info(
        "latency_p90_ms",
        load.over_intervals(|i| percentile(&i.latencies_ms, 90.0)),
        "ms",
    );
    out.metric(
        "cpu_us_per_question",
        load.over_intervals(|i| (i.answered > 0).then(|| i.cpu_us_per_question())),
        "us",
    );
    out.metric("accuracy", accuracies[0], "ratio");
    out.metric("setup_s", median_of(&setups), "s");
    out.metric("peak_rss_mb", peak_rss_mb, "MiB");
    out
}

/// One serving set-up: bootstrap (generate + train), then the query
/// service and the TCP server. Returns the running server, the set-up
/// time in seconds (the accuracy evaluation excluded) and the model's
/// accuracy.
fn serve_setup(db: &Database) -> (ServerHandle<SketchModel>, f64, f64) {
    let t = Instant::now();
    let nlidb = serving::bootstrap(db);
    let booted = t.elapsed();
    let accuracy = serving::accuracy(nlidb.model());
    let t = Instant::now();
    let handle = serving::start_server(nlidb);
    (handle, (booted + t.elapsed()).as_secs_f64(), accuracy)
}

fn serve_traced(traffic: Traffic, seed: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let input = ServeInput::new(traffic, seed);
    let schema = input.db.schema();
    let config = GenerationConfig::default();

    // Bootstrap's generation: `stream` into a `MemorySink` (what
    // `Nlidb::bootstrap` runs), once to warm up and once timed after the
    // traced stage-by-stage run; every corpus must have the same bytes.
    let untraced = || {
        let t = Instant::now();
        let mut sink = MemorySink::new();
        let streamed = TrainingPipeline::new(config.clone()).stream(
            &[schema],
            &StreamOptions::one_shot(),
            &mut sink,
        );
        (t.elapsed(), streamed.map(|_| sink.into_corpus()))
    };
    let (_, warm) = untraced();
    let mut counts = GenCounts::default();
    let mut sink = TimingSink::new(MemorySink::new());
    let t = Instant::now();
    let traced = corpus::traced_stream(
        tracer,
        &mut counts,
        schema,
        &config,
        &StreamOptions::one_shot(),
        &mut sink,
        0,
    );
    let traced_wall = t.elapsed();
    let (untraced_wall, timed) = untraced();
    out.check(traced.is_ok(), || format!("traced generation: {traced:?}"));
    let corpus = sink.into_inner().into_corpus();
    let digest = corpus::corpus_digest(&corpus);
    for reference in [warm, timed] {
        out.check(
            matches!(&reference, Ok(c) if corpus::corpus_digest(c) == digest),
            || "traced bootstrap corpus differs from the untraced stream".into(),
        );
    }
    out.metric(
        "trace.generation.overhead_pct",
        overhead_pct("generation", untraced_wall, traced_wall),
        "%",
    );

    let (nlidb, served) = train_pair(tracer, &input, &corpus);
    finish_traced(tracer, out, counts, &nlidb, served, &input)
}

/// Train the traced reference model and an untraced twin for the server
/// on the same corpus; returns the reference NLIDB and the running server.
fn train_pair(
    tracer: &mut Tracer,
    input: &ServeInput,
    corpus: &dbpal_core::TrainingCorpus,
) -> (Nlidb<SketchModel>, ServerHandle<SketchModel>) {
    let schema = input.db.schema().clone();
    let mut model = SketchModel::new(vec![schema.clone()]);
    tracer.span("model.train", None, 0, || {
        model.train(corpus, &TrainOptions::default())
    });
    let mut twin = SketchModel::new(vec![schema]);
    twin.train(corpus, &TrainOptions::default());
    (
        Nlidb::new(input.db.clone(), model),
        serving::start_server(Nlidb::new(input.db.clone(), twin)),
    )
}

/// The serving half of every traced run, then the per-layer table.
fn finish_traced(
    tracer: &mut Tracer,
    mut out: Outcome,
    gen: GenCounts,
    nlidb: &Nlidb<SketchModel>,
    handle: ServerHandle<SketchModel>,
    input: &ServeInput,
) -> Outcome {
    let sc = serving::serving_trace(tracer, nlidb, &handle, &input.frames, &input.db);
    let report = handle.shutdown();
    out.attempted += sc.attempted;
    out.failed += sc.failed;
    out.failures.extend(sc.failures.iter().cloned());
    out.check(report.protocol_errors == 0, || {
        format!("{} protocol errors", report.protocol_errors)
    });
    out.metric(
        "trace.serving.overhead_pct",
        overhead_pct("serving", sc.replay_wall.0, sc.replay_wall.1),
        "%",
    );

    let layers = trace::layers(tracer.spans());
    let layer = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let span_ns = trace::span_cost_ns(100_000);
    println!("layer table (self time from spans; overhead = calls x {span_ns:.0} ns per span)");
    println!(
        "  {:<22} {:>8} {:>12} {:>12} {:>12}",
        "layer", "calls", "self ms", "p50 us", "overhead %"
    );
    for (name, l) in &layers {
        let overhead = l.calls() as f64 * span_ns / 1e6;
        println!(
            "  {:<22} {:>8} {:>12.3} {:>12.3} {:>12.2}",
            name,
            l.calls(),
            l.total_ms(),
            l.median_us(),
            100.0 * overhead / l.total_ms().max(1e-9)
        );
    }
    let wire = layer("serve.request");
    let wire_ms: Vec<f64> = wire.self_ns.iter().map(|&n| n as f64 / 1e6).collect();
    print_latency_samples(&wire_ms, "wire request");
    println!(
        "sink      {:.3} ms inside accept/finish of {:.3} ms in core.sink spans",
        gen.sink_busy.as_secs_f64() * 1e3,
        layer("core.sink").total_ms()
    );
    println!(
        "failures  translate {}, postprocess {}, execute {}",
        sc.translate_failed, sc.postprocess_failed, sc.execute_failed
    );

    let ratio = |a: usize, b: usize| a as f64 / b.max(1) as f64;
    out.metric("core.generate.ms", layer("core.generate").total_ms(), "ms");
    out.metric("core.generate.retries", gen.retries as f64, "count");
    out.metric("core.augment.ms", layer("core.augment").total_ms(), "ms");
    out.metric("core.augment.pairs", gen.augmented as f64, "count");
    out.metric("nlp.lemmatize.ms", layer("nlp.lemmatize").total_ms(), "ms");
    out.metric("core.dedup.ms", layer("core.dedup").total_ms(), "ms");
    out.metric("core.dedup.dropped", gen.dedup_dropped as f64, "count");
    out.metric("analyze.ms", layer("analyze").total_ms(), "ms");
    out.metric("analyze.rejected", gen.analyzer_rejected as f64, "count");
    out.metric(
        "core.stream_dedup.ms",
        layer("core.stream_dedup").total_ms(),
        "ms",
    );
    out.metric(
        "core.stream_dedup.keep_ratio",
        ratio(gen.kept, gen.offered),
        "ratio",
    );
    out.metric(
        "core.stream_dedup.index_entries",
        gen.index_entries as f64,
        "count",
    );
    out.metric("core.sink.ms", layer("core.sink").total_ms(), "ms");
    out.metric("core.sink.bytes", gen.sink_bytes as f64, "bytes");
    out.metric("model.train.ms", layer("model.train").total_ms(), "ms");
    out.metric(
        "runtime.anonymize.us",
        layer("runtime.anonymize").median_us(),
        "us",
    );
    out.metric(
        "nlp.lemmatize_query.us",
        layer("nlp.lemmatize_query").median_us(),
        "us",
    );
    out.metric(
        "model.translate.us",
        layer("model.translate").median_us(),
        "us",
    );
    out.metric(
        "model.translate.failed",
        sc.translate_failed as f64,
        "count",
    );
    out.metric(
        "runtime.postprocess.us",
        layer("runtime.postprocess").median_us(),
        "us",
    );
    out.metric(
        "runtime.postprocess.failed",
        sc.postprocess_failed as f64,
        "count",
    );
    out.metric(
        "engine.execute.us",
        layer("engine.execute").median_us(),
        "us",
    );
    out.metric("engine.execute.failed", sc.execute_failed as f64, "count");
    out.metric("engine.execute.rows", sc.execute_rows as f64, "count");
    out.metric("serve.submit.us", layer("serve.submit").median_us(), "us");
    out.metric(
        "serve.cache.hit_ratio",
        ratio(sc.wire_cached, sc.wire_answers),
        "ratio",
    );
    out.metric("serve.wire.us", layer("serve.wire").median_us(), "us");
    out.metric(
        "serve.overhead.us",
        wire.median_us() - layer("serve.submit").median_us(),
        "us",
    );
    out.metric(
        "runtime.index_build.ms",
        layer("runtime.index_build").median_ms(),
        "ms",
    );
    out.metric("serve.swap.ms", layer("serve.swap").median_ms(), "ms");
    out
}

/// Print and return the tracing overhead: the traced wall time of the
/// same work over the untraced, in percent.
fn overhead_pct(what: &str, untraced: Duration, traced: Duration) -> f64 {
    let pct = 100.0 * (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0);
    println!(
        "overhead  {what}: untraced {:.1} ms, traced {:.1} ms ({pct:+.1}%)",
        untraced.as_secs_f64() * 1e3,
        traced.as_secs_f64() * 1e3,
    );
    pct
}

fn print_latency_samples(samples_ms: &[f64], what: &str) {
    let mut line = format!("latency   {what}: {} samples", samples_ms.len());
    for p in [50.0, 90.0] {
        if let Some(v) = percentile(samples_ms, p) {
            line += &format!(", p{p} {v:.4} ms");
        }
    }
    if let Some(p) = stats::highest_supported_percentile(samples_ms.len()) {
        if p > 90.0 {
            let v = percentile(samples_ms, p).expect("non-empty");
            line += &format!(", p{p} {v:.4} ms (highest with >=10 samples beyond)");
        }
    }
    println!("{line}");
}
