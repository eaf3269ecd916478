//! The corpus path: schemas → `TrainingPipeline::stream` → JSONL on disk.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dbpal_analyze::{Analyzer, AnalyzerPolicy, Severity};
use dbpal_benchsuite::{PatientsBenchmark, SchemaGenerator};
use dbpal_core::{
    Augmenter, CorpusSink, DigestSink, GenerationConfig, Generator, JsonlSink, SinkError,
    StreamDedup, StreamOptions, TrainingCorpus, TrainingPair, TrainingPipeline, SCORE_ERROR_WEIGHT,
};
use dbpal_nlp::Lemmatizer;
use dbpal_schema::Schema;
use dbpal_util::{fnv1a, stream_seed};

use crate::trace::Tracer;

/// `SchemaGenerator` schemas streamed beside the Patients schema (its
/// blueprint domains in order, wrapping once the domains run out).
const GENERATED_SCHEMAS: usize = 16;

/// Generation rounds per schema: the second round re-draws the schema on
/// a fresh seed, so the cross-round dedup index has real work.
const ROUNDS_PER_SCHEMA: usize = 2;

/// Column sampling of the generated schemas. Fixed, so every seed streams
/// the same schemas and the seed varies only the drawn instances.
const SCHEMA_SEED: u64 = 0x5EED_5C4E;

/// The inputs of one corpus run: fixed schemas, seeded generation.
pub struct CorpusInput {
    /// Patients first, then the generated schemas.
    pub schemas: Vec<Schema>,
    /// Generation knobs: the default configuration with a smaller
    /// instance budget per template, on all cores.
    pub config: GenerationConfig,
    /// Per-schema stream options.
    pub opts: StreamOptions,
}

impl CorpusInput {
    /// Build the schema list and configuration for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut schemas = vec![PatientsBenchmark::new().schema().clone()];
        schemas.extend(SchemaGenerator::new(SCHEMA_SEED).generate(GENERATED_SCHEMAS));
        CorpusInput {
            schemas,
            config: GenerationConfig {
                size_slot_fills: 6,
                seed: stream_seed(seed, 2),
                threads: 0,
                ..GenerationConfig::default()
            },
            opts: StreamOptions {
                max_rounds: ROUNDS_PER_SCHEMA,
                ..StreamOptions::corpus(0)
            },
        }
    }
}

/// A sink wrapper that times `accept`/`finish` and counts the bytes the
/// inner sink accounts for, without touching what it writes.
pub struct TimingSink<S> {
    inner: S,
    busy: Duration,
    bytes: u64,
}

impl<S: CorpusSink> TimingSink<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        TimingSink {
            inner,
            busy: Duration::ZERO,
            bytes: 0,
        }
    }

    /// Time spent inside the inner sink.
    pub fn busy(&self) -> Duration {
        self.busy
    }

    /// Bytes the inner sink accounted for.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Unwrap the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: CorpusSink> CorpusSink for TimingSink<S> {
    fn accept(&mut self, pair: TrainingPair) -> Result<usize, SinkError> {
        let start = Instant::now();
        let n = self.inner.accept(pair);
        self.busy += start.elapsed();
        let n = n?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        let start = Instant::now();
        let out = self.inner.finish();
        self.busy += start.elapsed();
        out
    }
}

/// What one schema's stream wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Written {
    /// Pairs emitted.
    pub pairs: usize,
    /// FNV-1a digest of the JSONL bytes.
    pub digest: u64,
}

/// Path of schema `i`'s corpus file under `dir`.
pub fn corpus_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("schema_{i:02}.jsonl"))
}

/// A JSONL sink over a new buffered file at `path`.
pub fn open_jsonl(path: &Path) -> Result<JsonlSink<BufWriter<File>>, String> {
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    Ok(JsonlSink::new(BufWriter::new(file)))
}

/// Stream one schema into a JSONL file (the untraced user path). The
/// sink's `finish` flushes the buffer; the file is closed on return.
pub fn stream_schema(input: &CorpusInput, i: usize, path: &Path) -> Result<Written, String> {
    let mut sink = open_jsonl(path)?;
    let report = TrainingPipeline::new(input.config.clone())
        .stream(&[&input.schemas[i]], &input.opts, &mut sink)
        .map_err(|e| format!("stream schema {i}: {e}"))?;
    if report.emitted != sink.pairs() {
        return Err(format!(
            "schema {i}: report says {} pairs, sink took {}",
            report.emitted,
            sink.pairs()
        ));
    }
    Ok(Written {
        pairs: sink.pairs(),
        digest: sink.digest(),
    })
}

/// What the Patients stream emits when run on one thread into a
/// `DigestSink`: the reference for the JSONL files written on all cores.
pub fn reference(input: &CorpusInput) -> Result<Written, String> {
    let config = GenerationConfig {
        threads: 1,
        ..input.config.clone()
    };
    let mut sink = DigestSink::new();
    TrainingPipeline::new(config)
        .stream(&[&input.schemas[0]], &input.opts, &mut sink)
        .map_err(|e| format!("reference stream: {e}"))?;
    Ok(Written {
        pairs: sink.pairs(),
        digest: sink.digest(),
    })
}

/// Check that the file on disk holds exactly the bytes the sink digested.
pub fn verify_file(path: &Path, expected: Written) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let lines = bytes.iter().filter(|&&b| b == b'\n').count();
    if fnv1a(&bytes) != expected.digest || lines != expected.pairs {
        return Err(format!(
            "{} differs from what the sink wrote",
            path.display()
        ));
    }
    Ok(())
}

/// Counters the traced stage-by-stage run accumulates beside its spans.
#[derive(Debug, Default, Clone)]
pub struct GenCounts {
    /// Generator draws retried (failed + duplicate).
    pub retries: u64,
    /// Pairs the augmenter added.
    pub augmented: usize,
    /// Pairs dropped by the in-round dedup.
    pub dedup_dropped: usize,
    /// Pairs the analyzer rejected.
    pub analyzer_rejected: usize,
    /// Pairs offered to the cross-round dedup index.
    pub offered: usize,
    /// Pairs the cross-round dedup index kept.
    pub kept: usize,
    /// Cross-round index entries at the end of each stream, summed.
    pub index_entries: usize,
    /// Bytes the sinks accounted for.
    pub sink_bytes: u64,
    /// Time spent inside the sinks' own `accept`/`finish`.
    pub sink_busy: Duration,
}

fn round_seed(base: u64, round: u64) -> u64 {
    if round == 0 {
        base
    } else {
        stream_seed(base, round)
    }
}

/// Drive one stream's stages through the public stage functions, with a
/// span around each call: generate → augment → lemmatize → dedup →
/// analyze → cross-round dedup → sink. Round seeds follow
/// `TrainingPipeline::stream` (round 0 on the base seed, round `r` on
/// `stream_seed(base, r)`), so the bytes reaching `sink` are the bytes
/// the untraced stream emits.
pub fn traced_stream<S: CorpusSink>(
    tracer: &mut Tracer,
    counts: &mut GenCounts,
    schema: &Schema,
    config: &GenerationConfig,
    opts: &StreamOptions,
    sink: &mut TimingSink<S>,
    request: u64,
) -> Result<(), String> {
    let templates = dbpal_core::catalog();
    let threads = config.effective_threads();
    let mut dedup = StreamDedup::new(opts.dedup);
    let stream_span = tracer.open("core.stream", None, request);
    for round in 0..opts.max_rounds {
        let config = GenerationConfig {
            seed: round_seed(config.seed, round as u64),
            ..config.clone()
        };
        let round_span = tracer.open("core.round", Some(stream_span), request);
        let parent = Some(round_span);
        let (mut corpus, stats) = tracer.span("core.generate", parent, request, || {
            Generator::new(schema, &config).generate_with_stats(&templates)
        });
        counts.retries += stats.retries();
        tracer.span("core.augment", parent, request, || {
            let additions = Augmenter::new(schema, &config).augment(&corpus);
            counts.augmented += additions.len();
            for pair in additions {
                corpus.push(pair);
            }
        });
        let mut corpus = tracer.span("nlp.lemmatize", parent, request, || {
            lemmatize_all(corpus, &config, threads)
        });
        counts.dedup_dropped += tracer.span("core.dedup", parent, request, || corpus.dedup());
        let (scored, rejected) = tracer.span("analyze", parent, request, || {
            analyze_scored(schema, corpus, &config, threads)
        });
        counts.analyzer_rejected += rejected;
        counts.offered += scored.len();
        let admitted = tracer.span("core.stream_dedup", parent, request, || {
            dedup.admit_round(scored)
        });
        counts.kept += admitted.pairs.len();
        tracer
            .span("core.sink", parent, request, || {
                admitted
                    .pairs
                    .into_iter()
                    .try_for_each(|pair| sink.accept(pair).map(drop))
            })
            .map_err(|e| format!("sink: {e}"))?;
        tracer.close(round_span);
    }
    tracer
        .span("core.sink", Some(stream_span), request, || sink.finish())
        .map_err(|e| format!("sink: {e}"))?;
    tracer.close(stream_span);
    counts.index_entries += dedup.len();
    counts.sink_bytes += sink.bytes();
    counts.sink_busy += sink.busy();
    Ok(())
}

/// Analyze every pair against the schema with the public `Analyzer`,
/// fanned out in the pipeline's chunks, and score the survivors as the
/// pipeline's analyze stage does: `SCORE_ERROR_WEIGHT` per error plus one
/// per warning. Under `AnalyzerPolicy::Reject` pairs with errors are
/// dropped; returns the scored survivors and the rejected count.
fn analyze_scored(
    schema: &Schema,
    corpus: TrainingCorpus,
    config: &GenerationConfig,
    threads: usize,
) -> (Vec<(TrainingPair, u32)>, usize) {
    const CHUNK: usize = 64;
    let pairs: Vec<TrainingPair> = corpus.into_iter().collect();
    if config.analyzer_policy == AnalyzerPolicy::Off {
        return (pairs.into_iter().map(|p| (p, 0)).collect(), 0);
    }
    let analyzer = Analyzer::new(schema);
    let verdicts: Vec<Vec<(u32, bool)>> = {
        let chunks: Vec<&[TrainingPair]> = pairs.chunks(CHUNK).collect();
        config.par.map_indexed(&chunks, threads, |_, chunk| {
            chunk
                .iter()
                .map(|p| {
                    let diags = analyzer.analyze(&p.sql);
                    let score = diags
                        .iter()
                        .map(|d| match d.severity {
                            Severity::Error => SCORE_ERROR_WEIGHT,
                            Severity::Warning => 1,
                        })
                        .sum();
                    (score, dbpal_analyze::has_errors(&diags))
                })
                .collect()
        })
    };
    let mut rejected = 0;
    let mut kept = Vec::with_capacity(pairs.len());
    for (pair, (score, errors)) in pairs.into_iter().zip(verdicts.into_iter().flatten()) {
        if errors && config.analyzer_policy == AnalyzerPolicy::Reject {
            rejected += 1;
        } else {
            kept.push((pair, score));
        }
    }
    (kept, rejected)
}

/// Lemmatize every pair's NL side, fanned out in the pipeline's chunks.
fn lemmatize_all(
    corpus: TrainingCorpus,
    config: &GenerationConfig,
    threads: usize,
) -> TrainingCorpus {
    const CHUNK: usize = 64;
    let lemmatizer = Lemmatizer::new();
    let mut pairs: Vec<TrainingPair> = corpus.into_iter().collect();
    let lemmas: Vec<Vec<Vec<String>>> = {
        let chunks: Vec<&[TrainingPair]> = pairs.chunks(CHUNK).collect();
        config.par.map_indexed(&chunks, threads, |_, chunk| {
            chunk
                .iter()
                .map(|p| lemmatizer.lemmatize_sentence(&p.nl))
                .collect()
        })
    };
    for (pair, nl_lemmas) in pairs.iter_mut().zip(lemmas.into_iter().flatten()) {
        pair.nl_lemmas = nl_lemmas;
    }
    TrainingCorpus::from_pairs(pairs)
}

/// Digest of a corpus as a `JsonlSink` would write it.
pub fn corpus_digest(corpus: &TrainingCorpus) -> u64 {
    let mut sink = DigestSink::new();
    for pair in corpus.pairs() {
        sink.accept(pair.clone()).expect("digesting cannot fail");
    }
    sink.digest()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpal_core::MemorySink;

    fn tiny_config(seed: u64) -> GenerationConfig {
        GenerationConfig {
            seed,
            size_slot_fills: 2,
            num_para: 1,
            num_missing: 0,
            ..GenerationConfig::default()
        }
    }

    #[test]
    fn timing_sink_is_byte_transparent() {
        let schema = PatientsBenchmark::new().schema().clone();
        let pipeline = TrainingPipeline::new(tiny_config(5));
        let opts = StreamOptions {
            max_rounds: 2,
            ..StreamOptions::corpus(0)
        };
        let mut plain = DigestSink::new();
        pipeline.stream(&[&schema], &opts, &mut plain).unwrap();
        let mut timed = TimingSink::new(DigestSink::new());
        pipeline.stream(&[&schema], &opts, &mut timed).unwrap();
        assert!(plain.pairs() > 0);
        assert_eq!(timed.bytes(), plain.bytes());
        let inner = timed.into_inner();
        assert_eq!(inner.pairs(), plain.pairs());
        assert_eq!(inner.digest(), plain.digest());
    }

    #[test]
    fn traced_stages_reproduce_the_stream_bytes() {
        let schema = PatientsBenchmark::new().schema().clone();
        let config = tiny_config(9);
        let opts = StreamOptions {
            max_rounds: 2,
            ..StreamOptions::corpus(0)
        };
        let mut untraced = DigestSink::new();
        let report = TrainingPipeline::new(config.clone())
            .stream(&[&schema], &opts, &mut untraced)
            .unwrap();
        let mut tracer = Tracer::new();
        let mut counts = GenCounts::default();
        let mut traced = TimingSink::new(DigestSink::new());
        traced_stream(
            &mut tracer,
            &mut counts,
            &schema,
            &config,
            &opts,
            &mut traced,
            0,
        )
        .unwrap();
        assert_eq!(traced.into_inner().digest(), untraced.digest());
        assert_eq!(counts.kept, report.emitted);
        assert_eq!(counts.index_entries, report.index_entries);
        assert!(tracer.spans().iter().any(|s| s.name == "core.stream_dedup"));
    }

    #[test]
    fn one_shot_trace_matches_generate() {
        let schema = PatientsBenchmark::new().schema().clone();
        let config = tiny_config(3);
        let classic = TrainingPipeline::new(config.clone()).generate(&schema);
        let mut tracer = Tracer::new();
        let mut counts = GenCounts::default();
        let mut sink = TimingSink::new(MemorySink::new());
        traced_stream(
            &mut tracer,
            &mut counts,
            &schema,
            &config,
            &StreamOptions::one_shot(),
            &mut sink,
            0,
        )
        .unwrap();
        let traced = sink.into_inner().into_corpus();
        assert_eq!(corpus_digest(&traced), corpus_digest(&classic));
    }
}
