//! Crash-safe checkpointed runs: the versioned run directory, its
//! manifest, and the per-stage checkpoint files and their codec. The stage
//! sequence that loads or stores them is the pipeline's own
//! ([`crate::pipeline`]); this module sequences nothing.
//!
//! A **run directory** (`sqlog-clean --run-dir DIR`) holds everything one
//! cleaning run persists:
//!
//! ```text
//! DIR/
//!   MANIFEST.json            run identity: config fingerprint, input hash,
//!                            ingest policy, attempt/interruption counters
//!   checkpoints/<stage>.ckpt one file per completed stage
//!   quarantine.tsv           lenient-mode sidecar (default location)
//! ```
//!
//! Each checkpoint file is written atomically (temp file + fsync + rename,
//! see [`sqlog_log::atomic`]) and carries a header line with the payload's
//! byte length and FNV-1a hash — a torn or tampered write is always
//! detectable, never silently half-loaded. The header is one JSON line;
//! the payload (schema 5) is binary, encoded straight from the stage's
//! structs and decoded straight from the file bytes: LEB128 varints,
//! length-prefixed UTF-8 strings and one-byte tags for the enums. The
//! parse payload stores each distinct record shape (output columns and
//! primary table) once, in a table the records index into. The decoder
//! never panics on any bytes: it bounds every length by the bytes left,
//! rejects unknown tags, trailing bytes and duplicate table entries, and
//! checks every index against its target and every order a later stage
//! relies on.
//!
//! A stage is checkpointed only where loading it beats re-running it (the
//! numbers are in DESIGN.md). Ingest is not: each leg reads the input once,
//! hashes it for the manifest and scans the same bytes, which is cheaper
//! than decoding a stored copy. Solve stores only its decisions (per solved
//! instance its index and replacement statements, then the skipped-overlap
//! count); the live and the resumed path both build the clean and removal
//! logs from them with [`crate::solve::splice_solutions`].
//!
//! `sqlog-clean --resume DIR` validates the manifest against the current
//! config and input — refusing with a precise diagnostic on mismatch —
//! loads the longest valid prefix of stage checkpoints, and re-executes
//! only the remaining stages. Because the config fingerprint covers only
//! *semantic* knobs (never thread counts, the parse cache, or the
//! recorder), a run may be resumed at a different parallelism or cache
//! setting and still produce byte-identical output: every stage operator
//! is deterministic over its checkpointed inputs.
//!
//! A corrupted checkpoint is a non-fatal diagnostic: the stage (and
//! everything after it, whose checkpoints are then stale) is simply
//! re-run and re-checkpointed.

use crate::dedup::DedupStats;
use crate::detect::{AntipatternClass, AntipatternInstance};
use crate::fault;
use crate::mine::{MinedPatterns, PatternData, Session, Sessions};
use crate::parse_step::{ParseCacheStats, ParseStats, ParsedLog, ParsedRecord, RecordShape};
use crate::pipeline::{DetectOutput, Pipeline, PipelineResult};
use crate::solve::SolveDecisions;
use crate::store::{TemplateId, TemplateStore};
use sqlog_catalog::Catalog;
use sqlog_log::{AtomicFile, IngestPolicy, IngestStats, LogView, QueryLog};
use sqlog_obs::{Json, Recorder};
use sqlog_skeleton::{
    Fingerprint, Fnv1a, FnvHashMap, FnvHashSet, OutputColumns, PredicateKind, PredicateProfile,
    QueryTemplate, Theta, ValueKind,
};
use sqlog_sql::StatementKind;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Version written into every manifest.
pub const MANIFEST_SCHEMA: u64 = 1;
/// Version written into every checkpoint header.
pub const CHECKPOINT_SCHEMA: u64 = 5;

/// The checkpointed pipeline stages, in execution order.
///
/// Ingest is not one (see the module docs). `sort` is not one either: it is a cheap, deterministic
/// permutation whose only consumer is dedup, and the dedup checkpoint
/// stores base-log indices — so a resume past dedup never needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Duplicate elimination (§5.2).
    Dedup,
    /// Parsing + template interning (§5.3).
    Parse,
    /// Per-user session building (Def. 7).
    Sessions,
    /// Pattern mining (Defs. 8–10).
    Mine,
    /// Antipattern detection (Defs. 11–16 + extensions).
    Detect,
    /// Solving / rewriting (§5.5).
    Solve,
}

impl Stage {
    /// All stages in execution order.
    pub const ALL: [Stage; 6] = [
        Stage::Dedup,
        Stage::Parse,
        Stage::Sessions,
        Stage::Mine,
        Stage::Detect,
        Stage::Solve,
    ];

    /// The stage's checkpoint-file stem and fault-injection name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Dedup => "dedup",
            Stage::Parse => "parse",
            Stage::Sessions => "sessions",
            Stage::Mine => "mine",
            Stage::Detect => "detect",
            Stage::Solve => "solve",
        }
    }

    /// The per-stage checkpoint-payload byte counter (recorder counters
    /// are keyed by `&'static str`, hence the explicit map).
    pub fn bytes_counter(self) -> &'static str {
        match self {
            Stage::Dedup => "checkpoint.bytes.dedup",
            Stage::Parse => "checkpoint.bytes.parse",
            Stage::Sessions => "checkpoint.bytes.sessions",
            Stage::Mine => "checkpoint.bytes.mine",
            Stage::Detect => "checkpoint.bytes.detect",
            Stage::Solve => "checkpoint.bytes.solve",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The run-identity record at `DIR/MANIFEST.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Manifest format version ([`MANIFEST_SCHEMA`]).
    pub schema: u64,
    /// Fingerprint of the semantic configuration + catalog
    /// ([`config_fingerprint`]). Execution knobs (threads, parse cache)
    /// are deliberately excluded — resuming at a different parallelism is
    /// supported and byte-identical.
    pub config_fingerprint: u64,
    /// Input file length in bytes.
    pub input_bytes: u64,
    /// FNV-1a 64 hash of the input file contents.
    pub input_fnv: u64,
    /// Ingestion policy of the run (`strict` / `lenient`).
    pub ingest_policy: IngestPolicy,
    /// Times this run was started (initial run + every resume).
    pub attempts: u64,
    /// Resumes of an incomplete run — i.e. starts that followed an
    /// interruption. Surfaced as `RunHealth::interruptions`.
    pub interruptions: u64,
    /// Set once the run's final artifacts were written.
    pub completed: bool,
}

fn policy_name(p: IngestPolicy) -> &'static str {
    match p {
        IngestPolicy::Strict => "strict",
        IngestPolicy::Lenient => "lenient",
    }
}

fn policy_from_name(s: &str) -> Option<IngestPolicy> {
    match s {
        "strict" => Some(IngestPolicy::Strict),
        "lenient" => Some(IngestPolicy::Lenient),
        _ => None,
    }
}

impl Manifest {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::U64(self.schema)),
            ("config_fingerprint", Json::U64(self.config_fingerprint)),
            ("input_bytes", Json::U64(self.input_bytes)),
            ("input_fnv", Json::U64(self.input_fnv)),
            (
                "ingest_policy",
                Json::Str(policy_name(self.ingest_policy).to_string()),
            ),
            ("attempts", Json::U64(self.attempts)),
            ("interruptions", Json::U64(self.interruptions)),
            ("completed", Json::Bool(self.completed)),
        ])
    }

    fn from_json(v: &Json) -> Result<Manifest, String> {
        Ok(Manifest {
            schema: get_u64(v, "schema")?,
            config_fingerprint: get_u64(v, "config_fingerprint")?,
            input_bytes: get_u64(v, "input_bytes")?,
            input_fnv: get_u64(v, "input_fnv")?,
            ingest_policy: policy_from_name(get_str(v, "ingest_policy")?)
                .ok_or("manifest: unknown ingest_policy")?,
            attempts: get_u64(v, "attempts")?,
            interruptions: get_u64(v, "interruptions")?,
            completed: get_bool(v, "completed")?,
        })
    }
}

/// A run directory on disk: manifest + checkpoints + sidecars.
#[derive(Debug, Clone)]
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    /// Creates (or re-initializes) a run directory for a **fresh** run:
    /// the directory and its `checkpoints/` subdirectory are created, and
    /// any checkpoints or manifest left by a previous run are removed.
    /// Use [`RunDir::open`] to resume instead.
    pub fn create(root: impl AsRef<Path>) -> Result<RunDir, String> {
        let dir = RunDir {
            root: root.as_ref().to_path_buf(),
        };
        std::fs::create_dir_all(dir.checkpoints_dir())
            .map_err(|e| format!("cannot create run directory {}: {e}", dir.root.display()))?;
        // A fresh run must not accidentally resume from stale state.
        let _ = std::fs::remove_file(dir.manifest_path());
        for stage in Stage::ALL {
            let _ = std::fs::remove_file(dir.checkpoint_path(stage));
        }
        Ok(dir)
    }

    /// Opens an existing run directory for `--resume`. Fails when the
    /// directory or its manifest is missing.
    pub fn open(root: impl AsRef<Path>) -> Result<RunDir, String> {
        let dir = RunDir {
            root: root.as_ref().to_path_buf(),
        };
        if !dir.manifest_path().is_file() {
            return Err(format!(
                "{} is not a run directory (no MANIFEST.json) — was it created with --run-dir?",
                dir.root.display()
            ));
        }
        std::fs::create_dir_all(dir.checkpoints_dir())
            .map_err(|e| format!("cannot open run directory {}: {e}", dir.root.display()))?;
        Ok(dir)
    }

    /// The directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join("MANIFEST.json")
    }

    fn checkpoints_dir(&self) -> PathBuf {
        self.root.join("checkpoints")
    }

    /// Path of a stage's checkpoint file.
    pub fn checkpoint_path(&self, stage: Stage) -> PathBuf {
        self.checkpoints_dir()
            .join(format!("{}.ckpt", stage.name()))
    }

    /// Default location of the lenient-mode quarantine sidecar.
    pub fn quarantine_path(&self) -> PathBuf {
        self.root.join("quarantine.tsv")
    }

    /// Reads and parses the manifest.
    pub fn load_manifest(&self) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(self.manifest_path())
            .map_err(|e| format!("cannot read {}: {e}", self.manifest_path().display()))?;
        let v = Json::parse(&text).map_err(|e| format!("manifest: {e}"))?;
        Manifest::from_json(&v)
    }

    /// Writes the manifest atomically.
    pub fn store_manifest(&self, m: &Manifest) -> Result<(), String> {
        sqlog_log::atomic_write(self.manifest_path(), m.to_json().render().as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", self.manifest_path().display()))
    }

    /// Marks the run complete (final artifacts written). Called by the
    /// binary after the clean/removal logs and reports landed.
    pub fn mark_completed(&self) -> Result<(), String> {
        let mut m = self.load_manifest()?;
        m.completed = true;
        self.store_manifest(&m)
    }

    /// Starts one leg of a run over the `input` bytes: a fresh run writes
    /// a new manifest; a resume checks the stored one against the current
    /// configuration fingerprint, input and ingest policy — refusing on
    /// any mismatch — and counts the attempt (and the interruption, when
    /// the run never completed).
    pub(crate) fn begin_leg(
        &self,
        opts: &CheckpointOptions,
        config_fingerprint: u64,
        input: &[u8],
    ) -> Result<Manifest, String> {
        let (input_bytes, input_fnv) = (input.len() as u64, Fingerprint::of_bytes(input).0);
        if !opts.resume {
            let m = Manifest {
                schema: MANIFEST_SCHEMA,
                config_fingerprint,
                input_bytes,
                input_fnv,
                ingest_policy: opts.policy,
                attempts: 1,
                interruptions: 0,
                completed: false,
            };
            self.store_manifest(&m)?;
            return Ok(m);
        }
        let root = self.root.display();
        let mut m = self.load_manifest()?;
        if m.schema != MANIFEST_SCHEMA {
            return Err(format!(
                "cannot resume {root}: manifest schema {} (this build expects {MANIFEST_SCHEMA})",
                m.schema
            ));
        }
        if m.config_fingerprint != config_fingerprint {
            return Err(format!(
                "cannot resume {root}: the run was started with a different configuration \
                 (manifest fingerprint {:#018x}, current {config_fingerprint:#018x}); re-run \
                 with the original semantic options and schema, or start fresh with --run-dir",
                m.config_fingerprint
            ));
        }
        if m.input_bytes != input_bytes || m.input_fnv != input_fnv {
            return Err(format!(
                "cannot resume {root}: input {} has changed since the run started \
                 (manifest: {} bytes, fnv {:#018x}; now: {input_bytes} bytes, \
                 fnv {input_fnv:#018x}); resume needs the identical input file",
                opts.input.display(),
                m.input_bytes,
                m.input_fnv
            ));
        }
        if m.ingest_policy != opts.policy {
            return Err(format!(
                "cannot resume {root}: the run used {} ingestion, this invocation asks for {}",
                policy_name(m.ingest_policy),
                policy_name(opts.policy)
            ));
        }
        // The counters come from a file: saturate rather than overflow.
        m.attempts = m.attempts.saturating_add(1);
        if !m.completed {
            m.interruptions = m.interruptions.saturating_add(1);
        }
        self.store_manifest(&m)?;
        Ok(m)
    }
}

/// How a log file is cleaned by [`Pipeline::run_file`] (and so by
/// [`run_checkpointed`]). `resume` and `stop_after` apply only to a run
/// with a run directory.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// The input log file, read once per leg: with a run directory, hashed
    /// into (or checked against) the manifest; then ingested from the same
    /// bytes.
    pub input: PathBuf,
    /// Ingestion policy (recorded in the manifest; a resume must match).
    pub policy: IngestPolicy,
    /// Lenient-mode quarantine sidecar destination, written atomically.
    pub quarantine: Option<PathBuf>,
    /// `true` = `--resume`: validate the manifest and load checkpoints.
    /// `false` = fresh run: write a new manifest, checkpoint every stage.
    pub resume: bool,
    /// Stop (successfully) after this stage's checkpoint is on disk —
    /// the hook behind the conformance resumed leg and the in-process
    /// resume tests. Ingest has no checkpoint, so the earliest stop is
    /// after dedup. `None` runs to completion.
    pub stop_after: Option<Stage>,
}

/// Everything a completed file run produces.
pub struct CheckpointOutcome {
    /// The pipeline result; `stats.run_health` already carries the
    /// ingestion counts and the interruption tally, and `stats.timings`
    /// the ingest and end-to-end times.
    pub result: PipelineResult,
    /// Ingestion accounting of this leg's read of the input (ingest is
    /// never checkpointed, so a resumed leg re-reads and re-counts it).
    pub ingest_stats: IngestStats,
    /// Stages loaded from checkpoints instead of re-executed.
    pub loaded_stages: Vec<&'static str>,
    /// Non-fatal diagnostics (e.g. a corrupted checkpoint that forced a
    /// stage re-run). Also routed through the recorder as warnings.
    pub warnings: Vec<String>,
}

/// Fingerprint of the **semantic** configuration plus the catalog: every
/// knob that can change pipeline output, and none that cannot.
/// `parallelism`, the parse cache and the recorder are excluded by design
/// — the determinism contract says they never change a byte of output, so
/// they must not block a resume.
pub fn config_fingerprint(config: &crate::config::PipelineConfig, catalog: &Catalog) -> u64 {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(
        s,
        "v1;dup={:?};gap={};ngram={};minfreq={};cthgap={};cthla={};key={};addcol={};\
         depth={};bytes={};tokens={};",
        config.duplicate_threshold_ms,
        config.session_gap_ms,
        config.max_ngram,
        config.min_pattern_frequency,
        config.cth_max_gap_ms,
        config.cth_lookahead,
        config.require_key_attribute,
        config.rewrite_adds_filter_column,
        config.max_parse_depth,
        config.max_statement_bytes,
        config.max_parse_tokens,
    );
    let mut tables: Vec<_> = catalog.tables().collect();
    tables.sort_by(|a, b| a.name.cmp(&b.name));
    for t in tables {
        let _ = write!(s, "table={};", t.name);
        for c in &t.columns {
            let _ = write!(s, "col={}:{:?};", c.name, c.ty);
        }
        for k in &t.primary_key {
            let _ = write!(s, "pk={k};");
        }
        for fk in &t.foreign_keys {
            let _ = write!(s, "fk={}->{}.{};", fk.column, fk.ref_table, fk.ref_column);
        }
    }
    Fingerprint::of_str(&s).0
}

/// Streams a file through FNV-1a 64, returning `(length, hash)`.
pub fn hash_file(path: &Path) -> Result<(u64, u64), String> {
    let mut f =
        std::fs::File::open(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut hasher = Fnv1a::new();
    let mut len = 0u64;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = f
            .read(&mut buf)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if n == 0 {
            break;
        }
        len += n as u64;
        hasher.update(&buf[..n]);
    }
    Ok((len, hasher.finish().0))
}

// ---------------------------------------------------------------------------
// JSON helpers for the manifest and the checkpoint header (the vendored
// serde is a no-op; serialization is explicit, in the style of `run_report`).

fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer {key:?}"))
}

fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string {key:?}"))
}

fn get_bool(v: &Json, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing or non-boolean {key:?}"))
}

// ---------------------------------------------------------------------------
// Binary payload codec: LEB128 varints, length-prefixed byte strings and
// UTF-8 strings, one-byte enum tags. Stage outputs are encoded straight
// into one buffer and decoded straight from the file bytes.

/// Payload writer.
#[derive(Default)]
pub(crate) struct Enc(Vec<u8>);

impl Enc {
    fn u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.0.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.0.push(v as u8);
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn tag(&mut self, t: u8) {
        self.0.push(t);
    }

    fn bool(&mut self, b: bool) {
        self.tag(u8::from(b));
    }

    fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.0.extend_from_slice(b);
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn seq<I: IntoIterator>(&mut self, items: I, mut f: impl FnMut(&mut Enc, I::Item))
    where
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.usize(items.len());
        for x in items {
            f(self, x);
        }
    }

    fn ids(&mut self, ids: &[TemplateId]) {
        self.seq(ids, |e, t| e.u64(t.0.into()));
    }
}

/// Payload reader over the unread rest of the buffer. Never panics: every
/// read is bounds-checked, every sequence length is bounded by the bytes
/// left (each element takes at least one) before anything is allocated.
pub(crate) struct Dec<'a>(&'a [u8]);

impl<'a> Dec<'a> {
    fn byte(&mut self) -> Result<u8, String> {
        let (&b, rest) = self.0.split_first().ok_or("payload truncated")?;
        self.0 = rest;
        Ok(b)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let bits = u64::from(b & 0x7f);
            if shift == 63 && bits > 1 {
                return Err("varint overflows u64".to_string());
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("varint longer than 10 bytes".to_string())
    }

    fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "count exceeds usize".to_string())
    }

    fn u32(&mut self) -> Result<u32, String> {
        u32::try_from(self.u64()?).map_err(|_| "non-u32 value".to_string())
    }

    /// An index that must be below `bound`.
    fn index<T: TryFrom<u64>>(&mut self, bound: usize, what: &str) -> Result<T, String> {
        let i = self.u64()?;
        if i >= bound as u64 {
            return Err(format!("{what} index {i} out of bounds (< {bound})"));
        }
        T::try_from(i).map_err(|_| format!("{what} index {i} out of range"))
    }

    fn ids(&mut self, n_templates: usize, what: &str) -> Result<Vec<TemplateId>, String> {
        self.seq(|d| d.index(n_templates, what).map(TemplateId))
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(format!("unknown boolean tag {t}")),
        }
    }

    /// A sequence length, bounded by the bytes left.
    fn len(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        if n > self.0.len() as u64 {
            return Err(format!(
                "length {n} exceeds the {} payload bytes left",
                self.0.len()
            ));
        }
        Ok(n as usize)
    }

    fn bytes(&mut self) -> Result<&'a [u8], String> {
        let n = self.len()?;
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn string(&mut self) -> Result<String, String> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_string)
            .map_err(|_| "string is not UTF-8".to_string())
    }

    fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let n = self.len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(f(self)?);
        }
        Ok(v)
    }
}

/// Wire tags of the fieldless enums: a variant's tag is its table index.
const THETAS: [Theta; 6] = [
    Theta::Eq,
    Theta::NotEq,
    Theta::Lt,
    Theta::LtEq,
    Theta::Gt,
    Theta::GtEq,
];
const KINDS: [StatementKind; 6] = [
    StatementKind::Insert,
    StatementKind::Update,
    StatementKind::Delete,
    StatementKind::Ddl,
    StatementKind::Exec,
    StatementKind::Other,
];

fn tag_of<T: PartialEq>(table: &[T], v: &T) -> u8 {
    table
        .iter()
        .position(|x| x == v)
        .expect("every variant has a tag") as u8
}

fn from_tag<T: Copy>(table: &[T], d: &mut Dec<'_>, what: &str) -> Result<T, String> {
    let t = d.byte()?;
    table
        .get(usize::from(t))
        .copied()
        .ok_or_else(|| format!("unknown {what} tag {t}"))
}

// --- stage payloads --------------------------------------------------------

pub(crate) fn encode_dedup(e: &mut Enc, (kept, stats): &(LogView<'_>, DedupStats)) {
    e.seq(0..kept.len(), |e, i| e.usize(kept.base_index(i)));
    for n in [
        stats.input,
        stats.removed,
        stats.kept,
        stats.poison,
        stats.degraded_shards,
    ] {
        e.usize(n);
    }
}

pub(crate) fn decode_dedup<'l>(
    d: &mut Dec<'_>,
    log: &'l QueryLog,
) -> Result<(LogView<'l>, DedupStats), String> {
    let kept: Vec<u32> = d.seq(|d| d.index(log.len(), "kept"))?;
    // The solve splice relies on the kept view's time order.
    let key = |i: u32| {
        let e = &log.entries[i as usize];
        (e.timestamp, e.id)
    };
    if kept.windows(2).any(|w| key(w[0]) > key(w[1])) {
        return Err("kept entries are not in time order".to_string());
    }
    let stats = DedupStats {
        input: d.usize()?,
        removed: d.usize()?,
        kept: d.usize()?,
        poison: d.usize()?,
        degraded_shards: d.usize()?,
    };
    if stats.kept != kept.len() {
        return Err("kept count disagrees with index vector".to_string());
    }
    Ok((LogView::from_indices(log, kept), stats))
}

fn encode_value(e: &mut Enc, v: &ValueKind) {
    match v {
        ValueKind::Number(s) => {
            e.tag(0);
            e.str(s);
        }
        ValueKind::String(s) => {
            e.tag(1);
            e.str(s);
        }
        ValueKind::Null => e.tag(2),
        ValueKind::Bool(b) => {
            e.tag(3);
            e.bool(*b);
        }
        ValueKind::Variable(s) => {
            e.tag(4);
            e.str(s);
        }
        ValueKind::Column(s) => {
            e.tag(5);
            e.str(s);
        }
        ValueKind::Complex => e.tag(6),
    }
}

fn decode_value(d: &mut Dec<'_>) -> Result<ValueKind, String> {
    Ok(match d.byte()? {
        0 => ValueKind::Number(d.string()?),
        1 => ValueKind::String(d.string()?),
        2 => ValueKind::Null,
        3 => ValueKind::Bool(d.bool()?),
        4 => ValueKind::Variable(d.string()?),
        5 => ValueKind::Column(d.string()?),
        6 => ValueKind::Complex,
        t => return Err(format!("unknown value kind tag {t}")),
    })
}

fn encode_predicate(e: &mut Enc, p: &PredicateKind) {
    match p {
        PredicateKind::Comparison {
            column,
            theta,
            value,
        } => {
            e.tag(0);
            e.str(column);
            e.tag(tag_of(&THETAS, theta));
            encode_value(e, value);
        }
        PredicateKind::Between {
            column,
            low,
            high,
            negated,
        } => {
            e.tag(1);
            e.str(column);
            encode_value(e, low);
            encode_value(e, high);
            e.bool(*negated);
        }
        PredicateKind::InList {
            column,
            values,
            negated,
        } => {
            e.tag(2);
            e.str(column);
            e.seq(values, encode_value);
            e.bool(*negated);
        }
        PredicateKind::IsNull { column, negated } => {
            e.tag(3);
            e.str(column);
            e.bool(*negated);
        }
        PredicateKind::Like {
            column,
            pattern,
            negated,
        } => {
            e.tag(4);
            e.str(column);
            encode_value(e, pattern);
            e.bool(*negated);
        }
        PredicateKind::Other => e.tag(5),
    }
}

fn decode_predicate(d: &mut Dec<'_>) -> Result<PredicateKind, String> {
    Ok(match d.byte()? {
        0 => PredicateKind::Comparison {
            column: d.string()?,
            theta: from_tag(&THETAS, d, "theta")?,
            value: decode_value(d)?,
        },
        1 => PredicateKind::Between {
            column: d.string()?,
            low: decode_value(d)?,
            high: decode_value(d)?,
            negated: d.bool()?,
        },
        2 => PredicateKind::InList {
            column: d.string()?,
            values: d.seq(decode_value)?,
            negated: d.bool()?,
        },
        3 => PredicateKind::IsNull {
            column: d.string()?,
            negated: d.bool()?,
        },
        4 => PredicateKind::Like {
            column: d.string()?,
            pattern: decode_value(d)?,
            negated: d.bool()?,
        },
        5 => PredicateKind::Other,
        t => return Err(format!("unknown predicate kind tag {t}")),
    })
}

fn encode_template(e: &mut Enc, t: &QueryTemplate) {
    for s in [&t.ssc, &t.sfc, &t.swc, &t.full] {
        e.str(s);
    }
}

/// The fingerprint is recomputed from the skeleton text, not stored: a
/// stored hash could disagree with the text it claims to identify.
fn decode_template(d: &mut Dec<'_>) -> Result<QueryTemplate, String> {
    let (ssc, sfc, swc, full) = (d.string()?, d.string()?, d.string()?, d.string()?);
    Ok(QueryTemplate {
        ssc,
        sfc,
        swc,
        fingerprint: Fingerprint::of_str(&full),
        full,
    })
}

pub(crate) fn encode_parse(e: &mut Enc, (store, parsed): &(TemplateStore, ParsedLog)) {
    e.seq(0..store.len() as u32, |e, i| {
        store.with(TemplateId(i), |t| encode_template(e, t))
    });
    // The shape table: distinct shapes by value, in order of first
    // appearance in the records, so the bytes do not depend on which
    // records happened to share an `Arc`.
    let mut index: FnvHashMap<&RecordShape, u64> = FnvHashMap::default();
    let mut shapes: Vec<&RecordShape> = Vec::new();
    let shape_of: Vec<u64> = parsed
        .records
        .iter()
        .map(|r| {
            *index.entry(&r.shape).or_insert_with(|| {
                shapes.push(&r.shape);
                shapes.len() as u64 - 1
            })
        })
        .collect();
    e.seq(shapes, |e, shape| {
        e.bool(shape.output.wildcard);
        e.seq(&shape.output.names, |e, n| e.str(n));
        e.bool(shape.primary_table.is_some());
        if let Some(t) = &shape.primary_table {
            e.str(t);
        }
    });
    e.seq(parsed.records.iter().zip(shape_of), |e, (r, shape)| {
        e.u64(r.entry_idx.into());
        e.u64(r.template.0.into());
        e.u64(shape);
        e.seq(&r.profile.conjuncts, encode_predicate);
    });
    let s = &parsed.stats;
    for n in [
        s.total,
        s.selects,
        s.errors,
        s.limit_exceeded,
        s.poison,
        s.degraded_shards,
    ] {
        e.usize(n);
    }
    let mut non_select: Vec<(u8, usize)> = s
        .non_select
        .iter()
        .map(|(k, &n)| (tag_of(&KINDS, k), n))
        .collect();
    non_select.sort_unstable();
    e.seq(non_select, |e, (k, n)| {
        e.tag(k);
        e.usize(n);
    });
    let c = &parsed.cache;
    e.bool(c.enabled);
    for n in [c.hits, c.misses, c.fallbacks, c.crosschecks] {
        e.u64(n);
    }
}

pub(crate) fn decode_parse(
    d: &mut Dec<'_>,
    pre_clean_len: usize,
    rec: &Recorder,
) -> Result<(TemplateStore, ParsedLog), String> {
    let store = TemplateStore::with_recorder(rec.clone());
    let n_templates = d.len()?;
    for i in 0..n_templates {
        let id = store.intern(decode_template(d)?);
        if id != TemplateId(i as u32) {
            return Err(format!(
                "template {i} interned as id {} — duplicate fingerprint in checkpoint",
                id.0
            ));
        }
    }
    // Each distinct shape once; the records of a shape share its `Arc`.
    let shapes = d.seq(|d| {
        Ok(Arc::new(RecordShape {
            output: OutputColumns {
                wildcard: d.bool()?,
                names: d.seq(Dec::string)?,
            },
            primary_table: if d.bool()? { Some(d.string()?) } else { None },
        }))
    })?;
    let mut distinct: FnvHashSet<&RecordShape> = FnvHashSet::default();
    if let Some(i) = shapes.iter().position(|s| !distinct.insert(s)) {
        return Err(format!("shape-table entry {i} duplicates an earlier one"));
    }
    // One record per parsed entry, in view order. The parse join gives
    // template ids by first appearance in the records, so the records
    // introduce ids 0, 1, 2, … in order and use every one.
    let mut next_entry = 0u64;
    let mut next_template = 0u32;
    let records = d.seq(|d| {
        let entry_idx: u32 = d.index(pre_clean_len, "record entry")?;
        if u64::from(entry_idx) < next_entry {
            return Err(format!("record entry {entry_idx} is out of order"));
        }
        next_entry = u64::from(entry_idx) + 1;
        let template: u32 = d.index(n_templates, "record template")?;
        if template > next_template {
            return Err(format!(
                "record template {template} appears before template {next_template}"
            ));
        }
        if template == next_template {
            next_template += 1;
        }
        Ok(ParsedRecord {
            entry_idx,
            template: TemplateId(template),
            shape: Arc::clone(&shapes[d.index::<usize>(shapes.len(), "record shape")?]),
            profile: PredicateProfile {
                conjuncts: d.seq(decode_predicate)?,
            },
        })
    })?;
    if next_template as usize != n_templates {
        return Err(format!("template {next_template} is used by no record"));
    }
    let mut stats = ParseStats {
        total: d.usize()?,
        selects: d.usize()?,
        errors: d.usize()?,
        limit_exceeded: d.usize()?,
        poison: d.usize()?,
        degraded_shards: d.usize()?,
        non_select: Default::default(),
    };
    for (k, n) in d.seq(|d| Ok((from_tag(&KINDS, d, "statement kind")?, d.usize()?)))? {
        stats.non_select.insert(k, n);
    }
    let cache = ParseCacheStats {
        enabled: d.bool()?,
        hits: d.u64()?,
        misses: d.u64()?,
        fallbacks: d.u64()?,
        crosschecks: d.u64()?,
    };
    Ok((
        store,
        ParsedLog {
            records,
            stats,
            cache,
        },
    ))
}

pub(crate) fn encode_sessions(e: &mut Enc, sessions: &Sessions) {
    e.seq(&sessions.user_names, |e, n| e.str(n));
    e.seq(&sessions.sessions, |e, s| {
        e.u64(s.user.into());
        e.seq(&s.records, |e, &r| e.usize(r));
    });
    e.usize(sessions.poison);
    e.usize(sessions.degraded_shards);
}

pub(crate) fn decode_sessions(d: &mut Dec<'_>, n_records: usize) -> Result<Sessions, String> {
    let user_names = d.seq(Dec::string)?;
    let sessions = d.seq(|d| {
        Ok(Session {
            user: d.index(user_names.len(), "session user")?,
            records: d.seq(|d| d.index(n_records, "session record"))?,
        })
    })?;
    // Mining appends each pattern's users in session order.
    if sessions.windows(2).any(|w| w[1].user < w[0].user) {
        return Err("session users are not in ascending order".to_string());
    }
    Ok(Sessions {
        sessions,
        user_names,
        poison: d.usize()?,
        degraded_shards: d.usize()?,
    })
}

pub(crate) fn encode_mine(e: &mut Enc, mined: &MinedPatterns) {
    let mut patterns: Vec<(&Vec<TemplateId>, &PatternData)> = mined.patterns.iter().collect();
    patterns.sort_by(|a, b| a.0.cmp(b.0));
    e.seq(patterns, |e, (key, data)| {
        e.ids(key);
        e.u64(data.frequency);
        e.seq(&data.users, |e, &u| e.u64(u.into()));
    });
    e.u64(mined.total_queries);
    e.usize(mined.poison_sessions);
    e.usize(mined.degraded_shards);
}

pub(crate) fn decode_mine(d: &mut Dec<'_>, n_templates: usize) -> Result<MinedPatterns, String> {
    let patterns = d.seq(|d| {
        let key = d.ids(n_templates, "pattern template")?;
        let frequency = d.u64()?;
        let users = d.seq(Dec::u32)?;
        if users.windows(2).any(|w| w[1] <= w[0]) {
            return Err("pattern users are not strictly ascending".to_string());
        }
        Ok((key, PatternData { frequency, users }))
    })?;
    Ok(MinedPatterns {
        patterns: patterns.into_iter().collect(),
        total_queries: d.u64()?,
        poison_sessions: d.usize()?,
        degraded_shards: d.usize()?,
    })
}

fn encode_class(e: &mut Enc, c: &AntipatternClass) {
    // Builtin labels and custom names share one namespace; `decode_class`
    // resolves builtins first, so a custom class must not collide with a
    // builtin label — which `ExtensionRegistry` already guarantees in
    // practice (a custom "DW-Stifle" would be indistinguishable anyway).
    e.str(c.label());
}

fn decode_class(d: &mut Dec<'_>) -> Result<AntipatternClass, String> {
    let label = d.string()?;
    Ok(match label.as_str() {
        "DW-Stifle" => AntipatternClass::DwStifle,
        "DS-Stifle" => AntipatternClass::DsStifle,
        "DF-Stifle" => AntipatternClass::DfStifle,
        "CTH" => AntipatternClass::CthCandidate,
        "SNC" => AntipatternClass::Snc,
        _ => AntipatternClass::Custom(label),
    })
}

pub(crate) fn encode_detect(e: &mut Enc, detected: &DetectOutput) {
    e.seq(&detected.instances, |e, inst| {
        encode_class(e, &inst.class);
        e.seq(&inst.records, |e, &r| e.usize(r));
        e.ids(&inst.identity);
        e.seq(&inst.marker_keys, |e, key| e.ids(key));
        e.bool(inst.solvable);
    });
    e.usize(detected.poison_sessions);
    e.usize(detected.degraded_shards);
}

pub(crate) fn decode_detect(
    d: &mut Dec<'_>,
    n_records: usize,
    n_templates: usize,
) -> Result<DetectOutput, String> {
    let instances = d.seq(|d| {
        Ok(AntipatternInstance {
            class: decode_class(d)?,
            records: d.seq(|d| d.index(n_records, "instance record"))?,
            identity: d.ids(n_templates, "identity template")?,
            marker_keys: d.seq(|d| d.ids(n_templates, "marker template"))?,
            solvable: d.bool()?,
        })
    })?;
    Ok(DetectOutput {
        instances,
        poison_sessions: d.usize()?,
        degraded_shards: d.usize()?,
    })
}

pub(crate) fn encode_solve(e: &mut Enc, decisions: &SolveDecisions) {
    e.seq(&decisions.solved, |e, (i, statements)| {
        e.usize(*i);
        e.seq(statements, |e, s| e.str(s));
    });
    e.usize(decisions.skipped_overlaps);
}

/// Decodes solve decisions, rejecting any the solver pass could not have
/// made over `instances` (see [`SolveDecisions::solved`]), so that
/// [`splice_solutions`] can trust them.
pub(crate) fn decode_solve(
    d: &mut Dec<'_>,
    instances: &[AntipatternInstance],
    n_records: usize,
) -> Result<SolveDecisions, String> {
    let mut consumed = vec![false; n_records];
    let mut next = 0usize;
    let solved = d.seq(|d| {
        let i: usize = d.index(instances.len(), "solved instance")?;
        if i < next {
            return Err(format!("solved instance {i} is not above the previous one"));
        }
        next = i + 1;
        let inst = &instances[i];
        if !inst.solvable || inst.records.is_empty() {
            return Err(format!("instance {i} is not solvable"));
        }
        if inst.records.iter().any(|&ri| consumed[ri]) {
            return Err(format!("instance {i} overlaps an earlier solved instance"));
        }
        for &ri in &inst.records {
            consumed[ri] = true;
        }
        Ok((i, d.seq(Dec::string)?))
    })?;
    Ok(SolveDecisions {
        solved,
        skipped_overlaps: d.usize()?,
    })
}

// ---------------------------------------------------------------------------
// Checkpoint file I/O

/// Writes a stage checkpoint atomically: header line (stage, schema,
/// payload length, payload FNV-1a) + payload, via temp file + fsync +
/// rename. The `checkpoint`-stage fault hook fires *between* writing the
/// temp file and the rename — the window where a real crash leaves a torn
/// temp file but an intact (absent or previous) checkpoint.
pub(crate) fn write_checkpoint(
    dir: &RunDir,
    rec: &Recorder,
    stage: Stage,
    encode: impl FnOnce(&mut Enc),
) -> Result<(), String> {
    let body = {
        let mut span = rec.span("checkpoint.encode");
        span.field("stage", stage.name());
        let mut enc = Enc::default();
        encode(&mut enc);
        span.field("bytes", enc.0.len() as u64);
        enc.0
    };
    let header = Json::obj(vec![
        ("stage", Json::Str(stage.name().to_string())),
        ("schema", Json::U64(CHECKPOINT_SCHEMA)),
        ("payload_bytes", Json::U64(body.len() as u64)),
        ("payload_fnv", Json::U64(Fingerprint::of_bytes(&body).0)),
    ])
    .render();
    let total = (header.len() + 1 + body.len()) as u64;
    let mut span = rec.span("checkpoint.write");
    span.field("stage", stage.name());
    span.field("bytes", total);
    let path = dir.checkpoint_path(stage);
    let err = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    let mut f = AtomicFile::create(&path).map_err(err)?;
    f.write_all(header.as_bytes()).map_err(err)?;
    f.write_all(b"\n").map_err(err)?;
    f.write_all(&body).map_err(err)?;
    // Chaos hook: die after the bytes exist but before they become the
    // checkpoint. Marker = stage name.
    fault::trip(&fault::armed("checkpoint"), stage.name());
    f.commit().map_err(err)?;
    rec.counter("checkpoint.writes", 1);
    rec.counter("checkpoint.bytes_written", total);
    rec.counter(stage.bytes_counter(), total);
    rec.histogram("checkpoint.write_us", span.finish().as_micros() as u64);
    Ok(())
}

/// Loads a stage checkpoint: reads and validates the file, then decodes
/// its payload with `decode`, which must consume it exactly. `Ok(None)` =
/// not present (the stage was never completed); `Err` = present but
/// unusable (torn write, corruption, schema drift, a payload the decoder
/// refuses) — the caller reports it and re-runs the stage.
pub(crate) fn load_checkpoint<T>(
    dir: &RunDir,
    rec: &Recorder,
    stage: Stage,
    decode: impl FnOnce(&mut Dec<'_>) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let Some((bytes, start)) = read_checkpoint(dir, rec, stage)? else {
        return Ok(None);
    };
    decode_payload(rec, stage, &bytes[start..], decode).map(Some)
}

/// Reads and validates a stage checkpoint, returning the file's bytes and
/// the offset its payload starts at (`None` when there is no file).
fn read_checkpoint(
    dir: &RunDir,
    rec: &Recorder,
    stage: Stage,
) -> Result<Option<(Vec<u8>, usize)>, String> {
    let path = dir.checkpoint_path(stage);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut span = rec.span("checkpoint.load");
    span.field("stage", stage.name());
    span.field("bytes", bytes.len() as u64);
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("truncated checkpoint (no header line)")?;
    let header_text =
        std::str::from_utf8(&bytes[..nl]).map_err(|_| "checkpoint header is not UTF-8")?;
    let header = Json::parse(header_text).map_err(|e| format!("checkpoint header: {e}"))?;
    let schema = get_u64(&header, "schema")?;
    if schema != CHECKPOINT_SCHEMA {
        return Err(format!(
            "unsupported checkpoint schema {schema} (expected {CHECKPOINT_SCHEMA})"
        ));
    }
    let named = get_str(&header, "stage")?;
    if named != stage.name() {
        return Err(format!(
            "checkpoint file names stage {named:?}, expected {:?}",
            stage.name()
        ));
    }
    let declared = get_u64(&header, "payload_bytes")?;
    let declared_fnv = get_u64(&header, "payload_fnv")?;
    let payload = &bytes[nl + 1..];
    if declared != payload.len() as u64 {
        return Err(format!(
            "payload is {} bytes, header declares {declared} (torn write?)",
            payload.len()
        ));
    }
    let fnv = Fingerprint::of_bytes(payload).0;
    if fnv != declared_fnv {
        return Err(format!(
            "payload hash {fnv:#018x} does not match header {declared_fnv:#018x} (corrupted?)"
        ));
    }
    rec.counter("checkpoint.loads", 1);
    rec.histogram("checkpoint.load_us", span.finish().as_micros() as u64);
    Ok(Some((bytes, nl + 1)))
}

/// Decodes a payload with `decode`, which must consume it exactly.
fn decode_payload<T>(
    rec: &Recorder,
    stage: Stage,
    payload: &[u8],
    decode: impl FnOnce(&mut Dec<'_>) -> Result<T, String>,
) -> Result<T, String> {
    let mut span = rec.span("checkpoint.decode");
    span.field("stage", stage.name());
    span.field("bytes", payload.len() as u64);
    let mut d = Dec(payload);
    let v = decode(&mut d)?;
    if !d.0.is_empty() {
        return Err(format!("{} trailing bytes after the payload", d.0.len()));
    }
    Ok(v)
}

/// Cleans `opts.input` through the pipeline's stage sequence, checkpointed
/// into `dir`: each stage is either loaded from its (validated) checkpoint
/// or executed and checkpointed. This is [`Pipeline::run_file`] with a run
/// directory. Returns `Ok(None)` when [`CheckpointOptions::stop_after`]
/// ended the run early; otherwise the completed [`CheckpointOutcome`].
///
/// Fatal errors (unreadable input, manifest mismatch, unwritable run
/// directory) are `Err`; a corrupted or torn checkpoint is *not* fatal —
/// it is reported and the stage re-runs.
pub fn run_checkpointed(
    pipeline: &Pipeline<'_>,
    dir: &RunDir,
    opts: &CheckpointOptions,
) -> Result<Option<CheckpointOutcome>, String> {
    pipeline.run_file(opts, Some(dir))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlog_log::{LogEntry, Timestamp};

    fn three_entries() -> QueryLog {
        QueryLog::from_entries(
            (0..3)
                .map(|i| LogEntry::minimal(i, "SELECT 1", Timestamp(i as i64)))
                .collect(),
        )
    }

    fn dedup_payload() -> Vec<u8> {
        let stats = DedupStats {
            input: 3,
            removed: 1,
            kept: 2,
            poison: 0,
            degraded_shards: 0,
        };
        let log = three_entries();
        let mut e = Enc::default();
        encode_dedup(&mut e, &(LogView::from_indices(&log, vec![0, 2]), stats));
        e.0
    }

    /// The kept base indices of a decoded dedup payload.
    fn decode(payload: &[u8]) -> Result<Vec<usize>, String> {
        let log = three_entries();
        let (kept, _) = decode_payload(&Recorder::disabled(), Stage::Dedup, payload, |d| {
            decode_dedup(d, &log)
        })?;
        Ok((0..kept.len()).map(|i| kept.base_index(i)).collect())
    }

    #[test]
    fn varints_round_trip_at_the_edges() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u32::MAX.into(), u64::MAX] {
            let mut e = Enc::default();
            e.u64(v);
            assert!(e.0.len() <= 10);
            let mut d = Dec(&e.0);
            assert_eq!(d.u64(), Ok(v));
            assert!(d.0.is_empty());
        }
    }

    #[test]
    fn over_long_varint_is_rejected() {
        // Eleven continuation bytes: longer than any u64 encoding.
        assert!(Dec(&[0x80; 11]).u64().is_err());
        // Ten bytes whose last one carries bits above 2^64.
        let mut overflow = [0xff; 10];
        overflow[9] = 0x02;
        assert!(Dec(&overflow).u64().is_err());
        // A varint cut short by the end of the payload.
        assert!(Dec(&[0x80, 0x80]).u64().is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = dedup_payload();
        assert_eq!(decode(&payload), Ok(vec![0, 2]));
        payload.push(0);
        let err = decode(&payload).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }

    #[test]
    fn lengths_beyond_the_payload_are_rejected_before_allocating() {
        for n in [1u64 << 40, u64::MAX] {
            let mut e = Enc::default();
            e.u64(n);
            e.0.extend_from_slice(&dedup_payload()[1..]);
            let err = decode(&e.0).unwrap_err();
            assert!(err.contains("exceeds"), "{err}");
        }
    }

    #[test]
    fn unknown_tags_and_out_of_bounds_indices_are_rejected() {
        assert!(decode_value(&mut Dec(&[7])).is_err());
        assert!(decode_predicate(&mut Dec(&[6])).is_err());
        assert!(decode_predicate(&mut Dec(&[0, 1, b'x', 6])).is_err());
        assert!(Dec(&[2]).bool().is_err());
        // A kept index past the 3-entry log.
        assert!(decode(&[1, 3, 3, 2, 1, 0, 0]).is_err());
    }

    /// Thirty statements of three shapes, parsed without the parse cache
    /// (so every record owns its own shape `Arc`).
    fn parsed_fixture() -> (QueryLog, TemplateStore, ParsedLog) {
        use crate::{parse_step::parse, PipelineConfig};
        let statements: Vec<String> = (0..30)
            .map(|i| match i % 3 {
                0 => format!("SELECT a, b FROM t WHERE x = {i}"),
                1 => format!("SELECT * FROM u WHERE y = 'v{i}' AND z > {i}"),
                _ => format!("SELECT c FROM t, u WHERE t.x = u.y AND t.x = {i}"),
            })
            .collect();
        let log = QueryLog::from_entries(
            statements
                .iter()
                .enumerate()
                .map(|(i, s)| LogEntry::minimal(i as u64, s.as_str(), Timestamp(i as i64)))
                .collect(),
        );
        let cfg = PipelineConfig {
            parse_cache: false,
            parallelism: 1,
            ..PipelineConfig::default()
        };
        let store = TemplateStore::new();
        let parsed = parse(&LogView::identity(&log), &store, &cfg);
        (log, store, parsed)
    }

    fn decode_parsed(log: &QueryLog, payload: &[u8]) -> Result<ParsedLog, String> {
        let none = Recorder::disabled();
        decode_payload(&none, Stage::Parse, payload, |d| {
            decode_parse(d, log.len(), &none)
        })
        .map(|(_, parsed)| parsed)
    }

    #[test]
    fn parse_payload_round_trips_with_one_arc_per_shape() {
        let (log, store, parsed) = parsed_fixture();
        let arcs = |records: &[ParsedRecord]| {
            let ptrs: FnvHashSet<*const RecordShape> =
                records.iter().map(|r| Arc::as_ptr(&r.shape)).collect();
            ptrs.len()
        };
        assert_eq!(arcs(&parsed.records), 30);
        let distinct: FnvHashSet<&RecordShape> = parsed.records.iter().map(|r| &*r.shape).collect();
        let distinct = distinct.len();
        assert_eq!(distinct, 3);

        let original = (store, parsed);
        let mut e = Enc::default();
        encode_parse(&mut e, &original);
        let decoded = decode_parsed(&log, &e.0).unwrap();
        assert_eq!(decoded.records, original.1.records);
        assert_eq!(arcs(&decoded.records), distinct);
    }

    #[test]
    fn parse_payloads_whose_template_ids_are_not_first_appearance_are_rejected() {
        let encode = |store: TemplateStore, parsed: ParsedLog| {
            let mut e = Enc::default();
            encode_parse(&mut e, &(store, parsed));
            e.0
        };
        // Templates 0 and 1 swapped: every record still names its own
        // template, but the first record introduces id 1.
        let (log, store, mut parsed) = parsed_fixture();
        assert_eq!(store.len(), 3);
        let swap = [1, 0, 2];
        let swapped = TemplateStore::new();
        for id in swap {
            swapped.intern(store.get(TemplateId(id)));
        }
        for r in &mut parsed.records {
            r.template = TemplateId(swap[r.template.0 as usize]);
        }
        let err = decode_parsed(&log, &encode(swapped, parsed)).unwrap_err();
        assert!(err.contains("appears before template 0"), "{err}");

        // A template that no record uses.
        let (log, store, parsed) = parsed_fixture();
        store.intern(QueryTemplate::of_query(
            &sqlog_sql::parse_query("SELECT z FROM nowhere").unwrap(),
        ));
        let err = decode_parsed(&log, &encode(store, parsed)).unwrap_err();
        assert!(err.contains("template 3 is used by no record"), "{err}");
    }

    #[test]
    fn sessions_whose_users_decrease_are_rejected() {
        let decode = |users: &[u32]| {
            let sessions = Sessions {
                sessions: users
                    .iter()
                    .enumerate()
                    .map(|(r, &user)| Session {
                        user,
                        records: vec![r],
                    })
                    .collect(),
                user_names: vec!["a".to_string(), "b".to_string()],
                ..Sessions::default()
            };
            let mut e = Enc::default();
            encode_sessions(&mut e, &sessions);
            decode_payload(&Recorder::disabled(), Stage::Sessions, &e.0, |d| {
                decode_sessions(d, users.len())
            })
            .map(|got| assert_eq!(got.sessions, sessions.sessions))
        };
        assert_eq!(decode(&[0, 0, 1, 1]), Ok(()));
        let err = decode(&[0, 1, 0]).unwrap_err();
        assert!(err.contains("ascending"), "{err}");
    }

    #[test]
    fn pattern_users_out_of_order_or_repeated_are_rejected() {
        let decode = |users: &[u32]| {
            let mut mined = MinedPatterns {
                total_queries: 4,
                ..MinedPatterns::default()
            };
            mined.patterns.insert(
                vec![TemplateId(0)],
                PatternData {
                    frequency: 4,
                    users: users.to_vec(),
                },
            );
            let mut e = Enc::default();
            encode_mine(&mut e, &mined);
            decode_payload(&Recorder::disabled(), Stage::Mine, &e.0, |d| {
                decode_mine(d, 1)
            })
            .map(|got| assert_eq!(got.patterns, mined.patterns))
        };
        assert_eq!(decode(&[0, 2, 7]), Ok(()));
        for users in [&[2, 0][..], &[0, 2, 2]] {
            let err = decode(users).unwrap_err();
            assert!(err.contains("strictly ascending"), "{users:?}: {err}");
        }
    }

    #[test]
    fn solve_decisions_the_solver_could_not_make_are_rejected() {
        let inst = |records: Vec<usize>, solvable| AntipatternInstance {
            class: AntipatternClass::DwStifle,
            records,
            identity: Vec::new(),
            marker_keys: Vec::new(),
            solvable,
        };
        // Instances 0 and 1 share record 1; instance 2 is not solvable.
        let instances = [
            inst(vec![0, 1], true),
            inst(vec![1, 2], true),
            inst(vec![3], false),
            inst(vec![4], true),
        ];
        let decode = |solved: &[usize]| {
            let decisions = SolveDecisions {
                solved: solved.iter().map(|&i| (i, vec![format!("q{i}")])).collect(),
                skipped_overlaps: 1,
            };
            let mut e = Enc::default();
            encode_solve(&mut e, &decisions);
            decode_payload(&Recorder::disabled(), Stage::Solve, &e.0, |d| {
                decode_solve(d, &instances, 5)
            })
            .map(|got| assert_eq!(got, decisions))
        };
        assert_eq!(decode(&[0, 3]), Ok(()));
        for (solved, reason) in [
            (&[0, 4][..], "out of bounds"),
            (&[3, 3], "not above"),
            (&[3, 0], "not above"),
            (&[2], "not solvable"),
            (&[0, 1], "overlaps"),
        ] {
            let err = decode(solved).unwrap_err();
            assert!(err.contains(reason), "{solved:?}: {err}");
        }
    }
}
