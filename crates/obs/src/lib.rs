//! Observability substrate for the Tessel workspace.
//!
//! The build environment has no registry access, so — like the
//! `crates/compat/*` substitutes — this crate hand-rolls the narrow slice of
//! observability the daemon needs, with zero dependencies:
//!
//! * **Structured, leveled logging** ([`log`], [`error`]/[`warn`]/[`info`]/
//!   [`debug`]): one line per event on stderr, in logfmt-style text or JSON
//!   ([`LogFormat`]), filtered by a process-wide [`Level`]. Every event
//!   emitted while a request context is active automatically carries that
//!   request's `trace_id`, so grepping one ID reconstructs one request's
//!   whole story — including what it triggered on *other* daemons.
//! * **Request-scoped trace IDs** ([`TraceId`]): 32 lowercase hex
//!   characters, minted per request or adopted from a validated
//!   `X-Tessel-Trace-Id` header so a trace spans the cluster tier.
//! * **Stage timing** ([`begin_request`], [`stage`], [`record_stage`],
//!   [`end_request`]): a thread-local span collector the request pipeline
//!   feeds per-stage wall-clock into; the transport harvests it to build
//!   flight-recorder entries, `Server-Timing` headers and per-stage
//!   histograms. All recording calls are no-ops when no request context is
//!   active, so library callers pay one thread-local read.
//! * **Log-bucketed histograms** ([`Histogram`]): atomic fixed-bucket
//!   duration histograms on a 1–2.5–5 ladder from 100µs to 60s.
//! * **Instruments** ([`Metric`], [`HistogramFamily`], [`Desc`],
//!   [`instruments!`]): counters, gauges and fixed-label histogram families
//!   that own their series name, help text and Prometheus type and render
//!   themselves in text exposition format, so each series is declared once.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::fmt::{self, Write as _};
use std::hash::{BuildHasher, Hasher};
use std::io::Write;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

// ---------------------------------------------------------------------------
// Levels and formats
// ---------------------------------------------------------------------------

/// Log severity, most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The daemon cannot do what was asked of it.
    Error = 0,
    /// Something degraded (a peer down, a journal unwritable) but handled.
    Warn = 1,
    /// Request-level lifecycle events; the default.
    Info = 2,
    /// Per-stage detail useful when chasing one request.
    Debug = 3,
    /// Everything, including hot-path chatter.
    Trace = 4,
}

impl Level {
    /// The lowercase name used on the wire and in `--log-level`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn from_u8(raw: u8) -> Level {
        match raw {
            0 => Level::Error,
            1 => Level::Warn,
            3 => Level::Debug,
            4 => Level::Trace,
            _ => Level::Info,
        }
    }
}

impl FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!(
                "unknown log level `{other}` (expected error|warn|info|debug|trace)"
            )),
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Output encoding of log lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogFormat {
    /// `ts=… level=… target=… msg="…" key="value"` — human-greppable.
    #[default]
    Text,
    /// One JSON object per line — machine-parseable.
    Json,
}

impl FromStr for LogFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "text" => Ok(LogFormat::Text),
            "json" => Ok(LogFormat::Json),
            other => Err(format!("unknown log format `{other}` (expected text|json)")),
        }
    }
}

/// Process-wide minimum level (a [`Level`] discriminant).
static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
/// Process-wide format (0 = text, 1 = JSON).
static FORMAT: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide log level and format. Callable any number of times,
/// from any thread; later events use the latest configuration.
pub fn init(level: Level, format: LogFormat) {
    LEVEL.store(level as u8, Ordering::Relaxed);
    FORMAT.store(
        match format {
            LogFormat::Text => 0,
            LogFormat::Json => 1,
        },
        Ordering::Relaxed,
    );
}

/// Changes only the process-wide log level (the format is untouched) and
/// returns the level that was active before the change — the runtime
/// log-level endpoint logs the switch at the *old* level so the change
/// itself is visible in the stream it is leaving behind.
pub fn set_level(level: Level) -> Level {
    Level::from_u8(LEVEL.swap(level as u8, Ordering::Relaxed))
}

/// The current process-wide log level.
#[must_use]
pub fn level() -> Level {
    Level::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// `true` when events at `at` currently pass the level filter.
#[must_use]
pub fn enabled(at: Level) -> bool {
    at <= level()
}

// ---------------------------------------------------------------------------
// Event emission
// ---------------------------------------------------------------------------

/// Emits one structured event to stderr (if `level` passes the filter).
///
/// `fields` are appended after the message; when a request context is active
/// on this thread its `trace_id` is appended automatically unless `fields`
/// already carries one.
pub fn log(level: Level, target: &str, message: &str, fields: &[(&str, &str)]) {
    if !enabled(level) {
        return;
    }
    let trace = if fields.iter().any(|(k, _)| *k == "trace_id") {
        None
    } else {
        current_trace_id()
    };
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0);
    let json = FORMAT.load(Ordering::Relaxed) == 1;
    let mut line = String::with_capacity(128);
    if json {
        line.push_str(&format!(
            "{{\"ts\":{ts:.3},\"level\":\"{}\",\"target\":\"{}\",\"msg\":\"{}\"",
            level.as_str(),
            json_escape(target),
            json_escape(message)
        ));
        for (key, value) in fields {
            line.push_str(&format!(
                ",\"{}\":\"{}\"",
                json_escape(key),
                json_escape(value)
            ));
        }
        if let Some(trace) = &trace {
            line.push_str(&format!(",\"trace_id\":\"{trace}\""));
        }
        line.push('}');
    } else {
        line.push_str(&format!(
            "ts={ts:.3} level={} target={} msg=\"{}\"",
            level.as_str(),
            target,
            text_escape(message)
        ));
        for (key, value) in fields {
            line.push_str(&format!(" {key}=\"{}\"", text_escape(value)));
        }
        if let Some(trace) = &trace {
            line.push_str(&format!(" trace_id={trace}"));
        }
    }
    line.push('\n');
    // One write per line: concurrent threads interleave whole lines, never
    // fragments.
    let _ = std::io::stderr().lock().write_all(line.as_bytes());
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &str, message: &str, fields: &[(&str, &str)]) {
    log(Level::Error, target, message, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(target: &str, message: &str, fields: &[(&str, &str)]) {
    log(Level::Warn, target, message, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(target: &str, message: &str, fields: &[(&str, &str)]) {
    log(Level::Info, target, message, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(target: &str, message: &str, fields: &[(&str, &str)]) {
    log(Level::Debug, target, message, fields);
}

fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn text_escape(raw: &str) -> String {
    raw.chars()
        .map(|c| match c {
            '"' => '\'',
            '\n' | '\r' | '\t' => ' ',
            c => c,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Trace IDs
// ---------------------------------------------------------------------------

/// A request-scoped trace identifier: exactly 32 lowercase hex characters
/// (128 bits), propagated across the cluster via `X-Tessel-Trace-Id`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId([u8; 32]);

/// Distinguishes the two 64-bit halves mixed into one generated ID.
const TRACE_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

impl TraceId {
    /// Mints a fresh, effectively unique ID: 128 bits drawn from the
    /// process's `RandomState` keys (OS-seeded), the wall clock and a global
    /// counter, whitened through a hash round.
    #[must_use]
    pub fn generate() -> Self {
        let count = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
        let hi = Self::entropy(count);
        let lo = Self::entropy(count ^ TRACE_SALT);
        let mut hex = [0u8; 32];
        for (i, byte) in hi.to_be_bytes().iter().chain(&lo.to_be_bytes()).enumerate() {
            const DIGITS: &[u8; 16] = b"0123456789abcdef";
            hex[2 * i] = DIGITS[(byte >> 4) as usize];
            hex[2 * i + 1] = DIGITS[(byte & 0xf) as usize];
        }
        TraceId(hex)
    }

    fn entropy(salt: u64) -> u64 {
        let mut hasher = RandomState::new().build_hasher();
        hasher.write_u64(salt);
        hasher.write_u128(
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0),
        );
        hasher.finish()
    }

    /// Parses a trace ID, accepting **only** the canonical form: exactly 32
    /// ASCII characters, each `0-9` or lowercase `a-f`. Anything else —
    /// wrong length, uppercase, separators, control bytes — returns `None`;
    /// callers mint a fresh ID instead of reflecting attacker-controlled
    /// header bytes into logs and responses.
    #[must_use]
    pub fn parse(raw: &str) -> Option<Self> {
        let bytes = raw.as_bytes();
        if bytes.len() != 32 {
            return None;
        }
        let mut hex = [0u8; 32];
        for (slot, &b) in hex.iter_mut().zip(bytes) {
            if !(b.is_ascii_digit() || (b'a'..=b'f').contains(&b)) {
                return None;
            }
            *slot = b;
        }
        Some(TraceId(hex))
    }

    /// The 32-character lowercase hex form.
    #[must_use]
    pub fn as_str(&self) -> &str {
        // Construction only ever stores ASCII hex digits.
        std::str::from_utf8(&self.0).unwrap_or("00000000000000000000000000000000")
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TraceId({})", self.as_str())
    }
}

// ---------------------------------------------------------------------------
// Request context and stage timing
// ---------------------------------------------------------------------------

struct ActiveRequest {
    trace_id: TraceId,
    stages: Vec<(&'static str, u64)>,
}

thread_local! {
    static CURRENT: RefCell<Option<ActiveRequest>> = const { RefCell::new(None) };
}

/// A completed request context: the trace ID plus every recorded stage, in
/// first-recorded order (repeated stages merged by summing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedRequest {
    /// The request's trace ID.
    pub trace_id: TraceId,
    /// `(stage name, wall-clock microseconds)` rows.
    pub stages: Vec<(&'static str, u64)>,
}

impl FinishedRequest {
    /// Microseconds recorded for `name` (0 when the stage never ran).
    #[must_use]
    pub fn stage_micros(&self, name: &str) -> u64 {
        self.stages
            .iter()
            .find(|(stage, _)| *stage == name)
            .map_or(0, |(_, micros)| *micros)
    }
}

/// Opens a request context on this thread. Stages recorded until the matching
/// [`end_request`] accumulate under `trace_id`; log events carry it
/// automatically. Re-entrant calls replace the previous context (the
/// transport is the one caller and never nests).
pub fn begin_request(trace_id: TraceId) {
    CURRENT.with(|current| {
        *current.borrow_mut() = Some(ActiveRequest {
            trace_id,
            stages: Vec::with_capacity(8),
        });
    });
}

/// The trace ID of the request context active on this thread, if any.
#[must_use]
pub fn current_trace_id() -> Option<TraceId> {
    CURRENT.with(|current| current.borrow().as_ref().map(|active| active.trace_id))
}

/// Adds `micros` to stage `name` of the active request context (no-op when
/// none is active). Repeated recordings of one stage sum.
pub fn record_stage(name: &'static str, micros: u64) {
    CURRENT.with(|current| {
        if let Some(active) = current.borrow_mut().as_mut() {
            match active.stages.iter_mut().find(|(stage, _)| *stage == name) {
                Some((_, total)) => *total += micros,
                None => active.stages.push((name, micros)),
            }
        }
    });
}

/// Runs `f`, recording its wall-clock as stage `name` of the active request
/// context (still runs `f`, un-timed in effect, when none is active).
pub fn stage<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let result = f();
    record_stage(name, started.elapsed().as_micros() as u64);
    result
}

/// Closes the request context on this thread and returns what it collected
/// (`None` when none was active).
pub fn end_request() -> Option<FinishedRequest> {
    CURRENT.with(|current| {
        current.borrow_mut().take().map(|active| FinishedRequest {
            trace_id: active.trace_id,
            stages: active.stages,
        })
    })
}

// ---------------------------------------------------------------------------
// Log-bucketed histograms
// ---------------------------------------------------------------------------

/// Upper bounds (microseconds) of the duration histogram buckets: a
/// 1–2.5–5 ladder from 100µs to 60s. Observations above the last bound land
/// in the implicit `+Inf` bucket.
pub const DURATION_BUCKET_BOUNDS_MICROS: [u64; 18] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 60_000_000,
];

/// Bucket count including the `+Inf` overflow bucket.
const BUCKETS: usize = DURATION_BUCKET_BOUNDS_MICROS.len() + 1;

/// A fixed-bucket duration histogram with atomic counters, shaped for
/// Prometheus exposition: per-bucket counts on the
/// [`DURATION_BUCKET_BOUNDS_MICROS`] ladder plus a running sum and count.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation of `micros` microseconds.
    pub fn observe_micros(&self, micros: u64) {
        let index = DURATION_BUCKET_BOUNDS_MICROS
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(BUCKETS - 1);
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Total observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded observations, in seconds.
    #[must_use]
    pub fn sum_seconds(&self) -> f64 {
        self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Cumulative bucket counts (`le` semantics), one per bound plus the
    /// final `+Inf` entry.
    #[must_use]
    pub fn cumulative_counts(&self) -> [u64; BUCKETS] {
        let mut counts = [0u64; BUCKETS];
        let mut running = 0u64;
        for (slot, bucket) in counts.iter_mut().zip(&self.buckets) {
            running += bucket.load(Ordering::Relaxed);
            *slot = running;
        }
        counts
    }
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A metric family's identity: its name, help text and Prometheus type.
///
/// Series computed at scrape time (a cache's size, a ratio of two counters)
/// are declared as a `Desc` and rendered with their value; stored series are
/// [`Metric`]s and [`HistogramFamily`]s, which carry one.
#[derive(Debug)]
pub struct Desc {
    name: &'static str,
    help: &'static str,
    /// The `# TYPE` keyword: `counter`, `gauge` or `histogram`.
    kind: &'static str,
}

impl Desc {
    /// A counter family: a value that only goes up.
    #[must_use]
    pub const fn counter(name: &'static str, help: &'static str) -> Self {
        Desc {
            name,
            help,
            kind: "counter",
        }
    }

    /// A gauge family: a value that moves both ways.
    #[must_use]
    pub const fn gauge(name: &'static str, help: &'static str) -> Self {
        Desc {
            name,
            help,
            kind: "gauge",
        }
    }

    fn render_header(&self, out: &mut String) {
        let Desc { name, help, kind } = self;
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
    }

    /// Appends the family's `# HELP`/`# TYPE` lines and one unlabeled
    /// sample of `value` to `out`.
    pub fn render(&self, out: &mut String, value: impl fmt::Display) {
        self.render_header(out);
        let _ = writeln!(out, "{} {value}", self.name);
    }
}

/// A counter or gauge instrument: a [`Desc`] plus one `AtomicU64` updated
/// with relaxed ordering.
#[derive(Debug)]
pub struct Metric {
    desc: Desc,
    value: AtomicU64,
}

impl Metric {
    /// A zeroed counter.
    #[must_use]
    pub const fn counter(name: &'static str, help: &'static str) -> Self {
        Metric {
            desc: Desc::counter(name, help),
            value: AtomicU64::new(0),
        }
    }

    /// A zeroed gauge.
    #[must_use]
    pub const fn gauge(name: &'static str, help: &'static str) -> Self {
        Metric {
            desc: Desc::gauge(name, help),
            value: AtomicU64::new(0),
        }
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one (gauges only).
    pub fn dec(&self) {
        self.value.fetch_sub(1, Ordering::Relaxed);
    }

    /// Replaces the value (gauges only).
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Appends the family and its current value to `out`.
    pub fn render(&self, out: &mut String) {
        self.desc.render(out, self.get());
    }
}

/// A histogram family with a fixed label set: one [`Histogram`] per
/// declared value of its one label, so no request can mint a new series.
#[derive(Debug)]
pub struct HistogramFamily {
    desc: Desc,
    label: &'static str,
    values: &'static [&'static str],
    histograms: Vec<Histogram>,
}

impl HistogramFamily {
    /// A family of one histogram per entry of `values`, told apart by the
    /// label `label`.
    #[must_use]
    pub fn labeled(
        name: &'static str,
        help: &'static str,
        label: &'static str,
        values: &'static [&'static str],
    ) -> Self {
        HistogramFamily {
            desc: Desc {
                name,
                help,
                kind: "histogram",
            },
            label,
            values,
            histograms: values.iter().map(|_| Histogram::new()).collect(),
        }
    }

    /// A family of one unlabeled histogram, addressed as the value `""`.
    #[must_use]
    pub fn unlabeled(name: &'static str, help: &'static str) -> Self {
        Self::labeled(name, help, "", &[""])
    }

    /// Records one observation of `micros` microseconds under the label
    /// value `value`. Returns `false`, recording nothing, when `value` is not
    /// one of the family's declared values.
    pub fn observe_micros(&self, value: &str, micros: u64) -> bool {
        match self.values.iter().position(|&known| known == value) {
            Some(index) => {
                self.histograms[index].observe_micros(micros);
                true
            }
            None => false,
        }
    }

    /// Appends the family in Prometheus text exposition format: the header,
    /// then per label value the `_bucket{…le="…"}` ladder, `_sum` and
    /// `_count`.
    pub fn render(&self, out: &mut String) {
        self.desc.render_header(out);
        let name = self.desc.name;
        for (value, histogram) in self.values.iter().zip(&self.histograms) {
            let (labels, sep) = if self.label.is_empty() {
                (String::new(), "")
            } else {
                (format!("{}=\"{value}\"", self.label), ",")
            };
            let cumulative = histogram.cumulative_counts();
            let bounds = DURATION_BUCKET_BOUNDS_MICROS
                .iter()
                .map(|&b| b as f64 / 1e6);
            for (le, count) in bounds.zip(&cumulative) {
                let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {count}");
            }
            let total = cumulative[BUCKETS - 1];
            let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {total}");
            let braced = if labels.is_empty() {
                labels
            } else {
                format!("{{{labels}}}")
            };
            let _ = writeln!(out, "{name}_sum{braced} {}", histogram.sum_seconds());
            let _ = writeln!(out, "{name}_count{braced} {total}");
        }
    }
}

/// Declares a struct of instruments, each named and described exactly
/// once: a field's constructor call carries its series name and help text,
/// and the help text doubles as the field's doc comment. Every field is
/// `pub`; `Default` builds them all.
///
/// ```
/// tessel_obs::instruments! {
///     /// Demo counters.
///     pub struct Demo {
///         served: Metric::counter("demo_served_total", "Requests served."),
///         waits: HistogramFamily::unlabeled("demo_wait_seconds", "Time spent waiting."),
///     }
/// }
/// let demo = Demo::default();
/// demo.served.inc();
/// let mut page = String::new();
/// demo.served.render(&mut page);
/// assert!(page.starts_with("# HELP demo_served_total Requests served.\n"));
/// assert!(page.ends_with("counter\ndemo_served_total 1\n"));
/// ```
#[macro_export]
macro_rules! instruments {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($field:ident: $ty:ident::$ctor:ident($series:literal, $help:literal $(, $arg:expr)*),)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug)]
        $vis struct $name {
            $(#[doc = $help] pub $field: $crate::$ty,)*
        }

        impl Default for $name {
            fn default() -> Self {
                $name {
                    $($field: $crate::$ty::$ctor($series, $help $(, $arg)*),)*
                }
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Time series rings
// ---------------------------------------------------------------------------

/// A fixed-capacity ring of per-tick samples for a set of named series.
///
/// The live-observability sampler derives one gauge value per series per tick
/// (rates from cumulative-counter deltas, plain gauges copied as-is) and
/// pushes them here; `GET /v1/debug/timeseries` reads windows back out. The
/// memory bound is `capacity × (series + 1)` `f64`/`u64` slots, fixed at
/// construction — an idle daemon and one under load hold the same ring.
///
/// Writers and readers meet on a plain mutex: samples arrive on one
/// background ticker (per second, typically) and reads come from debug
/// endpoints, so this is nowhere near any hot path.
#[derive(Debug)]
pub struct TimeSeries {
    interval_ms: u64,
    capacity: usize,
    inner: std::sync::Mutex<TimeSeriesInner>,
}

#[derive(Debug)]
struct TimeSeriesInner {
    /// Total ticks ever pushed (not capped by capacity).
    ticks: u64,
    /// Unix-milliseconds stamp per retained tick, oldest first.
    stamps: std::collections::VecDeque<u64>,
    /// One sample ring per series, index-aligned with `names`.
    rings: Vec<std::collections::VecDeque<f64>>,
    names: Vec<String>,
}

/// One series' slice of a [`TimeSeries::window`] read: the retained samples
/// (oldest first) plus summary statistics over them.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesWindow {
    /// Series name as declared at construction.
    pub name: String,
    /// Samples inside the window, oldest first.
    pub samples: Vec<f64>,
    /// Most recent sample (0.0 when the window is empty).
    pub last: f64,
    /// Minimum over the window (0.0 when empty).
    pub min: f64,
    /// Maximum over the window (0.0 when empty).
    pub max: f64,
    /// Mean over the window (0.0 when empty).
    pub avg: f64,
    /// 50th percentile over the window (0.0 when empty).
    pub p50: f64,
    /// 95th percentile over the window (0.0 when empty).
    pub p95: f64,
}

/// A consistent multi-series read of the ring (see [`TimeSeries::window`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesWindow {
    /// Sampling cadence the ring was constructed with.
    pub interval_ms: u64,
    /// Ticks actually inside this window (≤ the requested count).
    pub ticks: usize,
    /// Unix-milliseconds stamp of the newest tick (0 when empty).
    pub latest_unix_ms: u64,
    /// Per-series windows, in declaration order.
    pub series: Vec<SeriesWindow>,
}

impl TimeSeries {
    /// Creates a ring holding `capacity` ticks for the given series names,
    /// sampled every `interval_ms` (recorded for consumers; the ring itself
    /// does not tick — the caller's sampler thread does).
    #[must_use]
    pub fn new(names: &[&str], capacity: usize, interval_ms: u64) -> Self {
        let capacity = capacity.max(1);
        TimeSeries {
            interval_ms,
            capacity,
            inner: std::sync::Mutex::new(TimeSeriesInner {
                ticks: 0,
                stamps: std::collections::VecDeque::with_capacity(capacity),
                rings: names
                    .iter()
                    .map(|_| std::collections::VecDeque::with_capacity(capacity))
                    .collect(),
                names: names.iter().map(|n| (*n).to_string()).collect(),
            }),
        }
    }

    /// The sampling cadence declared at construction.
    #[must_use]
    pub fn interval_ms(&self) -> u64 {
        self.interval_ms
    }

    /// Pushes one tick of samples (index-aligned with the constructor's
    /// series names; extra values are ignored, missing ones record 0.0).
    /// `unix_ms` stamps the tick for consumers aligning multiple daemons.
    ///
    /// # Panics
    ///
    /// Panics if the internal mutex is poisoned.
    pub fn push(&self, unix_ms: u64, values: &[f64]) {
        let mut inner = self.inner.lock().expect("timeseries lock");
        inner.ticks += 1;
        if inner.stamps.len() == self.capacity {
            inner.stamps.pop_front();
        }
        inner.stamps.push_back(unix_ms);
        for (index, ring) in inner.rings.iter_mut().enumerate() {
            if ring.len() == self.capacity {
                ring.pop_front();
            }
            ring.push_back(values.get(index).copied().unwrap_or(0.0));
        }
    }

    /// Reads the newest `ticks` samples of every series (all retained ticks
    /// when `ticks` exceeds the retention).
    ///
    /// # Panics
    ///
    /// Panics if the internal mutex is poisoned.
    #[must_use]
    pub fn window(&self, ticks: usize) -> TimeSeriesWindow {
        let inner = self.inner.lock().expect("timeseries lock");
        let available = inner.stamps.len();
        let take = ticks.min(available);
        let skip = available - take;
        let series = inner
            .names
            .iter()
            .zip(&inner.rings)
            .map(|(name, ring)| {
                let samples: Vec<f64> = ring.iter().skip(skip).copied().collect();
                let mut sorted = samples.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                // Nearest-rank percentile: the smallest sample with at least
                // q of the window at or below it.
                let pick = |q: f64| -> f64 {
                    if sorted.is_empty() {
                        0.0
                    } else {
                        let rank = (sorted.len() as f64 * q).ceil() as usize;
                        sorted[rank.max(1).min(sorted.len()) - 1]
                    }
                };
                SeriesWindow {
                    name: name.clone(),
                    last: samples.last().copied().unwrap_or(0.0),
                    min: sorted.first().copied().unwrap_or(0.0),
                    max: sorted.last().copied().unwrap_or(0.0),
                    avg: if samples.is_empty() {
                        0.0
                    } else {
                        samples.iter().sum::<f64>() / samples.len() as f64
                    },
                    p50: pick(0.50),
                    p95: pick(0.95),
                    samples,
                }
            })
            .collect();
        TimeSeriesWindow {
            interval_ms: self.interval_ms,
            ticks: take,
            latest_unix_ms: inner.stamps.back().copied().unwrap_or(0),
            series,
        }
    }

    /// Appends the most recent sample of every series to `out` as one
    /// Prometheus gauge family (`tessel_timeseries_last{series="…"}`), so the
    /// live-plane rates are scrapeable alongside the cumulative counters.
    ///
    /// # Panics
    ///
    /// Panics if the internal mutex is poisoned.
    pub fn render_prometheus(&self, out: &mut String) {
        const LAST: Desc = Desc::gauge(
            "tessel_timeseries_last",
            "Most recent live-plane sample per series.",
        );
        let inner = self.inner.lock().expect("timeseries lock");
        LAST.render_header(out);
        for (name, ring) in inner.names.iter().zip(&inner.rings) {
            let last = ring.back().copied().unwrap_or(0.0);
            let _ = writeln!(out, "{}{{series=\"{name}\"}} {last}", LAST.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!("info".parse::<Level>().unwrap(), Level::Info);
        assert_eq!("WARN".parse::<Level>().unwrap(), Level::Warn);
        assert!("verbose".parse::<Level>().is_err());
        assert!(Level::Error < Level::Trace);
        assert_eq!("json".parse::<LogFormat>().unwrap(), LogFormat::Json);
        assert!("xml".parse::<LogFormat>().is_err());
    }

    #[test]
    fn trace_ids_are_canonical_and_unique() {
        let a = TraceId::generate();
        let b = TraceId::generate();
        assert_ne!(a, b);
        assert_eq!(a.as_str().len(), 32);
        assert!(a
            .as_str()
            .bytes()
            .all(|c| c.is_ascii_digit() || (b'a'..=b'f').contains(&c)));
        // Round trip.
        assert_eq!(TraceId::parse(a.as_str()), Some(a));
    }

    #[test]
    fn trace_id_parsing_is_strict() {
        assert!(TraceId::parse("0123456789abcdef0123456789abcdef").is_some());
        // Wrong length.
        assert!(TraceId::parse("").is_none());
        assert!(TraceId::parse("abc").is_none());
        assert!(TraceId::parse(&"a".repeat(33)).is_none());
        assert!(TraceId::parse(&"a".repeat(4096)).is_none());
        // Uppercase, non-hex, separators, control bytes.
        assert!(TraceId::parse("0123456789ABCDEF0123456789ABCDEF").is_none());
        assert!(TraceId::parse("0123456789abcdeg0123456789abcdef").is_none());
        assert!(TraceId::parse("01234567-89ab-cdef-0123-456789abcd").is_none());
        assert!(TraceId::parse("0123456789abcde\u{7}0123456789abcdef").is_none());
    }

    #[test]
    fn stages_accumulate_and_merge_per_request() {
        let trace = TraceId::generate();
        begin_request(trace);
        assert_eq!(current_trace_id(), Some(trace));
        record_stage("cache_lookup", 10);
        let value = stage("solve", || 42);
        assert_eq!(value, 42);
        record_stage("cache_lookup", 5);
        let finished = end_request().unwrap();
        assert_eq!(finished.trace_id, trace);
        assert_eq!(finished.stage_micros("cache_lookup"), 15);
        assert_eq!(finished.stage_micros("missing"), 0);
        assert_eq!(finished.stages[0].0, "cache_lookup");
        // The context is gone; further recording is a no-op.
        assert_eq!(current_trace_id(), None);
        record_stage("late", 1);
        assert!(end_request().is_none());
    }

    #[test]
    fn histogram_buckets_and_rendering() {
        let h = Histogram::new();
        h.observe_micros(50); // le=100
        h.observe_micros(100); // le=100 (inclusive)
        h.observe_micros(150_000); // le=250000
        h.observe_micros(120_000_000); // +Inf
        assert_eq!(h.count(), 4);
        let cumulative = h.cumulative_counts();
        assert_eq!(cumulative[0], 2);
        assert_eq!(*cumulative.last().unwrap(), 4);
        assert!((h.sum_seconds() - 120.15015).abs() < 1e-6);
    }

    #[test]
    fn histogram_families_render_only_declared_label_values() {
        let family =
            HistogramFamily::labeled("tessel_test_seconds", "Test.", "stage", &["solve", "write"]);
        for micros in [50, 100, 150_000, 120_000_000] {
            assert!(family.observe_micros("solve", micros));
        }
        assert!(!family.observe_micros("undeclared", 10));
        let mut out = String::new();
        family.render(&mut out);
        assert!(out.starts_with(
            "# HELP tessel_test_seconds Test.\n# TYPE tessel_test_seconds histogram\n"
        ));
        assert!(out.contains("tessel_test_seconds_bucket{stage=\"solve\",le=\"0.0001\"} 2"));
        assert!(out.contains("tessel_test_seconds_bucket{stage=\"solve\",le=\"+Inf\"} 4"));
        assert!(out.contains("tessel_test_seconds_sum{stage=\"solve\"} 120.15015\n"));
        assert!(out.contains("tessel_test_seconds_count{stage=\"solve\"} 4"));
        assert!(out.contains("tessel_test_seconds_count{stage=\"write\"} 0"));
        assert!(!out.contains("undeclared"));

        let bare = HistogramFamily::unlabeled("plain_seconds", "Plain.");
        assert!(bare.observe_micros("", 50));
        let mut out = String::new();
        bare.render(&mut out);
        assert!(out.contains("plain_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(out.contains("plain_seconds_count 1"));
    }

    #[test]
    fn metrics_render_their_declared_kind() {
        let counter = Metric::counter("requests_total", "Requests.");
        counter.add(2);
        counter.inc();
        let gauge = Metric::gauge("queue_depth", "Depth.");
        gauge.inc();
        gauge.inc();
        gauge.dec();
        gauge.set(gauge.get() + 4);
        let mut out = String::new();
        counter.render(&mut out);
        gauge.render(&mut out);
        Desc::counter("derived_total", "Computed at scrape.").render(&mut out, 0.5);
        assert_eq!(
            out,
            "# HELP requests_total Requests.\n# TYPE requests_total counter\nrequests_total 3\n\
             # HELP queue_depth Depth.\n# TYPE queue_depth gauge\nqueue_depth 5\n\
             # HELP derived_total Computed at scrape.\n# TYPE derived_total counter\nderived_total 0.5\n"
        );
    }

    #[test]
    fn set_level_returns_the_previous_level() {
        init(Level::Info, LogFormat::Text);
        assert_eq!(set_level(Level::Debug), Level::Info);
        assert_eq!(level(), Level::Debug);
        assert!(enabled(Level::Debug));
        assert_eq!(set_level(Level::Warn), Level::Debug);
        assert!(!enabled(Level::Info));
        set_level(Level::Info);
    }

    #[test]
    fn histogram_routes_sub_minimum_observations_to_the_first_bucket() {
        let h = Histogram::new();
        h.observe_micros(0);
        h.observe_micros(1);
        h.observe_micros(99);
        let cumulative = h.cumulative_counts();
        assert_eq!(cumulative[0], 3, "0, 1 and 99µs all land in le=100µs");
        assert_eq!(*cumulative.last().unwrap(), 3);
        assert_eq!(h.count(), 3);
        assert!((h.sum_seconds() - 100e-6).abs() < 1e-12);
    }

    #[test]
    fn histogram_routes_oversized_observations_to_inf_only() {
        let h = Histogram::new();
        let last_bound = *DURATION_BUCKET_BOUNDS_MICROS.last().unwrap();
        h.observe_micros(last_bound); // inclusive: last finite bucket
        h.observe_micros(last_bound + 1); // first value past the ladder
        h.observe_micros(u64::MAX / 4); // absurd but must not panic
        let cumulative = h.cumulative_counts();
        assert_eq!(
            cumulative[BUCKETS - 2],
            1,
            "only the bound itself is finite"
        );
        assert_eq!(cumulative[BUCKETS - 1], 3);
    }

    #[test]
    fn histogram_concurrent_observe_keeps_sum_and_count_monotone() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        h.observe_micros(50 + (w * 13 + i * 7) % 200_000);
                    }
                })
            })
            .collect();
        // Concurrent reader: every snapshot pair must be monotone — a render
        // never observes count or sum going backwards.
        let mut last_count = 0u64;
        let mut last_sum = 0.0f64;
        for _ in 0..200 {
            let count = h.count();
            let sum = h.sum_seconds();
            assert!(
                count >= last_count,
                "count regressed: {last_count} -> {count}"
            );
            assert!(sum >= last_sum - 1e-9, "sum regressed: {last_sum} -> {sum}");
            last_count = count;
            last_sum = sum;
            std::thread::yield_now();
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(h.count(), 8_000);
        assert_eq!(*h.cumulative_counts().last().unwrap(), 8_000);
    }

    #[test]
    fn timeseries_ring_caps_retention_and_reports_windows() {
        let ts = TimeSeries::new(&["req_rate", "queue_depth"], 4, 1000);
        assert_eq!(ts.interval_ms(), 1000);
        // Empty ring: well-formed zeroed window.
        let empty = ts.window(10);
        assert_eq!(empty.ticks, 0);
        assert_eq!(empty.series.len(), 2);
        assert_eq!(empty.series[0].last, 0.0);
        for tick in 0..6u64 {
            ts.push(1_000 + tick, &[tick as f64, 10.0 - tick as f64]);
        }
        // Capacity 4: ticks 2..=5 retained.
        let window = ts.window(100);
        assert_eq!(window.ticks, 4);
        assert_eq!(window.latest_unix_ms, 1_005);
        assert_eq!(window.series[0].samples, vec![2.0, 3.0, 4.0, 5.0]);
        assert_eq!(window.series[0].last, 5.0);
        assert_eq!(window.series[0].min, 2.0);
        assert_eq!(window.series[0].max, 5.0);
        assert!((window.series[0].avg - 3.5).abs() < 1e-12);
        assert_eq!(window.series[1].samples, vec![8.0, 7.0, 6.0, 5.0]);
        // A narrower window takes only the newest ticks.
        let narrow = ts.window(2);
        assert_eq!(narrow.ticks, 2);
        assert_eq!(narrow.series[0].samples, vec![4.0, 5.0]);
        assert_eq!(narrow.series[0].p50, 4.0);
        assert_eq!(narrow.series[0].p95, 5.0);
    }

    #[test]
    fn timeseries_percentiles_cover_the_window() {
        let ts = TimeSeries::new(&["v"], 100, 500);
        for i in 1..=100u64 {
            ts.push(i, &[i as f64]);
        }
        let w = ts.window(100);
        let series = &w.series[0];
        assert_eq!(series.p50, 50.0);
        assert_eq!(series.p95, 95.0);
        assert_eq!(series.min, 1.0);
        assert_eq!(series.max, 100.0);
    }

    #[test]
    fn timeseries_short_rows_record_zeroes() {
        let ts = TimeSeries::new(&["a", "b", "c"], 4, 1000);
        ts.push(1, &[1.0]); // b and c missing
        let w = ts.window(4);
        assert_eq!(w.series[0].samples, vec![1.0]);
        assert_eq!(w.series[1].samples, vec![0.0]);
        assert_eq!(w.series[2].samples, vec![0.0]);
    }

    #[test]
    fn timeseries_prometheus_gauges_are_well_formed() {
        let ts = TimeSeries::new(&["req_rate", "cache_hit_ratio"], 8, 1000);
        ts.push(1, &[3.5, 0.75]);
        let mut out = String::new();
        ts.render_prometheus(&mut out);
        assert!(out.contains("# TYPE tessel_timeseries_last gauge"));
        assert!(out.contains("tessel_timeseries_last{series=\"req_rate\"} 3.5"));
        assert!(out.contains("tessel_timeseries_last{series=\"cache_hit_ratio\"} 0.75"));
        // Every non-comment line is `name{labels} value` with a float value.
        for line in out.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            value.parse::<f64>().expect("gauge value parses as f64");
        }
    }

    #[test]
    fn log_lines_do_not_panic_in_either_format() {
        // Smoke: exotic content must escape, not crash (output goes to
        // stderr and is not captured here).
        init(Level::Debug, LogFormat::Json);
        log(
            Level::Info,
            "test",
            "quote \" backslash \\ newline \n tab \t",
            &[("key", "value \u{1} with control")],
        );
        init(Level::Info, LogFormat::Text);
        debug("test", "filtered out", &[]);
        warn("test", "visible", &[("k", "v\"w")]);
    }
}
