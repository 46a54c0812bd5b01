//! Closed-loop clients over real loopback sockets, and the checks applied to
//! what they received.
//!
//! A client keeps, per request labeling, the last distinct response body it
//! got; a new answer equal to it costs one comparison and is not stored
//! again. Every distinct body is decoded and checked after the timed window,
//! so checking adds no work between requests, yet every answer is checked.

use crate::workload::{check_answer, Pick, Prepared, Reference};
use std::collections::HashMap;
use std::time::Instant;
use tessel_service::wire::SearchResponse;
use tessel_service::HttpClient;

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// Position in the request stream.
    pub seq: usize,
    pub latency_ns: u64,
    /// When the answer arrived, in ns since the `origin` given to [`drive`].
    pub done_ns: u64,
    /// Index into [`ClientLog::distinct`]; `None` on a transport error.
    pub body: Option<usize>,
}

#[derive(Debug)]
pub struct Distinct {
    pub pick: Pick,
    pub status: u16,
    pub text: String,
}

#[derive(Debug, Default)]
pub struct ClientLog {
    pub answers: Vec<Answer>,
    pub distinct: Vec<Distinct>,
    pub errors: Vec<String>,
}

/// Sends `next()`'s requests one at a time until it returns `None`.
pub fn drive(
    client: &mut HttpClient,
    prepared: &Prepared,
    origin: Instant,
    mut next: impl FnMut() -> Option<(usize, Pick)>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut last: HashMap<Pick, usize> = HashMap::new();
    while let Some((seq, pick)) = next() {
        let sent = Instant::now();
        let result = client.call("POST", "/v1/search", Some(prepared.body(pick)));
        let latency_ns = sent.elapsed().as_nanos() as u64;
        let done_ns = origin.elapsed().as_nanos() as u64;
        let body = match result {
            Ok((status, text)) => {
                let same = last.get(&pick).copied().filter(|&id| {
                    let seen = &log.distinct[id];
                    seen.status == status && seen.text == text
                });
                Some(same.unwrap_or_else(|| {
                    log.distinct.push(Distinct { pick, status, text });
                    let id = log.distinct.len() - 1;
                    last.insert(pick, id);
                    id
                }))
            }
            Err(e) => {
                log.errors.push(format!("request {seq}: {e}"));
                None
            }
        };
        log.answers.push(Answer {
            seq,
            latency_ns,
            done_ns,
            body,
        });
    }
    log
}

/// Runs one client thread per connection, all drawing from the shared
/// stream `next`, and returns their logs in connection order.
pub fn drive_all(
    clients: &mut [HttpClient],
    prepared: &Prepared,
    origin: Instant,
    next: &(dyn Fn() -> Option<(usize, Pick)> + Sync),
) -> Vec<ClientLog> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| scope.spawn(move || drive(client, prepared, origin, next)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The checked meaning of one distinct body.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub ok: bool,
    pub cached: bool,
    pub coalesced: bool,
    pub bubble_rate: f64,
}

/// Decodes and checks every distinct body of `log`; problems go to
/// `violations`.
pub fn verdicts(
    prepared: &Prepared,
    references: &[Option<Reference>],
    log: &ClientLog,
    violations: &mut Vec<String>,
) -> Vec<Verdict> {
    log.distinct
        .iter()
        .map(|d| {
            let mut verdict = Verdict {
                ok: false,
                cached: false,
                coalesced: false,
                bubble_rate: 0.0,
            };
            if d.status != 200 {
                violations.push(format!("status {}: {}", d.status, truncate(&d.text)));
                return verdict;
            }
            match serde_json::from_str::<SearchResponse>(&d.text) {
                Ok(response) => {
                    verdict.cached = response.cached;
                    verdict.coalesced = response.coalesced;
                    verdict.bubble_rate = response.bubble_rate;
                    match check_answer(prepared, references, d.pick, &response) {
                        Ok(()) => verdict.ok = true,
                        Err(e) => violations.push(e),
                    }
                }
                Err(e) => violations.push(format!("undecodable response: {e}")),
            }
            verdict
        })
        .collect()
}

fn truncate(text: &str) -> &str {
    let end = text.char_indices().nth(200).map_or(text.len(), |(i, _)| i);
    &text[..end]
}

/// Reads one sample from the daemon's `GET /metrics` (the first series
/// named exactly `name`, without labels).
pub fn scrape(addr: &str, name: &str) -> Result<f64, String> {
    sample(&scrape_all(addr)?, name)
}

/// The unlabeled sample `name` in a `/metrics` text.
pub fn sample(metrics: &str, name: &str) -> Result<f64, String> {
    metrics
        .lines()
        .find_map(|line| {
            line.strip_prefix(name)?
                .strip_prefix(' ')?
                .trim()
                .parse()
                .ok()
        })
        .ok_or_else(|| format!("/metrics has no {name}"))
}

pub fn scrape_all(addr: &str) -> Result<String, String> {
    match tessel_service::http::http_call(addr, "GET", "/metrics", None) {
        Ok((200, text)) => Ok(text),
        other => Err(format!("GET /metrics: {other:?}")),
    }
}
