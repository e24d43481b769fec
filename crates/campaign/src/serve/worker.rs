//! The elastic pull-worker: lease → execute → upload, forever, until the
//! coordinator says the campaign is done (or disappears, which after a
//! successful first contact means the same thing).
//!
//! Workers are stateless and interchangeable: they fetch the plan from the
//! coordinator itself, so joining a campaign needs exactly one URL. Any
//! number can come and go mid-campaign; a worker that dies mid-shard
//! simply lets its lease expire and the next puller re-runs the shard —
//! determinism makes the re-run produce the identical partial, and the
//! merge layer's duplicate handling absorbs the case where both
//! executions eventually upload.

use super::http::{request, CoordinatorUrl};
use super::wire::{
    counters_header, lease_request, parse_renew_reply, renew_request, Lease, LeaseReply,
    UploadReply, COUNTERS_HEADER,
};
use crate::plan::CampaignPlan;
use crate::shard::execute_shard;
use specstab_telemetry::{global, CounterSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Worker knobs.
#[derive(Debug, Clone)]
pub struct WorkOptions {
    /// Coordinator base URL (`http://host:port`).
    pub coordinator: String,
    /// Worker identity reported on every request (shows up in leases,
    /// traces, and `/status`).
    pub worker_id: String,
    /// Threads for `execute_shard` (default 1: run more workers instead).
    pub threads: usize,
    /// Fault-drill mode: lease exactly one shard and exit *without*
    /// executing or uploading it — a deterministic stand-in for a worker
    /// that dies mid-shard, guaranteeing a lease expiry + re-dispatch.
    pub lease_only: bool,
}

/// What a worker did before exiting cleanly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Shards executed and uploaded as fresh partials.
    pub executed: u64,
    /// Uploads acknowledged as duplicates (another worker got there first).
    pub duplicates: u64,
    /// Shards leased but abandoned (`lease_only` mode).
    pub abandoned: u64,
}

/// Upload retry schedule: bounded exponential backoff with deterministic
/// jitter (hash of worker id and attempt — no RNG dependency, but distinct
/// workers still desynchronize their retries).
const UPLOAD_ATTEMPTS: u32 = 5;
const BACKOFF_BASE_MS: u64 = 100;
const BACKOFF_CAP_MS: u64 = 2_000;

fn backoff_ms(worker_id: &str, attempt: u32) -> u64 {
    let exp = BACKOFF_BASE_MS.saturating_mul(1 << attempt.min(6)).min(BACKOFF_CAP_MS);
    // FNV-1a over (worker, attempt) for the jitter term.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in worker_id.bytes().chain([attempt as u8]) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    exp + h % (exp / 2 + 1)
}

/// One lease/renew/upload exchange, with transport errors mapped to
/// `Err` and HTTP-level rejections surfaced in the reply types.
fn post(url: &CoordinatorUrl, path: &str, body: &str) -> Result<(u16, String), String> {
    let (status, bytes) = request(url, "POST", path, &[], body.as_bytes())?;
    let text = String::from_utf8(bytes).map_err(|_| format!("non-UTF-8 reply from {path}"))?;
    Ok((status, text))
}

/// Fetches and parses the coordinator's plan.
fn fetch_plan(url: &CoordinatorUrl) -> Result<CampaignPlan, String> {
    let (status, body) = request(url, "GET", "/plan", &[], b"")?;
    if status != 200 {
        return Err(format!("GET /plan returned {status}"));
    }
    let text = std::str::from_utf8(&body).map_err(|_| "non-UTF-8 plan".to_string())?;
    CampaignPlan::from_json(text)
}

/// Executes one leased shard while a sidecar thread renews the lease at a
/// third of its duration, so long shards never expire under a live worker.
fn execute_leased(
    url: &CoordinatorUrl,
    opts: &WorkOptions,
    plan: &CampaignPlan,
    lease: &Lease,
) -> Result<crate::artifact::PartialArtifact, String> {
    let done = AtomicBool::new(false);
    let renew_every = Duration::from_millis((lease.lease_ms / 3).max(50));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let body = renew_request(&opts.worker_id, lease.lease_id);
            while !done.load(Ordering::Relaxed) {
                // Sleep in short slices so worker shutdown is prompt.
                let mut slept = Duration::ZERO;
                while slept < renew_every && !done.load(Ordering::Relaxed) {
                    let slice = Duration::from_millis(50).min(renew_every - slept);
                    std::thread::sleep(slice);
                    slept += slice;
                }
                if done.load(Ordering::Relaxed) {
                    break;
                }
                match post(url, "/renew", &body) {
                    Ok((200, reply)) => {
                        if !parse_renew_reply(&reply).unwrap_or(true) {
                            // Re-dispatched from under us: keep computing
                            // anyway — the upload will be absorbed as a
                            // duplicate if the other execution wins.
                            eprintln!(
                                "work[{}]: lease {} no longer ours (re-dispatched)",
                                opts.worker_id, lease.lease_id
                            );
                            return;
                        }
                    }
                    Ok((status, _)) => {
                        eprintln!("work[{}]: renew returned {status}", opts.worker_id);
                    }
                    // Transient: the upload path owns real error handling.
                    Err(e) => eprintln!("work[{}]: renew failed: {e}", opts.worker_id),
                }
            }
        });
        let partial = execute_shard(plan, lease.shard as usize, opts.threads.max(1));
        done.store(true, Ordering::Relaxed);
        partial
    })
}

/// Uploads a partial with bounded-jittered retries. `Ok(true)` means a
/// fresh acceptance, `Ok(false)` a duplicate acknowledgement. `counters`
/// is the worker's engine-counter delta for this shard, carried in the
/// [`COUNTERS_HEADER`] so the coordinator can report campaign-wide
/// counters without touching the partial artifact bytes.
fn upload(
    url: &CoordinatorUrl,
    opts: &WorkOptions,
    body: &str,
    counters: &CounterSnapshot,
) -> Result<Option<bool>, String> {
    let counters = counters_header(counters);
    let headers =
        [("x-specstab-worker", opts.worker_id.as_str()), (COUNTERS_HEADER, counters.as_str())];
    let mut last_err = String::new();
    for attempt in 0..UPLOAD_ATTEMPTS {
        match request(url, "POST", "/upload", &headers, body.as_bytes()) {
            Ok((status, reply_bytes)) => {
                let text = String::from_utf8(reply_bytes)
                    .map_err(|_| "non-UTF-8 upload reply".to_string())?;
                match UploadReply::from_json(&text)? {
                    UploadReply::Accepted { duplicate } => return Ok(Some(!duplicate)),
                    UploadReply::Rejected { reason } => {
                        // Retrying identical bytes cannot succeed.
                        return Err(format!("upload rejected ({status}): {reason}"));
                    }
                }
            }
            Err(e) => {
                last_err = e;
                let wait = backoff_ms(&opts.worker_id, attempt);
                eprintln!(
                    "work[{}]: upload attempt {} failed ({last_err}); retrying in {wait}ms",
                    opts.worker_id,
                    attempt + 1
                );
                std::thread::sleep(Duration::from_millis(wait));
            }
        }
    }
    // Out of retries with the coordinator unreachable. The shard's lease
    // will expire and someone else will redo it; signal "coordinator gone".
    eprintln!("work[{}]: giving up on upload: {last_err}", opts.worker_id);
    Ok(None)
}

/// Runs the pull-worker loop to completion.
///
/// Exit semantics are elastic by design: once the worker has successfully
/// talked to the coordinator, losing it (connection refused / timeout) is
/// a clean exit — the campaign may simply have finished and the
/// coordinator gone home. Only failing the *first* contact, or a
/// validation-level rejection (wrong plan), is an error.
///
/// # Errors
///
/// Fails when the coordinator is unreachable on first contact, sends
/// malformed replies, rejects an upload as invalid, or a leased shard
/// cannot be executed (plan/shard-id inconsistencies).
pub fn run_worker(opts: &WorkOptions) -> Result<WorkerSummary, String> {
    let url = CoordinatorUrl::parse(&opts.coordinator)?;
    let plan = fetch_plan(&url)?;
    eprintln!(
        "work[{}]: joined campaign of {} cells / {} shards at {}",
        opts.worker_id,
        plan.cells.len(),
        plan.shards.len(),
        url.authority
    );
    let mut summary = WorkerSummary::default();
    loop {
        let lease_body = lease_request(&opts.worker_id);
        let reply = match post(&url, "/lease", &lease_body) {
            Ok((200, text)) => LeaseReply::from_json(&text)?,
            Ok((status, text)) => return Err(format!("lease returned {status}: {text}")),
            Err(e) => {
                eprintln!(
                    "work[{}]: coordinator gone ({e}); assuming campaign over",
                    opts.worker_id
                );
                return Ok(summary);
            }
        };
        let lease = match reply {
            LeaseReply::Done => {
                eprintln!("work[{}]: campaign complete; exiting", opts.worker_id);
                return Ok(summary);
            }
            LeaseReply::Wait { retry_ms } => {
                std::thread::sleep(Duration::from_millis(retry_ms.clamp(10, 5_000)));
                continue;
            }
            LeaseReply::Granted(lease) => lease,
        };
        if lease.plan_fingerprint != plan.fingerprint() {
            return Err(format!(
                "lease fingerprint {:#018x} does not match the fetched plan ({:#018x})",
                lease.plan_fingerprint,
                plan.fingerprint()
            ));
        }
        eprintln!(
            "work[{}]: leased shard {} (cells {}..{}, lease {} for {}ms)",
            opts.worker_id, lease.shard, lease.start, lease.end, lease.lease_id, lease.lease_ms
        );
        if opts.lease_only {
            summary.abandoned += 1;
            eprintln!(
                "work[{}]: --lease-only: abandoning shard {} (its lease will expire)",
                opts.worker_id, lease.shard
            );
            return Ok(summary);
        }
        let before = global().snapshot();
        let partial = execute_leased(&url, opts, &plan, &lease)?;
        let counters = global().snapshot().delta(&before);
        match upload(&url, opts, &partial.to_json(), &counters)? {
            Some(true) => summary.executed += 1,
            Some(false) => {
                summary.duplicates += 1;
                eprintln!(
                    "work[{}]: shard {} was already merged (duplicate acknowledged)",
                    opts.worker_id, lease.shard
                );
            }
            None => {
                eprintln!("work[{}]: coordinator gone mid-upload; exiting", opts.worker_id);
                return Ok(summary);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_and_worker_dependent() {
        for attempt in 0..UPLOAD_ATTEMPTS {
            let ms = backoff_ms("w1", attempt);
            assert!(ms >= BACKOFF_BASE_MS, "attempt {attempt} gave {ms}");
            assert!(ms <= BACKOFF_CAP_MS + BACKOFF_CAP_MS / 2, "attempt {attempt} gave {ms}");
        }
        // Deterministic, but desynchronized across workers.
        assert_eq!(backoff_ms("w1", 2), backoff_ms("w1", 2));
        assert_ne!(backoff_ms("w1", 2), backoff_ms("w2", 2));
    }
}
