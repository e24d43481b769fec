//! Wire payloads of the serve protocol — the JSON bodies exchanged over
//! [`super::http`], built and parsed with the workspace's strict JSON
//! layer so both ends reject malformed traffic instead of guessing.
//!
//! Endpoints (one request per connection):
//!
//! | method & path | request body           | response body |
//! |---------------|------------------------|---------------|
//! | `GET /plan`   | —                      | the `CampaignPlan` JSON |
//! | `POST /lease` | `{"worker":id}`        | [`LeaseReply`] |
//! | `POST /renew` | `{"worker":id,"lease_id":n}` | `{"renewed":bool}` |
//! | `POST /upload`| partial JSON (+ `x-specstab-worker` and [`COUNTERS_HEADER`] headers) | [`UploadReply`] |
//! | `GET /status` | —                      | `specstab-metrics/v1` snapshot |

use specstab_telemetry::{obj, CounterSnapshot, Json};

/// Upload header carrying the worker's engine-counter delta for the
/// uploaded shard, as compact `CounterSnapshot` JSON.
pub const COUNTERS_HEADER: &str = "x-specstab-counters";

/// Renders a counter delta as a [`COUNTERS_HEADER`] value.
#[must_use]
pub fn counters_header(counters: &CounterSnapshot) -> String {
    counters.to_json().render_compact()
}

/// Parses a [`COUNTERS_HEADER`] value. A missing header counts as zero
/// counters: spool replays and hand-made uploads carry none.
///
/// # Errors
///
/// Fails on a value that is not a `CounterSnapshot` JSON object.
pub fn parse_counters_header(value: Option<&str>) -> Result<CounterSnapshot, String> {
    let Some(value) = value else { return Ok(CounterSnapshot::default()) };
    Json::parse(value)
        .and_then(|j| CounterSnapshot::from_json(&j))
        .map_err(|e| format!("malformed {COUNTERS_HEADER} header: {e}"))
}

/// A granted lease: which cells to run and how long the coordinator will
/// wait before re-dispatching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Shard id within the plan.
    pub shard: u64,
    /// First cell index covered (redundant with the plan; lets a worker
    /// sanity-check its plan copy).
    pub start: u64,
    /// One past the last cell index covered.
    pub end: u64,
    /// Coordinator-scoped lease id, never reused.
    pub lease_id: u64,
    /// Lease duration in milliseconds; renew before it elapses.
    pub lease_ms: u64,
    /// Fingerprint of the plan's cell matrix, so a worker holding a stale
    /// plan file fails fast instead of uploading a rejectable partial.
    pub plan_fingerprint: u64,
}

/// The coordinator's answer to `POST /lease`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseReply {
    /// Work granted.
    Granted(Lease),
    /// Nothing leasable right now (all shards out on live leases); poll
    /// again after `retry_ms`.
    Wait {
        /// Suggested delay before the next lease attempt.
        retry_ms: u64,
    },
    /// The campaign is complete; the worker should exit.
    Done,
}

impl LeaseReply {
    /// Renders the reply body.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            LeaseReply::Granted(l) => obj(vec![(
                "lease",
                obj(vec![
                    ("shard", Json::UInt(l.shard)),
                    ("start", Json::UInt(l.start)),
                    ("end", Json::UInt(l.end)),
                    ("lease_id", Json::UInt(l.lease_id)),
                    ("lease_ms", Json::UInt(l.lease_ms)),
                    ("plan_fingerprint", Json::UInt(l.plan_fingerprint)),
                ]),
            )]),
            LeaseReply::Wait { retry_ms } => {
                obj(vec![("wait", obj(vec![("retry_ms", Json::UInt(*retry_ms))]))])
            }
            LeaseReply::Done => obj(vec![("done", Json::Bool(true))]),
        }
        .render_compact()
    }

    /// Parses a reply body.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a body matching none of the three reply
    /// shapes.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let j = Json::parse(text)?;
        if let Some(l) = j.get("lease") {
            return Ok(LeaseReply::Granted(Lease {
                shard: l.req("shard")?.as_u64()?,
                start: l.req("start")?.as_u64()?,
                end: l.req("end")?.as_u64()?,
                lease_id: l.req("lease_id")?.as_u64()?,
                lease_ms: l.req("lease_ms")?.as_u64()?,
                plan_fingerprint: l.req("plan_fingerprint")?.as_u64()?,
            }));
        }
        if let Some(w) = j.get("wait") {
            return Ok(LeaseReply::Wait { retry_ms: w.req("retry_ms")?.as_u64()? });
        }
        if j.get("done").is_some() {
            return Ok(LeaseReply::Done);
        }
        Err(format!("lease reply matches no known shape: {text}"))
    }
}

/// The coordinator's answer to `POST /upload`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UploadReply {
    /// Folded into the campaign. `duplicate` marks a re-dispatched
    /// straggler's second copy: acknowledged, dropped, not double-counted.
    Accepted {
        /// Whether this upload was an exact duplicate of an earlier one.
        duplicate: bool,
    },
    /// Failed validation and was discarded; retrying the same bytes is
    /// pointless.
    Rejected {
        /// Human-readable rejection reason.
        reason: String,
    },
}

impl UploadReply {
    /// Renders the reply body.
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            UploadReply::Accepted { duplicate } => {
                obj(vec![("accepted", Json::Bool(true)), ("duplicate", Json::Bool(*duplicate))])
            }
            UploadReply::Rejected { reason } => {
                obj(vec![("accepted", Json::Bool(false)), ("rejected", Json::Str(reason.clone()))])
            }
        }
        .render_compact()
    }

    /// Parses a reply body.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a body matching neither reply shape.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let j = Json::parse(text)?;
        if j.req("accepted")?.as_bool()? {
            return Ok(UploadReply::Accepted { duplicate: j.req("duplicate")?.as_bool()? });
        }
        Ok(UploadReply::Rejected { reason: j.req("rejected")?.as_str()?.to_string() })
    }
}

/// Renders the `POST /lease` request body.
#[must_use]
pub fn lease_request(worker: &str) -> String {
    obj(vec![("worker", Json::Str(worker.to_string()))]).render_compact()
}

/// Renders the `POST /renew` request body.
#[must_use]
pub fn renew_request(worker: &str, lease_id: u64) -> String {
    obj(vec![("worker", Json::Str(worker.to_string())), ("lease_id", Json::UInt(lease_id))])
        .render_compact()
}

/// Parses `{"worker":id}` (and optionally `lease_id`) request bodies.
///
/// # Errors
///
/// Fails on malformed JSON or a missing/mistyped `worker` field.
pub fn parse_worker_body(body: &[u8]) -> Result<(String, Option<u64>), String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 request body".to_string())?;
    let j = Json::parse(text)?;
    let worker = j.req("worker")?.as_str()?.to_string();
    let lease_id = j.get("lease_id").map(Json::as_u64).transpose()?;
    Ok((worker, lease_id))
}

/// Renders the `{"renewed":bool}` reply to `POST /renew`.
#[must_use]
pub fn renew_reply(renewed: bool) -> String {
    obj(vec![("renewed", Json::Bool(renewed))]).render_compact()
}

/// Parses the `POST /renew` reply.
///
/// # Errors
///
/// Fails on malformed JSON or a missing/mistyped `renewed` field.
pub fn parse_renew_reply(text: &str) -> Result<bool, String> {
    Json::parse(text)?.req("renewed")?.as_bool()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_replies_round_trip() {
        let granted = LeaseReply::Granted(Lease {
            shard: 3,
            start: 12,
            end: 30,
            lease_id: 7,
            lease_ms: 30_000,
            plan_fingerprint: 0xDEAD_BEEF,
        });
        for reply in [granted, LeaseReply::Wait { retry_ms: 250 }, LeaseReply::Done] {
            let back = LeaseReply::from_json(&reply.to_json()).expect("parses");
            assert_eq!(back, reply);
        }
        assert!(LeaseReply::from_json("{\"nope\":1}").is_err());
    }

    #[test]
    fn upload_replies_round_trip() {
        for reply in [
            UploadReply::Accepted { duplicate: false },
            UploadReply::Accepted { duplicate: true },
            UploadReply::Rejected { reason: "fingerprint mismatch".into() },
        ] {
            let back = UploadReply::from_json(&reply.to_json()).expect("parses");
            assert_eq!(back, reply);
        }
    }

    #[test]
    fn worker_bodies_round_trip() {
        let (w, id) = parse_worker_body(lease_request("w-1").as_bytes()).expect("parses");
        assert_eq!((w.as_str(), id), ("w-1", None));
        let (w, id) = parse_worker_body(renew_request("w-2", 9).as_bytes()).expect("parses");
        assert_eq!((w.as_str(), id), ("w-2", Some(9)));
        assert!(parse_renew_reply(&renew_reply(true)).expect("parses"));
    }
}
