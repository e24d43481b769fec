//! Live stderr progress heartbeat for long campaign sweeps.
//!
//! The heartbeat is pure observability: it writes rate-limited single-line
//! updates to **stderr** (stdout stays reserved for artifacts and
//! machine-readable output) and touches nothing deterministic. Worker
//! threads report finished cells through relaxed atomics; printing is
//! throttled through a mutex-guarded "last printed" instant so at most
//! roughly one line per second reaches the terminal no matter how fast
//! cells complete.
//!
//! Distributed runs (`campaign serve`, `run --workers N`) report progress
//! per shard through the coordinator's [`ServeHeartbeat`] instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Minimum interval between printed heartbeat lines.
const PRINT_INTERVAL: Duration = Duration::from_millis(1000);

/// A thread-safe campaign progress reporter.
pub struct Heartbeat {
    total: u64,
    done: AtomicU64,
    moves: AtomicU64,
    start: Instant,
    last_print: Mutex<Option<Instant>>,
}

impl Heartbeat {
    /// A heartbeat expecting `total` cells.
    #[must_use]
    pub fn new(total: u64) -> Self {
        Self {
            total,
            done: AtomicU64::new(0),
            moves: AtomicU64::new(0),
            start: Instant::now(),
            last_print: Mutex::new(None),
        }
    }

    /// Records one finished cell (with the moves it executed) and prints a
    /// progress line if the rate limiter allows.
    pub fn cell_done(&self, moves: u64) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let total_moves = self.moves.fetch_add(moves, Ordering::Relaxed) + moves;
        let Ok(mut last) = self.last_print.lock() else { return };
        let now = Instant::now();
        if let Some(prev) = *last {
            if now.duration_since(prev) < PRINT_INTERVAL && done < self.total {
                return;
            }
        }
        *last = Some(now);
        drop(last);
        self.print_line(done, total_moves);
    }

    /// Prints the final summary line unconditionally.
    pub fn finish(&self) {
        self.print_line(self.done.load(Ordering::Relaxed), self.moves.load(Ordering::Relaxed));
    }

    fn print_line(&self, done: u64, moves: u64) {
        let elapsed = self.start.elapsed().as_secs_f64();
        let pct = if self.total == 0 {
            100.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let p = done as f64 * 100.0 / self.total as f64;
            p
        };
        let eta = if done == 0 || done >= self.total {
            String::from("--")
        } else {
            #[allow(clippy::cast_precision_loss)]
            let remaining = elapsed / done as f64 * (self.total - done) as f64;
            format_secs(remaining)
        };
        // The moves/s segment only appears once some cell has moved.
        #[allow(clippy::cast_precision_loss)]
        let rates = if elapsed > 0.0 && moves > 0 {
            format!(
                "{} cells/s | {} moves/s",
                format_rate(done as f64 / elapsed),
                format_rate(moves as f64 / elapsed)
            )
        } else if elapsed > 0.0 {
            format!("{} cells/s", format_rate(done as f64 / elapsed))
        } else {
            String::from("-- cells/s")
        };
        eprintln!("[campaign] {done}/{} cells ({pct:.1}%) | {rates} | ETA {eta}", self.total);
    }
}

/// Snapshot of coordinator-side shard accounting for one heartbeat line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounts {
    /// Shards currently out on a live lease.
    pub leased: u64,
    /// Shards whose partial has been accepted and folded.
    pub completed: u64,
    /// Leases that expired and were returned to the pending pool
    /// (cumulative; a shard can expire more than once).
    pub expired: u64,
    /// Cells folded into the incremental merge so far.
    pub merged_cells: u64,
}

/// Rate-limited progress line for the `campaign serve` coordinator.
///
/// Unlike [`Heartbeat`], which counts cells finished inside this process,
/// the coordinator never executes cells itself — progress is the state of
/// the lease table, so callers pass a [`ServeCounts`] snapshot and the
/// heartbeat only owns the rate limiting and formatting. The coordinator
/// loop is single-threaded, but the same mutex-guarded throttle as
/// [`Heartbeat`] keeps the type `Sync` and the idiom uniform.
pub struct ServeHeartbeat {
    total_shards: u64,
    start: Instant,
    last_print: Mutex<Option<Instant>>,
}

impl ServeHeartbeat {
    /// A heartbeat for a plan of `total_shards` shards.
    #[must_use]
    pub fn new(total_shards: u64) -> Self {
        Self { total_shards, start: Instant::now(), last_print: Mutex::new(None) }
    }

    /// Prints a progress line if the rate limiter allows (call on every
    /// lease/upload/expiry transition; at most one line per second lands).
    pub fn tick(&self, counts: ServeCounts) {
        let Ok(mut last) = self.last_print.lock() else { return };
        let now = Instant::now();
        if let Some(prev) = *last {
            if now.duration_since(prev) < PRINT_INTERVAL && counts.completed < self.total_shards {
                return;
            }
        }
        *last = Some(now);
        drop(last);
        self.print_line(counts);
    }

    /// Prints the final summary line unconditionally.
    pub fn finish(&self, counts: ServeCounts) {
        self.print_line(counts);
    }

    fn print_line(&self, counts: ServeCounts) {
        let elapsed = self.start.elapsed().as_secs_f64();
        let done = counts.completed;
        let eta = if done == 0 || done >= self.total_shards {
            String::from("--")
        } else {
            #[allow(clippy::cast_precision_loss)]
            let remaining = elapsed / done as f64 * (self.total_shards - done) as f64;
            format_secs(remaining)
        };
        eprintln!(
            "[serve] {done}/{} shards done | {} leased | {} expired | {} cells merged | ETA {eta}",
            self.total_shards, counts.leased, counts.expired, counts.merged_cells,
        );
    }
}

/// Renders a rate with an SI suffix (`873`, `12.3k`, `4.56M`).
fn format_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

/// Renders a duration in seconds as `42s` or `3m12s`.
fn format_secs(secs: f64) -> String {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let s = secs.max(0.0).round() as u64;
    if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_across_threads() {
        let hb = Heartbeat::new(8);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    hb.cell_done(10);
                    hb.cell_done(5);
                });
            }
        });
        assert_eq!(hb.done.load(Ordering::Relaxed), 8);
        assert_eq!(hb.moves.load(Ordering::Relaxed), 60);
        hb.finish();
    }

    #[test]
    fn serve_heartbeat_rate_limits_but_always_prints_completion() {
        let hb = ServeHeartbeat::new(4);
        let counts = ServeCounts { leased: 2, completed: 1, expired: 0, merged_cells: 9 };
        hb.tick(counts);
        // Second tick inside the interval is suppressed (no panic, no print
        // path we can observe here beyond the throttle state update).
        hb.tick(counts);
        assert!(hb.last_print.lock().unwrap().is_some());
        hb.finish(ServeCounts { leased: 0, completed: 4, expired: 1, merged_cells: 36 });
    }

    #[test]
    fn rate_and_eta_formatting() {
        assert_eq!(format_rate(873.2), "873");
        assert_eq!(format_rate(12_340.0), "12.3k");
        assert_eq!(format_rate(4_560_000.0), "4.56M");
        assert_eq!(format_secs(42.4), "42s");
        assert_eq!(format_secs(192.0), "3m12s");
    }
}
