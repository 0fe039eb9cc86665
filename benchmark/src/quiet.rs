//! Holding a run back while the host is in one of its slow spells.
//!
//! The reference VM shares its cores. Now and then everything in it
//! runs 1.3–1.45× slower for two or three minutes on end (README,
//! "How the bounds were derived"): every block of a run reads the same
//! slow figure, so no statistic inside the run can tell, and three or
//! four runs in a row come out a third slower than their neighbours.
//! What can tell is a fixed piece of work that has nothing to do with
//! the program under test, timed now and compared with the fastest it
//! has ever been timed in this checkout. That figure is kept in
//! `out/host-speed`, next to the traces. A run that finds the host more
//! than [`SLOW`] times slower than that sleeps and looks again, for at
//! most [`MAX_WAIT_PER_RUN`], and all runs of a checkout together for at
//! most [`MAX_WAIT_PER_CHECKOUT`] — the driver's time for all runs is
//! limited — and then measures whatever the host is doing. Only *when* a
//! run measures depends on this; what it reports is what it timed.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

/// The host counts as slow when the yardstick takes this many times its
/// best. Readings of the fast state stay within 1.19× of the best of
/// them; brief drops into the slow state read 1.25× and more, a spell
/// 1.4× and more.
const SLOW: f64 = 1.2;
const BETWEEN_READINGS: Duration = Duration::from_millis(250);
const RECHECK_EVERY: Duration = Duration::from_secs(3);
const MAX_WAIT_PER_RUN: Duration = Duration::from_secs(100);
const MAX_WAIT_PER_CHECKOUT: Duration = Duration::from_secs(360);

/// What the gate saw, for the run's diagnostics.
pub struct HostSpeed {
    /// The reading on which the run went ahead.
    pub reading_ns: u64,
    /// The fastest reading of any run in this checkout.
    pub best_ns: u64,
    /// How long this run spent at the gate.
    pub waited: Duration,
}

/// A few milliseconds of fixed work of the two kinds the engine does:
/// arithmetic that keeps the core's ports busy, and an ordered map of
/// small vectors built through the allocator, as the hash join builds
/// one. Returns the nanoseconds it took.
fn yardstick_once() -> u64 {
    const MIX: u64 = 0x9e37_79b9_7f4a_7c15;
    let started = Instant::now();
    let mut lanes = [1u64, 2, 3, 4];
    for i in 0..400_000u64 {
        for lane in &mut lanes {
            *lane = (*lane ^ i).wrapping_mul(MIX);
        }
    }
    let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for i in 0..20_000u64 {
        groups.entry(i.wrapping_mul(MIX) >> 52).or_default().push(i);
    }
    black_box((lanes, groups));
    started.elapsed().as_nanos() as u64
}

/// One reading of the host's speed: the median of nine turns of the
/// yardstick, some 25 ms. The first turn after a sleep runs on a cold
/// core and reads high; the median leaves it out.
fn reading() -> u64 {
    let mut turns: Vec<u64> = (0..9).map(|_| yardstick_once()).collect();
    turns.sort_unstable();
    turns[turns.len() / 2]
}

/// Look at the host for up to two seconds, a reading every quarter of
/// a second, and return the fastest; stop early at a reading within
/// `limit`. The host drops into its slow state for a fraction of a
/// second many times a minute, which the best block of a run shrugs
/// off; only a slow state that holds for seconds on end is a spell.
fn fastest_reading(limit: f64) -> u64 {
    let mut fastest = u64::MAX;
    for _ in 0..8 {
        fastest = fastest.min(reading());
        if fastest as f64 <= limit {
            break;
        }
        thread::sleep(BETWEEN_READINGS);
    }
    fastest
}

/// `out/host-speed`: the best reading in nanoseconds and the
/// milliseconds all runs so far have spent at the gate. A missing or
/// unreadable file is a fresh checkout.
fn load(state: &Path) -> Option<(u64, u64)> {
    let text = fs::read_to_string(state).ok()?;
    let mut words = text.split_whitespace().map(str::parse::<u64>);
    Some((words.next()?.ok()?, words.next()?.ok()?))
}

/// Wait, within the limits above, until the host is as fast as it has
/// been seen to be; call from the thread that will generate the load,
/// after it is pinned. A checkout's first run has nothing to compare
/// with and goes ahead. Failing to write the state only costs the next
/// run its baseline.
pub fn wait_for_quiet_host(state: &Path) -> HostSpeed {
    let (best_ns, waited_before_ms) = load(state).unwrap_or((u64::MAX, 0));
    let budget = MAX_WAIT_PER_CHECKOUT
        .saturating_sub(Duration::from_millis(waited_before_ms))
        .min(MAX_WAIT_PER_RUN);
    let limit = best_ns as f64 * SLOW;
    let started = Instant::now();
    let mut reading_ns = fastest_reading(limit);
    while reading_ns as f64 > limit && started.elapsed() < budget {
        thread::sleep(RECHECK_EVERY);
        reading_ns = fastest_reading(limit);
    }
    let waited = started.elapsed();
    let best_ns = best_ns.min(reading_ns);
    if let Some(dir) = state.parent() {
        let _ = fs::create_dir_all(dir);
    }
    let waited_ms = waited_before_ms + waited.as_millis() as u64;
    let _ = fs::write(state, format!("{best_ns} {waited_ms}\n"));
    HostSpeed { reading_ns, best_ns, waited }
}
