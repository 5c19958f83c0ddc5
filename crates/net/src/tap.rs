//! Live metrics streaming: a read-only side-channel next to the serving
//! master.
//!
//! The tap listens on its own endpoint and periodically broadcasts one
//! [`Msg::Tap`] frame to every subscriber, carrying a
//! [`MetricsSnapshot`] *delta* (what changed since the previous tick)
//! pre-rendered as metrics JSONL. Deltas use
//! `MetricsSnapshot::delta_since`, whose schema is stable: every metric
//! key present in the cumulative snapshot appears on every tick, with
//! zero counts where nothing happened, so downstream consumers never see
//! keys flicker in and out. The first tick after the tap starts is the
//! full cumulative snapshot (a delta against the empty snapshot).
//!
//! Subscribers are passive: the tap never reads from them, a failed
//! write silently drops the subscriber, and no subscriber can slow the
//! serving master (the tap runs on its own thread and snapshots through
//! a caller-provided closure).

use crate::codec::{self, Msg};
use crate::metrics;
use crate::transport::{NetAddr, NetListener, NetStream};
use borg_obs::{MetricsSnapshot, Recorder};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How the live metrics tap runs.
#[derive(Debug, Clone)]
pub struct TapConfig {
    /// Endpoint the tap listens on for subscribers.
    pub listen: NetAddr,
    /// Delta-tick period.
    pub interval: Duration,
    /// Accept-poll tick (also bounds shutdown latency).
    pub read_timeout: Duration,
}

impl TapConfig {
    pub fn new(listen: NetAddr) -> Self {
        TapConfig {
            listen,
            interval: Duration::from_millis(250),
            read_timeout: Duration::from_millis(25),
        }
    }
}

/// The tap broadcast loop: accepts subscribers, ticks deltas. Runs until
/// `stop` rises; callers run it on a thread beside
/// [`serve`](crate::serve::serve).
pub fn tap_loop<R: Recorder + ?Sized>(
    listener: &NetListener,
    cfg: &TapConfig,
    snap: &(dyn Fn() -> MetricsSnapshot + Sync),
    stop: &AtomicBool,
    rec: &R,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let start = Instant::now();
    let mut subs: Vec<NetStream> = Vec::new();
    let mut prev = MetricsSnapshot::default();
    let mut seq = 0u64;
    let mut last_tick = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept(cfg.read_timeout) {
            Ok(Some(stream)) => {
                rec.counter(metrics::TAP_SUBSCRIBERS, 1);
                subs.push(stream);
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => break,
        }
        // Tick only while someone is listening: the first frame a
        // subscriber sees is then the full cumulative state (delta
        // against whatever `prev` had accumulated to).
        if !subs.is_empty() && last_tick.elapsed() >= cfg.interval {
            last_tick = Instant::now();
            let cur = snap();
            let delta = cur.delta_since(&prev);
            prev = cur;
            let jsonl = borg_obs::export::metrics_jsonl(&[], &delta);
            let frame = codec::encode(&Msg::Tap {
                seq,
                at: start.elapsed().as_secs_f64(),
                jsonl,
            });
            seq += 1;
            subs.retain_mut(|s| s.write_all(&frame).is_ok());
            rec.counter(metrics::TAP_FRAMES, subs.len() as u64);
        }
    }
    for s in &subs {
        s.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{connect_with_backoff, Backoff, Conn};
    use borg_obs::InMemoryRecorder;

    #[test]
    fn tap_streams_stable_schema_deltas_to_a_subscriber() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("borg-tap-test-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let addr = NetAddr::Unix(path.clone());
        let listener = NetListener::bind(&addr).unwrap();
        let cfg = TapConfig {
            listen: addr.clone(),
            interval: Duration::from_millis(10),
            read_timeout: Duration::from_millis(5),
        };
        let rec = InMemoryRecorder::new();
        rec.counter("net.frames_sent", 3);
        rec.observe("net.rtt_seconds", 0.25);
        let stop = AtomicBool::new(false);
        let frames = std::thread::scope(|scope| {
            scope.spawn(|| tap_loop(&listener, &cfg, &|| rec.snapshot(), &stop, &rec));
            let mut backoff = Backoff::default_schedule();
            let stream =
                connect_with_backoff(&addr, &mut backoff, Duration::from_millis(50)).unwrap();
            let mut conn = Conn::new(stream);
            let mut frames = Vec::new();
            for _ in 0..400 {
                match conn.recv() {
                    Ok(Some(Msg::Tap { seq, jsonl, .. })) => {
                        frames.push((seq, jsonl));
                        if frames.len() >= 2 {
                            break;
                        }
                        // Touch a counter between ticks: the next delta
                        // must still carry every key.
                        rec.counter("net.frames_sent", 1);
                    }
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            stop.store(true, Ordering::SeqCst);
            frames
        });
        let _ = std::fs::remove_file(&path);
        assert!(frames.len() >= 2, "subscriber saw {} frames", frames.len());
        assert_eq!(frames[0].0 + 1, frames[1].0);
        // First frame is the full cumulative state; both frames carry the
        // same key set (stable schema), histograms included.
        for (_, jsonl) in &frames {
            assert!(jsonl.contains("net.frames_sent"), "missing counter key");
            assert!(jsonl.contains("net.rtt_seconds"), "missing histogram key");
        }
    }
}
