//! The process-wide event sink.
//!
//! Instrumented code calls [`emit`]/[`span`] unconditionally; when no
//! trace file and no observer is installed, the cost is a single relaxed
//! atomic load ([`active`]) and an immediate return — a disabled trace is
//! a no-op static. When active, events are timestamped against the sink
//! epoch, fanned out to in-process observers (the CLI `--progress` meter),
//! and appended as JSONL to the writer installed by [`init_file`].
//!
//! The sink is `Sync`: writer and observers sit behind one mutex that is
//! only touched on emission, never on hot paths — hot paths (campaign
//! workers) accumulate into lock-free [`CampaignCounters`]/[`Histogram`]
//! atomics that a sampler thread turns into events at a low, fixed rate.

use crate::event::{CampaignKind, Event, OutcomeTally, TimedEvent};
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

type Observer = Box<dyn Fn(&TimedEvent) + Send + Sync>;

struct SinkState {
    writer: Option<Box<dyn Write + Send>>,
    observers: Vec<Observer>,
    epoch: Option<Instant>,
    /// First I/O error encountered while writing, reported at shutdown.
    io_error: Option<io::Error>,
}

/// Global sink: a no-op static until [`init_file`]/[`init_writer`]/
/// [`add_observer`] activates it.
struct Sink {
    active: AtomicBool,
    span_ids: AtomicU64,
    state: Mutex<SinkState>,
}

static SINK: Sink = Sink {
    active: AtomicBool::new(false),
    span_ids: AtomicU64::new(1),
    state: Mutex::new(SinkState {
        writer: None,
        observers: Vec::new(),
        epoch: None,
        io_error: None,
    }),
};

/// Whether any consumer (file or observer) is attached. One relaxed load;
/// this is the only cost tracing adds to a disabled run.
#[inline]
pub fn active() -> bool {
    SINK.active.load(Ordering::Relaxed)
}

fn lock() -> std::sync::MutexGuard<'static, SinkState> {
    SINK.state.lock().unwrap_or_else(|e| e.into_inner())
}

fn activate(st: &mut SinkState) {
    if st.epoch.is_none() {
        st.epoch = Some(Instant::now());
    }
    SINK.active.store(true, Ordering::Relaxed);
}

fn now_us(st: &SinkState) -> u64 {
    st.epoch.map_or(0, |e| e.elapsed().as_micros() as u64)
}

/// Start writing JSONL to `path` (truncating it) and emit the
/// `trace_start` header line.
pub fn init_file(path: &str) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    init_writer(Box::new(BufWriter::new(file)));
    Ok(())
}

/// [`init_file`] over an arbitrary writer (tests trace into memory).
/// Replaces any previous writer after flushing it.
pub fn init_writer(writer: Box<dyn Write + Send>) {
    let mut st = lock();
    if let Some(mut old) = st.writer.take() {
        let _ = old.flush();
    }
    st.writer = Some(writer);
    activate(&mut st);
    let ev = TimedEvent {
        ts_us: now_us(&st),
        event: Event::TraceStart {
            tool: concat!("minpsid ", env!("CARGO_PKG_VERSION")).to_string(),
        },
    };
    write_line(&mut st, &ev);
}

/// Install an in-process observer that sees every emitted event. Used by
/// the CLI live progress meter; independent of the file writer.
pub fn add_observer(f: impl Fn(&TimedEvent) + Send + Sync + 'static) {
    let mut st = lock();
    st.observers.push(Box::new(f));
    activate(&mut st);
}

fn write_line(st: &mut SinkState, ev: &TimedEvent) {
    for obs in &st.observers {
        obs(ev);
    }
    if let Some(w) = st.writer.as_mut() {
        let mut line = ev.to_line();
        line.push('\n');
        // flush per line: event rates are sampler-bounded (~tens/s), and a
        // crash mid-run then loses at most the line being written, so logs
        // stay analyzable and `tail -f`-able
        if let Err(e) = w.write_all(line.as_bytes()).and_then(|()| w.flush()) {
            if st.io_error.is_none() {
                st.io_error = Some(e);
            }
            st.writer = None;
        }
    }
}

/// Emit one event (timestamped now). No-op when the sink is inactive.
pub fn emit(event: Event) {
    if !active() {
        return;
    }
    let mut st = lock();
    let ev = TimedEvent {
        ts_us: now_us(&st),
        event,
    };
    write_line(&mut st, &ev);
}

/// Flush the underlying writer (e.g. before spawning a subprocess that
/// reads the log).
pub fn flush() -> io::Result<()> {
    let mut st = lock();
    if let Some(e) = st.io_error.take() {
        return Err(e);
    }
    match st.writer.as_mut() {
        Some(w) => w.flush(),
        None => Ok(()),
    }
}

/// Emit `trace_end`, flush and drop the writer, clear observers, and
/// deactivate. Returns the first I/O error seen over the sink's lifetime.
pub fn shutdown() -> io::Result<()> {
    let mut st = lock();
    if st.writer.is_some() || !st.observers.is_empty() {
        let ev = TimedEvent {
            ts_us: now_us(&st),
            event: Event::TraceEnd {
                dur_us: now_us(&st),
            },
        };
        write_line(&mut st, &ev);
    }
    let mut result = match st.io_error.take() {
        Some(e) => Err(e),
        None => Ok(()),
    };
    if let Some(mut w) = st.writer.take() {
        let flushed = w.flush();
        if result.is_ok() {
            result = flushed;
        }
    }
    st.observers.clear();
    st.epoch = None;
    SINK.active.store(false, Ordering::Relaxed);
    result
}

/// RAII stage marker: emits `span_begin` on creation and `span_end` (with
/// the measured duration) on drop. When the sink is inactive the guard is
/// empty and costs nothing.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    inner: Option<(u64, &'static str, Instant)>,
}

/// Open a span named `name`.
pub fn span(name: &'static str) -> Span {
    if !active() {
        return Span { inner: None };
    }
    let id = SINK.span_ids.fetch_add(1, Ordering::Relaxed);
    emit(Event::SpanBegin {
        id,
        name: name.to_string(),
    });
    Span {
        inner: Some((id, name, Instant::now())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((id, name, start)) = self.inner.take() {
            emit(Event::SpanEnd {
                id,
                name: name.to_string(),
                dur_us: start.elapsed().as_micros() as u64,
            });
        }
    }
}

const HIST_BUCKETS: usize = 65;

/// Lock-free power-of-two-bucketed histogram: bucket `i` counts values
/// whose bit length is `i` (bucket 0 = the value 0). Hot paths `record`
/// with one relaxed `fetch_add`; a snapshot turns it into an event.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub const fn new() -> Self {
        // AtomicU64 is not Copy; the const-item trick arrays it.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HIST_BUCKETS],
        }
    }

    #[inline]
    pub fn record(&self, value: u64) {
        let idx = (64 - value.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Non-empty `(bucket_lo, count)` pairs, in increasing bucket order.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        (0..HIST_BUCKETS)
            .filter_map(|i| {
                let n = self.buckets[i].load(Ordering::Relaxed);
                (n > 0).then(|| (if i == 0 { 0 } else { 1u64 << (i - 1) }, n))
            })
            .collect()
    }

    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Emit the current contents as a `histogram` event.
    pub fn emit(&self, name: &str) {
        emit(Event::Histogram {
            name: name.to_string(),
            buckets: self.snapshot(),
        });
    }
}

/// Which outcome a worker observed (mirror of the faultsim taxonomy, kept
/// here so faultsim's hot path can tally without allocating events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    Benign,
    Sdc,
    Crash,
    Hang,
    Detected,
}

/// Lock-free campaign telemetry the parallel workers write and the
/// sampler thread reads: injections done, live outcome tallies, and
/// checkpoint-restore accounting. All relaxed atomics — workers pay a
/// handful of uncontended `fetch_add`s per *injection* (one whole program
/// execution), which is noise.
pub struct CampaignCounters {
    kind: CampaignKind,
    total: u64,
    start: Instant,
    done: AtomicU64,
    benign: AtomicU64,
    sdc: AtomicU64,
    crash: AtomicU64,
    hang: AtomicU64,
    detected: AtomicU64,
    steps_executed: AtomicU64,
    steps_skipped: AtomicU64,
    restores: AtomicU64,
    converged: AtomicU64,
    steps_saved: AtomicU64,
    hangs_proved: AtomicU64,
    deduped: AtomicU64,
}

impl CampaignCounters {
    pub fn new(kind: CampaignKind, total: u64) -> Self {
        CampaignCounters {
            kind,
            total,
            start: Instant::now(),
            done: AtomicU64::new(0),
            benign: AtomicU64::new(0),
            sdc: AtomicU64::new(0),
            crash: AtomicU64::new(0),
            hang: AtomicU64::new(0),
            detected: AtomicU64::new(0),
            steps_executed: AtomicU64::new(0),
            steps_skipped: AtomicU64::new(0),
            restores: AtomicU64::new(0),
            converged: AtomicU64::new(0),
            steps_saved: AtomicU64::new(0),
            hangs_proved: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
        }
    }

    /// Record one finished injection.
    #[inline]
    pub fn record(&self, outcome: OutcomeKind, steps_executed: u64, steps_skipped: u64) {
        self.done.fetch_add(1, Ordering::Relaxed);
        let slot = match outcome {
            OutcomeKind::Benign => &self.benign,
            OutcomeKind::Sdc => &self.sdc,
            OutcomeKind::Crash => &self.crash,
            OutcomeKind::Hang => &self.hang,
            OutcomeKind::Detected => &self.detected,
        };
        slot.fetch_add(1, Ordering::Relaxed);
        self.steps_executed
            .fetch_add(steps_executed, Ordering::Relaxed);
        if steps_skipped > 0 {
            self.steps_skipped
                .fetch_add(steps_skipped, Ordering::Relaxed);
            self.restores.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The injection just [`record`](CampaignCounters::record)ed was
    /// finished early: its state equalled the golden run's at a
    /// checkpoint, so the `steps_saved` steps from there to the end were
    /// not replayed (they are in neither step tally of `record`).
    #[inline]
    pub fn record_converged(&self, steps_saved: u64) {
        self.converged.fetch_add(1, Ordering::Relaxed);
        self.steps_saved.fetch_add(steps_saved, Ordering::Relaxed);
    }

    /// The injection just [`record`](CampaignCounters::record)ed was
    /// stopped once a counted loop of it provably repeated itself to the
    /// step limit: a hang, with the steps after the proof not executed
    /// (they are in neither step tally of `record`).
    #[inline]
    pub fn record_hang_proved(&self) {
        self.hangs_proved.fetch_add(1, Ordering::Relaxed);
    }

    /// The injection about to be [`record`](CampaignCounters::record)ed
    /// (with zero steps) repeats a fault already run at its site: it took
    /// that run's outcome and was not replayed.
    #[inline]
    pub fn record_deduped(&self) {
        self.deduped.fetch_add(1, Ordering::Relaxed);
    }

    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    pub fn tally(&self) -> OutcomeTally {
        OutcomeTally {
            benign: self.benign.load(Ordering::Relaxed),
            sdc: self.sdc.load(Ordering::Relaxed),
            crash: self.crash.load(Ordering::Relaxed),
            hang: self.hang.load(Ordering::Relaxed),
            detected: self.detected.load(Ordering::Relaxed),
        }
    }

    fn progress_event(&self) -> Event {
        Event::CampaignProgress {
            kind: self.kind,
            done: self.done(),
            total: self.total,
            counts: self.tally(),
            elapsed_us: self.start.elapsed().as_micros() as u64,
        }
    }

    fn end_event(&self) -> Event {
        Event::CampaignEnd {
            kind: self.kind,
            injections: self.done(),
            elapsed_us: self.start.elapsed().as_micros() as u64,
            counts: self.tally(),
            steps_executed: self.steps_executed.load(Ordering::Relaxed),
            steps_skipped: self.steps_skipped.load(Ordering::Relaxed),
            restores: self.restores.load(Ordering::Relaxed),
            converged: self.converged.load(Ordering::Relaxed),
            steps_saved: self.steps_saved.load(Ordering::Relaxed),
            hangs_proved: self.hangs_proved.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
        }
    }
}

/// Run `body` while a sampler thread emits `campaign_progress` events
/// from `counters` every `interval`; a final `campaign_end` summary is
/// emitted when `body` returns. When the sink is inactive no thread is
/// spawned and `body` runs bare — campaigns without tracing pay nothing.
/// A `body` that panics stops the sampler on the way out, so the panic
/// propagates (the scope would otherwise join a thread that never ends)
/// and no `campaign_end` is emitted for a campaign that did not finish.
pub fn sample_campaign<T>(
    counters: &CampaignCounters,
    interval: Duration,
    body: impl FnOnce() -> T,
) -> T {
    if !active() {
        return body();
    }
    /// Sets the flag and wakes the sampler, so the join never waits out
    /// the rest of a sampling interval.
    struct StopOnDrop<'a>(&'a AtomicBool, std::thread::Thread);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
            self.1.unpark();
        }
    }
    let stop = AtomicBool::new(false);
    let result = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            // `park_timeout` may wake early (an `unpark`, or spuriously):
            // the next sample is due by the clock, not by wake-ups
            let mut due = Instant::now() + interval;
            while !stop.load(Ordering::Acquire) {
                let now = Instant::now();
                if now < due {
                    std::thread::park_timeout(due - now);
                } else {
                    emit(counters.progress_event());
                    due = now + interval;
                }
            }
        });
        let _stop = StopOnDrop(&stop, sampler.thread().clone());
        body()
    });
    emit(counters.end_event());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// Shared in-memory writer for capturing emitted lines.
    #[derive(Clone, Default)]
    struct Buf(Arc<StdMutex<Vec<u8>>>);

    impl Write for Buf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Buf {
        fn lines(&self) -> Vec<TimedEvent> {
            let bytes = self.0.lock().unwrap().clone();
            String::from_utf8(bytes)
                .unwrap()
                .lines()
                .map(|l| TimedEvent::parse_line(l).expect("every emitted line parses"))
                .collect()
        }
    }

    /// The global sink is process-wide state: a test that touches it holds
    /// this for its whole body.
    static SINK_TESTS: StdMutex<()> = StdMutex::new(());

    #[test]
    fn global_sink_lifecycle() {
        let _sink = SINK_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!active(), "sink starts disabled");
        // disabled: spans and emits are free no-ops
        drop(span("noop"));
        emit(Event::JournalStats {
            recovered: 0,
            appended: 1,
        });

        let buf = Buf::default();
        init_writer(Box::new(buf.clone()));
        assert!(active());

        {
            let _s = span("stage_a");
            emit(Event::JournalStats {
                recovered: 3,
                appended: 7,
            });
        }

        let counters = CampaignCounters::new(CampaignKind::Program, 4);
        let out = sample_campaign(&counters, Duration::from_millis(5), || {
            for i in 0..4u64 {
                counters.record(OutcomeKind::Sdc, 100 + i, 50);
            }
            counters.record_converged(30);
            counters.record_hang_proved();
            counters.record_deduped();
            "done"
        });
        assert_eq!(out, "done");

        shutdown().unwrap();
        assert!(!active());

        let events = buf.lines();
        assert!(matches!(events[0].event, Event::TraceStart { .. }));
        assert!(matches!(
            events.last().unwrap().event,
            Event::TraceEnd { .. }
        ));
        // span begin/end pair with matching ids and the right name
        let begin = events
            .iter()
            .find_map(|e| match &e.event {
                Event::SpanBegin { id, name } if name == "stage_a" => Some(*id),
                _ => None,
            })
            .expect("span_begin present");
        assert!(events.iter().any(|e| matches!(
            &e.event,
            Event::SpanEnd { id, name, .. } if *id == begin && name == "stage_a"
        )));
        // campaign summary reflects the workers' atomics
        let end = events
            .iter()
            .find_map(|e| match &e.event {
                Event::CampaignEnd {
                    injections,
                    counts,
                    steps_executed,
                    steps_skipped,
                    restores,
                    converged,
                    steps_saved,
                    hangs_proved,
                    deduped,
                    ..
                } => Some((
                    *injections,
                    *counts,
                    *steps_executed,
                    *steps_skipped,
                    *restores,
                    (*converged, *steps_saved, *hangs_proved, *deduped),
                )),
                _ => None,
            })
            .expect("campaign_end present");
        assert_eq!(end.0, 4);
        assert_eq!(end.1.sdc, 4);
        assert_eq!(end.1.total(), 4);
        assert_eq!(end.2, 100 + 101 + 102 + 103);
        assert_eq!(end.3, 200);
        assert_eq!(end.4, 4);
        assert_eq!(end.5, (1, 30, 1, 1));
        // timestamps are monotone
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));

        // emitting after shutdown is a no-op again
        emit(Event::JournalStats {
            recovered: 0,
            appended: 1,
        });
        assert_eq!(buf.lines().len(), events.len());
    }

    /// A `body` that unwinds takes the sampler down with it: the panic
    /// reaches the caller (no hung join) and no `campaign_end` is emitted.
    #[test]
    fn a_panicking_body_propagates_through_an_observed_campaign() {
        let _sink = SINK_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let ended = Arc::new(AtomicBool::new(false));
        let seen = ended.clone();
        add_observer(move |ev| {
            if matches!(ev.event, Event::CampaignEnd { .. }) {
                seen.store(true, Ordering::Relaxed);
            }
        });
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let counters = CampaignCounters::new(CampaignKind::Program, 1);
            let unwound = std::panic::catch_unwind(|| {
                sample_campaign(&counters, Duration::from_millis(50), || {
                    panic!("a worker panic re-raised outside catch_unwind")
                })
            });
            let _ = tx.send(unwound.is_err());
        });
        let came_back = rx.recv_timeout(Duration::from_secs(3));
        shutdown().unwrap();
        assert_eq!(came_back, Ok(true), "the sampler outlived a panicked body");
        assert!(!ended.load(Ordering::Relaxed), "campaign_end, unfinished");
    }

    /// Stopping the sampler wakes it: a campaign's wall time is its body's,
    /// not rounded up to the sampler's next wake-up. Each body lasts 2 ms,
    /// long enough for the sampler to be waiting when it returns (a body
    /// that returns at once can stop the sampler before it first waits).
    #[test]
    fn an_observed_campaign_does_not_wait_for_the_sampler() {
        let _sink = SINK_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        init_writer(Box::new(Buf::default()));
        let counters = CampaignCounters::new(CampaignKind::Program, 0);
        let t0 = Instant::now();
        for _ in 0..20 {
            sample_campaign(&counters, Duration::from_millis(250), || {
                std::thread::sleep(Duration::from_millis(2))
            });
        }
        let took = t0.elapsed();
        shutdown().unwrap();
        assert!(
            took < Duration::from_millis(100),
            "20 observed 2 ms campaigns took {took:?}"
        );
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        h.record(u64::MAX);
        assert_eq!(h.total(), 6);
        let snap = h.snapshot();
        assert!(snap.contains(&(0, 1)), "{snap:?}");
        assert!(snap.contains(&(1, 1)), "{snap:?}");
        assert!(snap.contains(&(2, 2)), "{snap:?}");
        assert!(snap.contains(&(1024, 1)), "{snap:?}");
        assert!(snap.contains(&(1 << 63, 1)), "{snap:?}");
        // increasing bucket order
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
