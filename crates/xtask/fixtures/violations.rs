//! Lint self-test fixture: every `//~ BORG-Lxxx` marker names a violation
//! `cargo xtask check --self-test` must report on that line, and every
//! unmarked escape hatch below must stay silent. The file is never compiled
//! or scanned by a normal `check` run (fixtures are excluded from
//! discovery); it is linted under a spoofed `crates/desim/src/` path so the
//! path-scoped BORG-L003 rule is live too.

use std::sync::Mutex; //~ BORG-L004
use std::sync::{Arc, Mutex as StdMutex}; //~ BORG-L004
use std::time::Instant; //~ BORG-L003

fn library_code(opt: Option<u32>, res: Result<u32, String>) -> u32 {
    let a = opt.unwrap(); //~ BORG-L001
    let b = res.expect("fixture"); //~ BORG-L001
    // Non-consuming lookalikes must not be flagged:
    let c = opt.unwrap_or(0);
    a + b + c
}

fn entropy_sources() -> f64 {
    let mut rng = rand::thread_rng(); //~ BORG-L002
    let x: f64 = rand::random(); //~ BORG-L002
    let seeded = StdRng::from_entropy(); //~ BORG-L002
    let os = OsRng; //~ BORG-L002
    x
}

fn wall_clock_in_virtual_time() {
    // In-scope because the fixture is scanned under crates/desim/src/.
    let t0 = Instant::now(); //~ BORG-L003
    let wall = std::time::SystemTime::now(); //~ BORG-L003
}

fn objective_equality_marked(sol: &Solution, best: f64) -> bool {
    sol.objectives()[0] == best //~ BORG-L005
}

fn objective_inequality_marked(sol: &Solution, best: f64) -> bool {
    best != sol.objectives()[1] //~ BORG-L005
}

// The fixture's spoofed path is also in BORG-L006 scope (executor rule),
// so unbounded channel waits are flagged here too.
fn master_loop_blocks_forever(rx: &Receiver<u64>) -> u64 {
    let first = rx.recv().unwrap_or(0); //~ BORG-L006
    first
}

// The fixture's spoofed path is also in BORG-L007 scope (executor rule):
// recovery bookkeeping belongs to borg_protocol::MasterEngine, not here.
struct ShadowMaster {
    in_flight: HashMap<u64, ReissueRecord>, //~ BORG-L007
    completed_ids: HashSet<u64>, //~ BORG-L007
}

fn shadow_recovery_state() {
    let mut deadlines: BTreeMap<u64, f64> = BTreeMap::new(); //~ BORG-L007
    let mut reissue_queue: VecDeque<u64> = VecDeque::new(); //~ BORG-L007
}

// Library code must not write to the terminal: report through the
// borg_obs::Recorder facade or return a renderable value.
fn chatty_library(progress: f64) {
    println!("progress: {progress:.1}%"); //~ BORG-L008
    eprintln!("warning: master saturated"); //~ BORG-L008
    print!("partial"); //~ BORG-L008
}

// The fixture's spoofed path is also in BORG-L009 scope (experiments-crate
// rule): sweeps fan out through borg-runner, never raw threads.
fn raw_threads_in_experiments() {
    let handle = std::thread::spawn(worker); //~ BORG-L009
    let other = thread::spawn(|| evaluate()); //~ BORG-L009
}

// The fixture's spoofed path is in BORG-L010 scope (determinism rule):
// hash-order iteration can leak into reported results.
fn order_sensitive_fold() -> u64 {
    let weights: HashMap<u64, u64> = HashMap::new();
    let mut ranked: Vec<u64> = weights.keys().copied().collect(); //~ BORG-L010
    for (id, w) in &weights { //~ BORG-L010
        ranked.push(id + w);
    }
    ranked.first().copied().unwrap_or(0)
}

// Library class puts BORG-L011 (relaxed atomics need a written
// justification) in scope here.
fn unjustified_relaxed(flag: &AtomicBool) -> bool {
    flag.load(Ordering::Relaxed) //~ BORG-L011
}

fn empty_reason_does_not_count(flag: &AtomicBool) -> bool {
    flag.load(Ordering::Relaxed) // borg-lint: relaxed-ok() //~ BORG-L011
}

// The fixture's spoofed path is also in BORG-L012 scope (protocol rule):
// a public engine entry point must reject adversarial input, not panic.
pub fn dispatch_nth(events: &[Event], idx: usize) -> Event {
    if idx >= events.len() {
        unreachable!("caller promised a valid index"); //~ BORG-L012
    }
    events[idx] //~ BORG-L012
}

// The fixture's spoofed path is also in BORG-L013 scope (wire rule):
// socket I/O propagates its errors and every blocking read keeps a
// deadline. A consuming unwrap on a socket path is both a generic
// library unwrap (L001) and a wire-contract violation (L013).
fn swallow_wire_errors(stream: &mut TcpStream, buf: &mut [u8]) {
    stream.read_exact(buf).unwrap(); //~ BORG-L001 BORG-L013
    stream.write_all(buf).expect("wire"); //~ BORG-L001 BORG-L013
}

fn dial_without_deadline(addr: &str) -> std::io::Result<TcpStream> {
    TcpStream::connect(addr) //~ BORG-L013
}

fn accept_without_deadline(listener: &TcpListener) -> std::io::Result<TcpStream> {
    let (stream, _peer) = listener.accept()?; //~ BORG-L013
    Ok(stream)
}

fn drop_the_read_deadline(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(None) //~ BORG-L013
}

// The master writes dispatches while holding its state lock: a peer that
// stops draining must fail the write, not stall the run.
fn dial_with_unbounded_writes(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?; //~ BORG-L013
    stream.set_read_timeout(Some(read_timeout))?;
    Ok(stream)
}

fn drop_the_write_deadline(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_write_timeout(None) //~ BORG-L013
}

// BORG-L014: recorder metric names are 'static lowercase dotted literals.
fn dynamic_metric_names(rec: &dyn Recorder, worker: usize) {
    rec.counter(&format!("net.worker{worker}.frames"), 1); //~ BORG-L014
    rec.observe(&format!("rtt_{worker}"), 0.5); //~ BORG-L014
    rec.gauge("engine.Outstanding", 3.0); //~ BORG-L014
    rec.flight("net.worker-death", 0.0, 0, 0, 0.0); //~ BORG-L014
}

// BORG-L015: no per-call allocation inside hot-path-marked functions.
// borg-lint: hot-path
fn allocating_hot_path(parents: &[&[f64]], out: &mut Vec<f64>) -> Vec<f64> {
    let cloned = parents[0].to_vec(); //~ BORG-L015
    let gathered: Vec<f64> = parents.iter().map(|p| p[0]).collect(); //~ BORG-L015
    let mut scratch = Vec::new(); //~ BORG-L015
    scratch.extend_from_slice(&cloned);
    out.extend_from_slice(&gathered);
    scratch
}

// --- escapes that must NOT be reported ---------------------------------

// Unmarked functions may allocate freely (BORG-L015 is opt-in)...
fn unmarked_may_allocate(parents: &[&[f64]]) -> Vec<f64> {
    parents[0].to_vec()
}

// ...and a justified allocation inside a marked fn carries the escape.
// borg-lint: hot-path
fn hot_path_with_justified_allocation(xs: &[f64], out: &mut Vec<f64>) {
    // Cold error arm: only reached once per run.
    // borg-lint: allow(BORG-L015)
    let snapshot = xs.to_vec();
    out.clear();
    out.extend_from_slice(&snapshot);
}

// Catalogue consts, helper-resolved names, literal lowercase dotted
// names, and value-first histogram sinks all satisfy BORG-L014.
fn well_formed_metric_names(rec: &dyn Recorder, hist: &mut Histogram, e: &Event) {
    rec.counter(metrics::FRAMES_SENT, 1);
    rec.counter(event_metric(e), 1);
    rec.observe("engine.deadline_slack_seconds", 0.25);
    rec.gauge("t_a_seconds", 0.0001);
    hist.observe(0.25);
}

fn allowlisted() -> u32 {
    let fine = Some(1).unwrap(); // borg-lint: allow(BORG-L001)
    // borg-lint: allow(BORG-L001)
    let also_fine = Some(2).unwrap();
    fine + also_fine
}

fn unrelated_comma_argument(sol: &Solution, a: u32, b: u32) {
    // `==` in a different argument than the objectives() call.
    record(sol.objectives(), a == b);
}

fn bounded_waits_are_fine(rx: &Receiver<u64>, stop_rx: &Receiver<()>) {
    // Different identifiers — not unbounded recv().
    let _ = rx.recv_timeout(Duration::from_millis(10));
    let _ = rx.try_recv();
    // A deliberate disconnect-released park carries the allowlist escape.
    let _ = stop_rx.recv(); // borg-lint: allow(BORG-L006)
}

fn quiet_library(w: &mut impl Write, log: &InMemoryRecorder) {
    // Writing to a caller-supplied sink is not terminal output.
    writeln!(w, "row").ok();
    // The facade is the sanctioned reporting channel.
    log.counter("engine.reissues", 1);
    // A deliberate terminal write carries the allowlist escape.
    println!("blessed"); // borg-lint: allow(BORG-L008)
}

fn structured_scopes_are_fine(scope: &Scope) {
    // `scope.spawn` is a structured pool handle (borg-runner's internals),
    // not a raw thread spawn.
    scope.spawn(|| work());
    // A deliberate raw spawn carries the allowlist escape.
    let h = std::thread::spawn(run); // borg-lint: allow(BORG-L009)
}

fn benign_collections_and_counts(proto: &MasterEngine) {
    // A collection bound to a non-protocol name is not recovery state.
    let candidates: HashMap<u64, Candidate> = HashMap::new();
    // A protocol name holding a plain count is fine — only keyed
    // maps/sets/queues of eval-ids re-create the engine's job.
    let in_flight: usize = proto.outstanding_len();
    // A name in an unrelated argument is not matched across a comma.
    record_state(outstanding, HashMap::new());
    // A deliberate local mirror carries the allowlist escape.
    let seen_ids: HashSet<u64> = HashSet::new(); // borg-lint: allow(BORG-L007)
}

fn ordered_and_lookup_only(totals: &BTreeMap<u64, u64>) -> u64 {
    // BTreeMap iterates in key order — deterministic, silent.
    let mut sum = 0;
    for (_, v) in totals {
        sum += v;
    }
    // Point lookups into a hash map never observe iteration order.
    let lookup_cache: HashMap<u64, u64> = HashMap::new();
    sum + lookup_cache.get(&7).copied().unwrap_or(0)
}

// A proven order-insensitive fold carries an item-wide allow: the
// directive above the header suppresses every hit in the item's body.
// borg-lint: allow(BORG-L010)
fn order_insensitive_sum(counts: &HashMap<u64, u64>) -> u64 {
    let mut sum = 0;
    for v in counts.values() {
        sum += v;
    }
    sum + counts.keys().count() as u64
}

fn relaxed_with_reasons(flag: &AtomicBool, events_seen: &AtomicU64) {
    // borg-lint: relaxed-ok(standalone counter; nothing else is ordered by it)
    events_seen.fetch_add(1, Ordering::Relaxed);
    flag.store(true, Ordering::Relaxed); // borg-lint: relaxed-ok(advisory flag only)
}

// Non-pub helpers may index behind validated invariants (BORG-L012 scopes
// to pub fn bodies), and `.get()` is the sanctioned form everywhere.
fn private_index(events: &[Event], idx: usize) -> &Event {
    &events[idx]
}

pub fn checked_lookup(events: &[Event], idx: usize) -> Option<&Event> {
    events.get(idx)
}

// A bounds check at entry plus an item-wide allow covers a hot path.
// borg-lint: allow(BORG-L012)
pub fn hot_path_pair(table: &[u64], i: usize, j: usize) -> u64 {
    table[i] ^ table[j]
}

// BORG-L013 escapes: an acquisition whose body installs both deadlines
// is the sanctioned shape, and the workspace accept wrapper carries the
// read timeout as an argument (it installs both before returning).
fn guarded_dial(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_write_timeout(Some(write_timeout))?;
    Ok(stream)
}

fn accept_through_guarded_wrapper(listener: &NetListener) -> Result<(), NetError> {
    let _stream = listener.accept(read_timeout)?;
    Ok(())
}

// A deliberate fire-and-forget liveness probe carries the escape.
fn deliberate_unguarded_probe(addr: &str) -> bool {
    TcpStream::connect(addr).is_ok() // borg-lint: allow(BORG-L013)
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let v = Some(5).unwrap();
        assert!(v == 5);
    }

    #[test]
    fn tests_may_build_expectation_tables() {
        // Test regions are exempt from BORG-L007.
        let deadlines: HashSet<u64> = HashSet::new();
        assert!(deadlines.is_empty());
    }

    #[test]
    fn tests_may_print_debug_output() {
        // Test regions are exempt from BORG-L008.
        println!("debugging a failure");
    }

    #[test]
    fn tests_may_spawn_raw_threads() {
        // Test regions are exempt from BORG-L009.
        let handle = std::thread::spawn(|| 42);
        assert!(handle.join().is_ok());
    }

    #[test]
    fn tests_may_iterate_hash_maps_and_relax_atomics() {
        // Test regions are exempt from BORG-L010 and BORG-L011.
        let scratch: HashMap<u64, u64> = HashMap::new();
        let n = scratch.keys().count();
        let seen = FLAG.load(Ordering::Relaxed);
        assert!(n == 0 && !seen);
    }
}

#[test]
fn bare_test_fn_is_also_exempt() {
    let v: Result<u32, ()> = Ok(1);
    v.unwrap();
}
