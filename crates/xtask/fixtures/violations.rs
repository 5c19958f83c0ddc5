//! Lint self-test fixture: every `//~ BORG-Lxxx` marker names a violation
//! `cargo xtask check --self-test` must report on that line, and every
//! unmarked escape hatch below must stay silent. Every rule `check` runs
//! has at least one marker. The file is never compiled or scanned by a
//! normal `check` run (fixtures are excluded from discovery); every
//! path-scoped rule admits its path, so all of them are live here.

fn objective_equality_marked(sol: &Solution, best: f64) -> bool {
    sol.objectives()[0] == best //~ BORG-L005
}

fn objective_inequality_marked(sol: &Solution, best: f64) -> bool {
    best != sol.objectives()[1] //~ BORG-L005
}

// The fixture's path is in BORG-L007 scope (executor rule):
// recovery bookkeeping belongs to borg_protocol::MasterEngine, not here.
struct ShadowMaster {
    in_flight: HashMap<u64, ReissueRecord>, //~ BORG-L007
    completed_ids: HashSet<u64>, //~ BORG-L007
}

fn shadow_recovery_state() {
    let mut deadlines: BTreeMap<u64, f64> = BTreeMap::new(); //~ BORG-L007
    let mut reissue_queue: VecDeque<u64> = VecDeque::new(); //~ BORG-L007
}

// The fixture's path is in BORG-L010 scope (determinism rule):
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

// The fixture's path is in BORG-L012 scope (protocol rule):
// a public engine entry point must reject adversarial input, not panic.
pub fn dispatch_nth(events: &[Event], idx: usize) -> Event {
    if idx >= events.len() {
        unreachable!("caller promised a valid index"); //~ BORG-L012
    }
    events[idx] //~ BORG-L012
}

// The fixture's path is in BORG-L013 scope (wire rule): every blocking
// acquisition keeps a read and a write deadline.
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

fn allowlisted(sol: &Solution, best: f64) -> bool {
    let same_line = sol.objectives()[0] == best; // borg-lint: allow(BORG-L005)
    // borg-lint: allow(BORG-L005)
    let line_above = sol.objectives()[1] == best;
    same_line && line_above
}

fn unrelated_comma_argument(sol: &Solution, a: u32, b: u32) {
    // `==` in a different argument than the objectives() call.
    record(sol.objectives(), a == b);
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
    fn tests_may_compare_objectives_exactly() {
        // Test regions are exempt from BORG-L005.
        assert!(sol.objectives()[0] == 0.5);
    }

    #[test]
    fn tests_may_build_expectation_tables() {
        // Test regions are exempt from BORG-L007.
        let deadlines: HashSet<u64> = HashSet::new();
        assert!(deadlines.is_empty());
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
    assert!(!FLAG.load(Ordering::Relaxed));
}
