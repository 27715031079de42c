//! The repository benchmark.
//!
//! ```text
//! perfbench --workload failover|table_load|mrt_replay --seed N \
//!     --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` repeats untraced iterations of the workload for `S`
//! seconds and reports the end-to-end metrics (medians over the
//! iterations). `--trace 1` reports the per-layer metrics: one
//! allocation-counted iteration, then traced and untraced iterations
//! interleaved for `S` seconds, plus call timings into each layer on
//! the workload's own inputs. Every iteration's outputs are checked;
//! the last line of standard output is the JSON result. See
//! `perfbench/README.md` for the metric glossary.

mod alloc;
mod failover;
mod layers;
mod mrt_replay;
mod report;
mod table_load;
mod workload;

use alloc::Allocs;
use report::{median, result_line, value_of, END_TO_END, PER_LAYER};
use std::time::{Duration, Instant};
use workload::{Outcome, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Untraced iterations a run makes at least, however long they take.
const MIN_ITERATIONS: usize = 3;
/// Traced/untraced pairs a traced run makes at least.
const MIN_PAIRS: usize = 2;

const USAGE: &str = "usage: perfbench --workload failover|table_load|mrt_replay \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == key)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let bad = |key: &str| format!("bad value for {key}");
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| bad("--seconds"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(bad("--seconds"));
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|_| bad("--seed"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err(bad("--trace")),
        },
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let line = match args.workload.as_str() {
        "failover" => drive(failover::Failover::new(args.seed), &args),
        "table_load" => drive(table_load::TableLoad::new(args.seed), &args),
        "mrt_replay" => drive(mrt_replay::MrtReplay::new(args.seed), &args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("{line}");
}

/// One iteration: timed set-up and run, then the (untimed) check.
struct Iteration {
    setup: Duration,
    run: Duration,
    outcome: Outcome,
    allocs: [Allocs; 2],
}

/// Run `f`, timing it and, with `count`, counting its allocations.
fn measure<R>(count: bool, f: impl FnOnce() -> R) -> (R, Duration, Allocs) {
    let timed = || {
        let t0 = Instant::now();
        let r = f();
        (r, t0.elapsed())
    };
    if count {
        let ((r, d), a) = alloc::counted(timed);
        (r, d, a)
    } else {
        let (r, d) = timed();
        (r, d, Allocs::default())
    }
}

fn iterate<W: Workload>(w: &mut W, traced: bool, first_traced: bool, count: bool) -> Iteration {
    let (mut built, setup, a_setup) = measure(count, || w.setup(traced));
    let ((), run, a_run) = measure(count, || w.run(&mut built));
    Iteration {
        setup,
        run,
        outcome: w.check(built, traced, first_traced),
        allocs: [a_setup, a_run],
    }
}

/// Attempts, failures and the determinism check across iterations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    correct: bool,
    iterations: usize,
    reference: Option<Vec<(&'static str, u64)>>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            correct: true,
            ..Tally::default()
        }
    }

    /// Fold one iteration in; true when its outputs passed every check.
    fn absorb(&mut self, it: &mut Iteration) -> bool {
        self.iterations += 1;
        let o = &mut it.outcome;
        match &self.reference {
            None => self.reference = Some(o.fingerprint.clone()),
            Some(r) if *r != o.fingerprint => o.problems.push(format!(
                "deterministic counts differ between iterations: {r:?} vs {:?}",
                o.fingerprint
            )),
            Some(_) => {}
        }
        self.attempted += o.attempted;
        if o.problems.is_empty() {
            self.failed += o.failed;
            true
        } else {
            for p in &o.problems {
                eprintln!("perfbench: check failed: {p}");
            }
            self.correct = false;
            self.failed += o.attempted;
            false
        }
    }
}

fn drive<W: Workload>(mut w: W, args: &Args) -> String {
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut tally = Tally::new();
    if !args.trace {
        let (mut setups, mut runs) = (Vec::new(), Vec::new());
        while tally.iterations < MIN_ITERATIONS || start.elapsed() < budget {
            let mut it = iterate(&mut w, false, false, false);
            if tally.absorb(&mut it) {
                setups.push(it.setup.as_secs_f64());
                runs.push(it.run.as_secs_f64());
            }
        }
        let mut values = vec![
            ("peak_rss_mb", report::peak_rss_mb()),
            (
                "success_ratio",
                1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
            ),
        ];
        // A failed iteration reports no timing.
        if !runs.is_empty() {
            values.push(("setup_s", median(&setups)));
            values.push(("run_s", median(&runs)));
        }
        println!(
            "{} seed {}: {} iterations; set-up s {setups:.4?}; run s {runs:.4?}; counts {:?}",
            args.workload,
            args.seed,
            tally.iterations,
            tally.reference.as_deref().unwrap_or_default(),
        );
        let correct = tally.correct && !runs.is_empty();
        return result_line(correct, tally.attempted, tally.failed, END_TO_END, &values);
    }

    // Traced: one allocation-counted iteration first (the first of the
    // process, so its counts repeat exactly), then interleaved pairs.
    let mut first = iterate(&mut w, false, false, true);
    tally.absorb(&mut first);
    let [a_setup, a_run] = first.allocs;
    let (mut plain, mut traced, mut dispatch) = (Vec::new(), Vec::new(), Vec::new());
    let mut layer: Option<Outcome> = None;
    while traced.len() < MIN_PAIRS || start.elapsed() < budget {
        let mut t = iterate(&mut w, true, layer.is_none(), false);
        if tally.absorb(&mut t) {
            traced.push(t.run.as_secs_f64());
        }
        if layer.is_none() {
            layer = Some(t.outcome);
        }
        let mut u = iterate(&mut w, false, false, false);
        if tally.absorb(&mut u) {
            plain.push(u.run.as_secs_f64());
        }
        // Host speed drifts over seconds: probing the kernel once per
        // pair gives its cost the same mix of fast and slow stretches
        // as the run times it is compared with.
        dispatch.push(layers::dispatch_ns());
        if tally.iterations > 64 && (traced.is_empty() || plain.is_empty()) {
            break; // every iteration fails its checks
        }
    }
    let layer = layer.expect("one traced iteration ran");
    let mut values = layer.layer.clone();
    let v = |name: &str| value_of(&layer.layer, name);
    values.extend([
        ("alloc.setup_count", a_setup.count as f64),
        ("alloc.setup_bytes", a_setup.bytes as f64),
        ("alloc.run_count", a_run.count as f64),
        ("alloc.run_bytes", a_run.bytes as f64),
    ]);
    let hits = v("flowcache.hits");
    let lookups = hits + v("flowcache.misses");
    if lookups > 0.0 {
        values.push(("flowcache.hit_ratio", hits / lookups));
    }
    let dispatch = median(&dispatch);
    values.push(("sim.dispatch_ns", dispatch));
    if !plain.is_empty() && !traced.is_empty() {
        let run_ns = median(&plain) * 1e9;
        values.push(("sim.ns_per_event", run_ns / v("sim.events").max(1.0)));
        values.push((
            "trace.overhead_pct",
            (median(&traced) / median(&plain) - 1.0) * 100.0,
        ));
        // The ledger: operation counts of the traced iteration times
        // the per-operation cost of the call timings, over wall time.
        let attributed = v("sim.events") * dispatch
            + v("flowcache.misses") * v("trie.lookup_ns")
            + v("fib.ops_applied") * v("trie.insert_ns")
            + v("n.of_lookups") * v("of.lookup_ns")
            + v("bgp.updates_in") * v("bgp.decode_ns")
            + v("bgp.updates_out") * v("bgp.encode_ns")
            + v("router.updates_processed") * v("rib.update_ns")
            + v("n.ctl_updates") * v("n.ctl_update_ns")
            + v("n.inv_samples") * v("n.inv_walk_ns");
        values.push(("ledger.attributed_pct", attributed / run_ns * 100.0));
    }
    print_layers(&args.workload, &values, plain.len(), traced.len());
    let correct = tally.correct && !plain.is_empty() && !traced.is_empty();
    result_line(correct, tally.attempted, tally.failed, PER_LAYER, &values)
}

fn print_layers(workload: &str, values: &[(&str, f64)], plain: usize, traced: usize) {
    println!("{workload}: {plain} untraced and {traced} traced iterations");
    let get = |n: &str| value_of(values, n);
    for (name, unit) in PER_LAYER {
        println!("  {name:<28} {:>16.3} {unit}", get(name));
    }
    if get("ctl.update_max_us") > 0.0 {
        println!(
            "  controller per-UPDATE latency (paper §4, Python): p50 {:.1} us, \
             p99 {:.1} us (paper 125 ms), max {:.1} us (paper 0.8 s)",
            get("ctl.update_p50_us"),
            get("ctl.update_p99_us"),
            get("ctl.update_max_us"),
        );
    }
}
