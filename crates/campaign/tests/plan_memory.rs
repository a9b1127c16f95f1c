//! Memory shape of an expanded plan: a run's client, resolver and netem
//! labels are shared [`RunLabel`]s, so expansion allocates per distinct
//! label rather than per run, cloning a plan allocates only its vector,
//! and a run still prints exactly as it did when the labels were owned
//! `String`s.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};

use lazyeye_campaign::{
    expand, run_campaign_resumable, CampaignSpec, NetemSpec, RunKind, RunLabel, RunSpec,
};

/// Forwards to [`System`] and counts allocation calls per thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's obligations under `GlobalAlloc` are exactly `System`'s;
// the counter is a const-initialised thread local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The default spec under two conditions, every block at `reps`
/// repetitions.
fn spec(reps: u32) -> CampaignSpec {
    let mut spec = CampaignSpec::default();
    spec.netem.push(NetemSpec {
        label: "jittery".into(),
        loss_pct: 0.0,
        jitter_ms: 3,
        duplicate_pct: 0.0,
    });
    spec.cad.as_mut().unwrap().repetitions = reps;
    spec.rd.as_mut().unwrap().repetitions = reps;
    spec.selection.as_mut().unwrap().repetitions = reps;
    spec.resolver.as_mut().unwrap().repetitions = reps;
    spec
}

/// Every label of a run: its subject, then its netem label.
fn labels(kind: &RunKind) -> [&RunLabel; 2] {
    match kind {
        RunKind::Cad { client, netem, .. }
        | RunKind::Rd { client, netem, .. }
        | RunKind::Selection { client, netem, .. } => [client, netem],
        RunKind::Resolver {
            resolver, netem, ..
        } => [resolver, netem],
    }
}

#[test]
fn expand_allocates_per_label_not_per_run() {
    let (one, allocs1) = counted(|| expand(&spec(1)).unwrap());
    let (four, allocs4) = counted(|| expand(&spec(4)).unwrap());
    assert!(four.len() > 3 * one.len());
    // Four times the runs over the same labels costs only the run
    // vector's regrowths: at most one per doubling.
    let doublings = u64::from(four.len().ilog2() - one.len().ilog2()) + 1;
    assert!(
        allocs4.saturating_sub(allocs1) <= doublings,
        "expand made {allocs1} allocations for {} runs and {allocs4} for {}",
        one.len(),
        four.len()
    );
}

#[test]
#[cfg(target_pointer_width = "64")]
fn a_run_is_72_bytes() {
    // Two owned `String`s made it 88, each with a heap copy of its text.
    assert_eq!(std::mem::size_of::<RunSpec>(), 72);
}

#[test]
fn cloning_a_plan_allocates_once() {
    let runs = expand(&spec(2)).unwrap();
    let (copy, allocs) = counted(|| runs.clone());
    assert_eq!(copy, runs);
    assert_eq!(allocs, 1, "cloning {} runs", runs.len());
    let (_, allocs) = counted(|| drop(copy));
    assert_eq!(allocs, 0);
}

#[test]
fn runs_share_one_allocation_per_label_across_both_passes() {
    let spec = spec(1);
    let (runs, _) =
        run_campaign_resumable(&spec, 1, &BTreeMap::new(), |_, _| {}, |_, _| {}).unwrap();
    assert!(
        runs.iter().any(|r| r.refined),
        "the spec must schedule refinement runs"
    );
    let mut homes: HashMap<&str, *const u8> = HashMap::new();
    for run in &runs {
        for label in labels(&run.kind) {
            let home = *homes.entry(label).or_insert(label.as_ptr());
            assert_eq!(
                home,
                label.as_ptr(),
                "run {} (refined: {}) has its own copy of {label:?}",
                run.index,
                run.refined
            );
        }
    }
    let distinct = spec.clients.len() + lazyeye_resolver::all_profiles().len() + spec.netem.len();
    assert_eq!(homes.len(), distinct, "{:?}", homes.keys());
}

/// The plan's types as they were when every label was an owned
/// `String`: same names, same fields, derived `Debug`.
mod string_era {
    use lazyeye_testbed::DelayedRecord;

    #[allow(dead_code)] // read only through `Debug`
    #[derive(Debug)]
    pub enum RunKind {
        Cad {
            client: String,
            netem: String,
            delay_ms: u64,
            rep: u32,
        },
        Rd {
            client: String,
            netem: String,
            record: DelayedRecord,
            delay_ms: u64,
            rep: u32,
        },
        Selection {
            client: String,
            netem: String,
            rep: u32,
        },
        Resolver {
            resolver: String,
            netem: String,
            delay_ms: u64,
            rep: u32,
        },
    }

    #[allow(dead_code)] // read only through `Debug`
    #[derive(Debug)]
    pub struct RunSpec {
        pub index: u64,
        pub seed: u64,
        pub kind: RunKind,
        pub refined: bool,
    }
}

fn string_era(run: &RunSpec) -> string_era::RunSpec {
    use string_era::RunKind as Old;
    let kind = match &run.kind {
        RunKind::Cad {
            client,
            netem,
            delay_ms,
            rep,
        } => Old::Cad {
            client: client.to_string(),
            netem: netem.to_string(),
            delay_ms: *delay_ms,
            rep: *rep,
        },
        RunKind::Rd {
            client,
            netem,
            record,
            delay_ms,
            rep,
        } => Old::Rd {
            client: client.to_string(),
            netem: netem.to_string(),
            record: *record,
            delay_ms: *delay_ms,
            rep: *rep,
        },
        RunKind::Selection { client, netem, rep } => Old::Selection {
            client: client.to_string(),
            netem: netem.to_string(),
            rep: *rep,
        },
        RunKind::Resolver {
            resolver,
            netem,
            delay_ms,
            rep,
        } => Old::Resolver {
            resolver: resolver.to_string(),
            netem: netem.to_string(),
            delay_ms: *delay_ms,
            rep: *rep,
        },
    };
    string_era::RunSpec {
        index: run.index,
        seed: run.seed,
        kind,
        refined: run.refined,
    }
}

#[test]
fn runs_print_as_they_did_with_string_labels() {
    let runs = expand(&spec(1)).unwrap();
    for run in &runs {
        let old = string_era(run);
        assert_eq!(format!("{run:?}"), format!("{old:?}"));
        assert_eq!(format!("{run:#?}"), format!("{old:#?}"));
        assert_eq!(format!("{:?}", run.kind), format!("{:?}", old.kind));
    }
    let [client, netem] = labels(&runs[0].kind);
    assert_eq!(format!("{client}|{netem:>10}|"), "chrome-130.0|  baseline|");
}
