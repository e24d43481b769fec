//! `crossover_probe` — measures the central-mode batched-vs-scalar
//! routing crossover that calibrates each packed harness's
//! `central_batch_max_n` gate.
//!
//! For each ring size it times, per lane-step (one daemon-served move),
//! the scalar engine (64 independent replicas), the batched
//! lane-divergent engine with the transposed incremental enabled-bitset,
//! and the dense-sweep reference engine (the pre-bitset refresh
//! strategy). The batched path wins while its per-pass cost — selection
//! scans plus the touched-neighborhood refresh — amortized over 64 lanes
//! stays under one scalar step; the printed table is the evidence for
//! the gate value, and `bench_results/crossover_central.txt` archives a
//! run.

use rand::SeedableRng;
use specstab_kernel::batch::{run_batch, run_batch_with_dense_sweep, BatchDaemon};
use specstab_kernel::daemon::{CentralDaemon, CentralStrategy, Daemon};
use specstab_kernel::engine::{RunLimits, Simulator, StepScratch};
use specstab_kernel::protocol::random_configuration;
use specstab_protocols::DijkstraThreeState;
use specstab_topology::generators;
use std::time::Instant;

const K: usize = 64;
const STEPS: usize = 1_000;

/// Times `f` over `reps` repetitions and returns ns per lane-step.
fn time_per_lane_step(reps: usize, mut f: impl FnMut()) -> f64 {
    // One warmup rep, then the median of the timed reps.
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e9 / (K * STEPS) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn scalar_daemon(mode: BatchDaemon, seed: u64) -> Box<dyn Daemon<u8>> {
    match mode {
        BatchDaemon::CentralRr => Box::new(CentralDaemon::new(CentralStrategy::RoundRobin)),
        BatchDaemon::CentralRand => Box::new(CentralDaemon::new(CentralStrategy::Random(seed))),
        _ => unreachable!("probe covers the central modes"),
    }
}

fn probe(mode: BatchDaemon, label: &str) {
    println!("daemon {label}: ns per lane-step (K = {K}, {STEPS} steps/lane, dijkstra3 ring)");
    println!("{:>6} {:>10} {:>10} {:>10}  verdict", "n", "scalar", "batched", "dense-ref");
    for n in [16usize, 32, 48, 64, 96, 128, 160, 192, 256] {
        let g = generators::ring(n).expect("valid ring");
        let proto = DijkstraThreeState::new(&g).expect("ring graph");
        let inits: Vec<_> = (0..K)
            .map(|l| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(11 + l as u64);
                random_configuration(&g, &proto, &mut rng)
            })
            .collect();
        let seeds: Vec<u64> = (0..K as u64).map(|l| 0xBEEF + l).collect();
        let seeds_arg: &[u64] = if mode.needs_lane_seeds() { &seeds } else { &[] };

        let scalar = time_per_lane_step(5, || {
            let sim = Simulator::new(&g, &proto);
            let mut scratch = StepScratch::new();
            for (l, init) in inits.iter().enumerate() {
                let mut d = scalar_daemon(mode, seeds[l]);
                let r = sim.run_with_scratch(
                    init.clone(),
                    d.as_mut(),
                    RunLimits::with_max_steps(STEPS),
                    &mut [],
                    &mut scratch,
                );
                std::hint::black_box(r.moves);
            }
        });
        let batched = time_per_lane_step(5, || {
            let inits = inits.clone();
            std::hint::black_box(run_batch(&g, &proto, mode, seeds_arg, inits, STEPS, None).len());
        });
        let dense = time_per_lane_step(5, || {
            let inits = inits.clone();
            std::hint::black_box(
                run_batch_with_dense_sweep(&g, &proto, mode, seeds_arg, inits, STEPS, None).len(),
            );
        });
        let verdict = if batched < scalar { "batched wins" } else { "scalar wins" };
        println!("{n:>6} {scalar:>10.1} {batched:>10.1} {dense:>10.1}  {verdict}");
    }
    println!();
}

fn main() {
    probe(BatchDaemon::CentralRr, "central-rr");
    probe(BatchDaemon::CentralRand, "central-rand");
}
