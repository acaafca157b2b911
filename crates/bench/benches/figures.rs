//! Micro-bench wrappers over the figure pipelines, so `cargo bench`
//! exercises every evaluation path end to end (short windows; the real
//! numbers come from the `figNN` binaries and are recorded in
//! EXPERIMENTS.md). Uses the in-tree [`f4t_bench::micro`] harness.

use f4t_baseline::StallingEngine;
use f4t_bench::micro::bench;
use f4t_core::EngineConfig;
use f4t_netsim::{EveryNth, Impairments, LinkConfig, RefAlgo, Simulation, SimulationConfig};
use f4t_system::F4tSystem;
use std::hint::black_box;

fn small_engine() -> EngineConfig {
    EngineConfig { num_fpcs: 2, flows_per_fpc: 64, lut_groups: 2, ..EngineConfig::reference() }
}

fn bench_fig8_bulk() {
    for cores in [1usize, 2] {
        bench(&format!("fig08/bulk_128B/cores/{cores}"), || {
            let mut sys = F4tSystem::bulk(cores, 128, small_engine());
            sys.run_ns(100_000);
            black_box(sys.b.consumed_bytes())
        });
    }
}

fn bench_fig13_echo() {
    for flows in [16usize, 256] {
        bench(&format!("fig13/echo_128B/flows/{flows}"), || {
            let mut sys = F4tSystem::echo(2, flows, 128, small_engine());
            sys.run_ns(150_000);
            black_box(sys.a.requests())
        });
    }
}

fn bench_fig14_netsim() {
    for algo in [RefAlgo::NewReno, RefAlgo::Cubic] {
        bench(&format!("fig14/ns3_reference/algo/{algo}"), || {
            let sim = Simulation::new(SimulationConfig {
                algo,
                link: LinkConfig {
                    impair: Impairments {
                        every_nth: Some(EveryNth { n: 1_000, start: 500 }),
                        ..Impairments::none()
                    },
                    ..LinkConfig::default()
                },
                duration_ns: 50_000_000,
                sample_ns: 1_000_000,
                ..SimulationConfig::default()
            });
            black_box(sim.run().delivered)
        });
    }
}

fn bench_fig15_baseline() {
    bench("fig15/stalling_baseline_1ms", || {
        let mut e = StallingEngine::baseline_250mhz();
        for _ in 0..250_000 {
            e.offer_event();
            e.tick();
        }
        black_box(e.processed())
    });
}

fn main() {
    bench_fig8_bulk();
    bench_fig13_echo();
    bench_fig14_netsim();
    bench_fig15_baseline();
}
