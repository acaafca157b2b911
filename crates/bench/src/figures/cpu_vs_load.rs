//! Extension experiment: host CPU usage vs offered load, with and without
//! §4.6's sleep-after-poll.
//!
//! "To save CPU cycles when F4T is waiting for the network's response,
//! the library can go to sleep after polling for a certain amount of time
//! (e.g., 10 µs). Then, F4T runtime signals and thus wakes the sleeping
//! thread... F4T software does not consume CPU cycles when there are no
//! requests." The paper states this without a figure; this harness
//! measures it: an echo client core at increasing flow counts (closed
//! loop, so flows ≈ offered load), with busy-polling vs sleep-after-poll.

use crate::{banner, f, Table, Windows};
use f4t_core::EngineConfig;
use f4t_system::F4tSystem;

/// CPU cycles a core receives per measurement window.
fn core_budget_cycles(window_ns: u64) -> f64 {
    window_ns as f64 * 2.3
}

pub fn report(w: Windows) -> String {
    let mut out = banner("CPU vs load", "host CPU usage under sleep-after-poll (§4.6)", w);
    let warm = w.scale_ns(1_000_000);
    let window = w.scale_ns(4_000_000);

    // One flow, open-loop paced pings: the inter-request gap is the
    // offered load knob. Blocking waits longer than the ~10 µs spin
    // budget are where sleep-after-poll pays.
    let mut t = Table::new(&["ping interval", "krps", "busy-poll CPU %", "sleep-after-poll CPU %"]);
    for pace_us in [0u64, 20, 50, 200, 1_000] {
        let label = if pace_us == 0 { "closed loop".into() } else { format!("{pace_us} µs") };
        let mut row = vec![label];
        let mut rates = Vec::new();
        for sleep in [false, true] {
            let mut sys =
                F4tSystem::echo_paced(1, 1, 128, pace_us * 1_000, EngineConfig::reference());
            sys.a.set_sleep_after_poll(sleep);
            sys.b.set_sleep_after_poll(sleep);
            let m = sys.measure(warm, window);
            rates.push(m.requests as f64 * 1e6 / window as f64);
            let busy = (m.cpu.app + m.cpu.tcp + m.cpu.kernel + m.cpu.lib) as f64;
            let pct = busy * 100.0 / core_budget_cycles(window);
            row.push(f(pct.min(100.0), 1));
        }
        // The two modes must deliver the same request rate (sleeping must
        // not cost throughput); report it once.
        assert!((rates[0] - rates[1]).abs() <= (rates[0] * 0.1).max(2.0), "{rates:?}");
        row.insert(1, f(rates[1], 0));
        t.row(&row);
    }
    out += &t.render();
    out += "\n\
            With busy polling, an idle-ish thread burns its core scanning the\n\
            completion queue; with sleep-after-poll, CPU usage tracks offered\n\
            load (\"does not consume CPU cycles when there are no requests\").\n";
    out
}
