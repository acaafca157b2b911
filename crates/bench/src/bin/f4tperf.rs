//! `f4tperf` — an iperf-style CLI for the simulated testbed.
//!
//! Run any of the paper's workloads at any design point without writing
//! code:
//!
//! ```sh
//! cargo run --release -p f4t-bench --bin f4tperf -- \
//!     --workload bulk --cores 2 --size 128 --duration-ms 2
//! cargo run --release -p f4t-bench --bin f4tperf -- \
//!     --workload echo --cores 8 --flows 4096 --dram ddr4
//! cargo run --release -p f4t-bench --bin f4tperf -- --help
//! ```

use f4t_core::{fold_digests, Engine, EngineConfig};
use f4t_mem::{DramKind, Location};
use f4t_netsim::Impairments;
use f4t_sim::{json, MetricsRegistry};
use f4t_system::{F4tSystem, ScaleShard};
use f4t_tcp::FlowId;
use f4t_workloads::{INCAST_EPOCH_NS, SLOWLORIS_DRIP_BYTES};

/// Process exit codes (also in `--help`): `0` success, `1` FtVerify
/// design-rule violations, `2` usage or I/O error, `3` perf-gate
/// regression (`--gate`). Regressions get their own code so CI can
/// distinguish "the design broke a rule" from "the design got slower".
const EXIT_VIOLATIONS: i32 = 1;
const EXIT_USAGE: i32 = 2;
const EXIT_PERF_REGRESSION: i32 = 3;

#[derive(Debug)]
struct Args {
    workload: String,
    cores: usize,
    size: u32,
    flows: usize,
    threads: usize,
    dram: DramKind,
    warmup_ms: u64,
    duration_ms: u64,
    telemetry: Option<String>,
    telemetry_format: TelemetryFormat,
    trace_depth: usize,
    check: bool,
    fast_forward: bool,
    inject_fault: Option<String>,
    flight: bool,
    flight_sample: u32,
    breakdown_json: Option<String>,
    gate: Option<String>,
    inject_slowdown: u64,
    inject_slowdown_after: Option<u64>,
    pulse: bool,
    pulse_interval: u64,
    pulse_json: Option<String>,
    pulse_gate: Option<String>,
    pcap: Option<String>,
    journal: bool,
    journal_sample: u32,
    watchdog: bool,
    dump_on_failure: Option<String>,
    impair: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TelemetryFormat {
    Json,
    Prometheus,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            workload: "bulk".into(),
            cores: 1,
            size: 128,
            flows: 0, // workload default
            threads: 1,
            dram: DramKind::Hbm,
            warmup_ms: 1,
            duration_ms: 2,
            telemetry: None,
            telemetry_format: TelemetryFormat::Json,
            trace_depth: 65_536,
            check: false,
            fast_forward: true,
            inject_fault: None,
            flight: false,
            flight_sample: 64,
            breakdown_json: None,
            gate: None,
            inject_slowdown: 0,
            inject_slowdown_after: None,
            pulse: false,
            pulse_interval: f4t_sim::pulse::PULSE_DEFAULT_INTERVAL,
            pulse_json: None,
            pulse_gate: None,
            pcap: None,
            journal: false,
            journal_sample: 64,
            watchdog: false,
            dump_on_failure: None,
            impair: "clean".into(),
        }
    }
}

impl Args {
    /// Whether the FtFlight recorder must be attached: requested
    /// directly, or implied by an output/gate that needs its data.
    fn flight_enabled(&self) -> bool {
        self.flight
            || self.breakdown_json.is_some()
            || self.gate.is_some()
            || self.inject_slowdown > 0
    }

    /// Whether the FtPulse time-series recorder must be attached:
    /// requested directly, or implied by an output/gate that needs its
    /// windowed series (`--inject-slowdown-after` defers the bias on a
    /// pulse-window boundary, so it needs the recorder too).
    fn pulse_enabled(&self) -> bool {
        self.pulse
            || self.pulse_json.is_some()
            || self.pulse_gate.is_some()
            || self.inject_slowdown_after.is_some()
    }

    /// Whether the FtJournal must be attached: requested directly, or
    /// implied by `--dump-on-failure` (a dump without a journal tail
    /// explains nothing).
    fn journal_enabled(&self) -> bool {
        self.journal || self.dump_on_failure.is_some()
    }

    /// Whether the health watchdog must be attached: requested directly,
    /// or implied by `--dump-on-failure` (the dump carries its alarms).
    fn watchdog_enabled(&self) -> bool {
        self.watchdog || self.dump_on_failure.is_some()
    }
}

/// Where a workload's flow count comes from.
enum Flows {
    /// `--flows` is honoured; this is the default total.
    Total(usize),
    /// `--flows` is honoured; the default is this many per core.
    PerCore(usize),
    /// The workload fixes this many per core and ignores `--flows`.
    FixedPerCore(usize),
}

/// One `--workload`: a row is all it takes to add one.
struct Workload {
    name: &'static str,
    flows: Flows,
    /// `--help` description, one line per row of the help column.
    about: &'static str,
    /// Builds the two-node testbed from the resolved flow count; `None`
    /// marks the bare-engine ideal-peer driver ([`run_scale`]).
    build: Option<fn(&Args, usize, EngineConfig) -> F4tSystem>,
}

const WORKLOADS: [Workload; 9] = [
    Workload {
        name: "bulk",
        flows: Flows::FixedPerCore(1),
        about: "each core streams --size byte sends",
        build: Some(|a, _, cfg| F4tSystem::bulk(a.cores, a.size, cfg)),
    },
    Workload {
        name: "rr",
        flows: Flows::FixedPerCore(16),
        about: "each core rotates sends over its flows",
        build: Some(|a, flows, cfg| F4tSystem::round_robin(a.cores, flows / a.cores, a.size, cfg)),
    },
    Workload {
        name: "echo",
        flows: Flows::PerCore(64),
        about: "ping-pong of --size byte messages",
        build: Some(|a, flows, cfg| F4tSystem::echo(a.cores, flows, a.size, cfg)),
    },
    Workload {
        name: "http",
        flows: Flows::PerCore(64),
        about: "Nginx + wrk keep-alive connections",
        build: Some(|a, flows, cfg| F4tSystem::http((a.cores * 2).max(2), a.cores, flows, cfg)),
    },
    Workload {
        name: "scale",
        flows: Flows::Total(65_536),
        about: "N flows vs an ideal peer on a bare\n\
                engine driven through Engine::run, where\n\
                fast-forward engages; --duration-ms sets\n\
                the post-completion idle tail",
        build: None,
    },
    Workload {
        name: "incast",
        flows: Flows::Total(32),
        about: "N senders release synchronized\n\
                bursts of --size bytes at a shared sink",
        build: Some(|a, flows, cfg| {
            F4tSystem::incast(flows, a.cores, a.size, INCAST_EPOCH_NS, cfg)
        }),
    },
    Workload {
        name: "churnstorm",
        flows: Flows::PerCore(16),
        about: "connections opened, used once,\n\
                and torn down continuously (--flows sets\n\
                the live target)",
        build: Some(|a, flows, cfg| F4tSystem::churnstorm(a.cores, flows, cfg)),
    },
    Workload {
        name: "slowloris",
        flows: Flows::Total(2048),
        about: "--flows mostly-idle connections\n\
                trickling a few bytes each",
        build: Some(|a, flows, cfg| {
            F4tSystem::slowloris(a.cores, flows, SLOWLORIS_DRIP_BYTES, 2_000, cfg)
        }),
    },
    Workload {
        name: "httpstorm",
        flows: Flows::Total(1024),
        about: "the http workload at storm-scale\n\
                concurrency",
        build: Some(|a, flows, cfg| F4tSystem::http((a.cores * 2).max(2), a.cores, flows, cfg)),
    },
];

impl Workload {
    /// The flow count this run uses: `--flows`, or the row's default.
    fn flows(&self, args: &Args) -> usize {
        match self.flows {
            Flows::Total(n) if args.flows == 0 => n,
            Flows::PerCore(n) if args.flows == 0 => args.cores * n,
            Flows::FixedPerCore(n) => args.cores * n,
            Flows::Total(_) | Flows::PerCore(_) => args.flows,
        }
    }
}

/// Every `--workload` name, in table order.
fn workload_names(sep: &str) -> String {
    WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(sep)
}

/// `--help`: [`HELP`] with the workload list and each row's `--flows`
/// default generated from [`WORKLOADS`].
fn help() -> String {
    let mut rows = String::new();
    for w in &WORKLOADS {
        let flows = match w.flows {
            Flows::Total(n) => format!("--flows defaults to {n}"),
            Flows::PerCore(n) => format!("--flows defaults to {n}/core"),
            Flows::FixedPerCore(n) => format!("{n}/core, --flows ignored"),
        };
        let about = format!("{}: {}\n({flows})", w.name, w.about);
        for line in about.lines() {
            rows.push_str(&format!("{:35}{line}\n", ""));
        }
    }
    HELP.replace("@NAMES@", &workload_names("|")).replace("@WORKLOADS@\n", &rows)
}

const HELP: &str = "\
f4tperf — drive the simulated F4T testbed

USAGE: f4tperf [OPTIONS]

  --workload <@NAMES@>
                                   workload pattern        [bulk]
@WORKLOADS@
  --cores <N>                      application cores/side  [1]
  --size <BYTES>                   request size            [128]
  --flows <N>                      total flows (default: see --workload)
  --threads <N>                    scale workload: shard the flows across N
                                   independent engines on N worker threads
                                   with a deterministic rendezvous barrier;
                                   merged digests are thread-count
                                   independent                [1]
  --dram <hbm|ddr4>                on-board memory         [hbm]
  --warmup-ms <MS>                 warmup                  [1]
  --duration-ms <MS>               measurement window      [2]
  --telemetry <PATH>               write FtScope metrics JSON to PATH and a
                                   Chrome trace to PATH with a .trace.json
                                   suffix (load in Perfetto / chrome://tracing)
  --trace-depth <N>                trace ring capacity     [65536]
  --check                          attach the FtVerify hazard checker to both
                                   engines; print its report and exit non-zero
                                   on any design-rule violation
  --no-fast-forward                force tick-by-tick simulation (scale
                                   workload; system workloads tick in lockstep
                                   and never fast-forward)
  --inject-fault <lut-misdirect|dram-ghost>
                                   corrupt flow 0's location state after setup
                                   (FtVerify exit-path testing; pair with
                                   --check to detect it)
  --flight                         attach the FtFlight per-flow latency
                                   recorder (per-stage p50/p99/p999 spans)
  --flight-sample <N>              track 1-in-N flows           [64]
  --breakdown-json <PATH>          write the FtFlight latency breakdown
                                   ({workload, cycles, flight}) to PATH;
                                   implies --flight
  --gate <BASELINE.json>           compare this run's breakdown against a
                                   committed baseline: total cycles within
                                   ±25%, each stage p99 within 1.25x + 16
                                   cycles; exit 3 on regression. Implies
                                   --flight
  --inject-slowdown <CYCLES>       bias every recorded flight span by N
                                   cycles (perf-gate exit-path testing;
                                   implies --flight)
  --inject-slowdown-after <W>      defer --inject-slowdown until W pulse
                                   windows have been recorded — a mid-run
                                   degradation the end-of-run gate misses
                                   (shape-gate exit-path testing; implies
                                   --pulse)
  --pulse                          attach the FtPulse time-series recorder:
                                   windowed rates/gauges on the simulated
                                   clock, byte-identical across
                                   fast-forward, tick-by-tick and any
                                   --threads pool
  --pulse-interval <CYCLES>        engine cycles per pulse window  [8192]
  --pulse-json <PATH>              write the pulse series document
                                   ({workload, engines: {...}}) to PATH;
                                   implies --pulse
  --pulse-gate <BASELINE.json>     compare this run's windowed series shape
                                   against a committed pulse baseline
                                   (window count, time-to-steady-state,
                                   steady goodput variance, retransmit
                                   ceilings, per-window stage p99); exit 3
                                   on regression. Implies --pulse
  --impair <PROFILE>               apply a hostile-network impairment profile
                                   to both link directions: clean, reorder,
                                   burst-loss, duplicate, jitter, lossy
                                   (deterministic, data segments only) [clean]
  --pcap <PATH>                    capture up to 10k wire segments to PATH
                                   as a libpcap file (system workloads
                                   capture both directions)
  --journal                        attach the FtJournal causal event journal
                                   (bounded ring; per-flow sampled)
  --journal-sample <N>             journal 1-in-N flows         [64]
  --watchdog                       attach the online health watchdog (stuck
                                   flows, retransmit storms, queue SLO,
                                   starved LUT entries / swap-in queue);
                                   any alarm exits 1
  --dump-on-failure <PATH>         write the FtJournal black-box dump
                                   (journal tail, watchdog alarms, FtVerify
                                   violations, implicated TCBs, config,
                                   flight breakdown) to PATH when the run
                                   fails; implies --journal and --watchdog
  --telemetry-format <json|prometheus>
                                   FtScope export format        [json]
  --help                           this text

EXIT CODES: 0 success / 1 FtVerify violations / 2 usage or I/O error /
            3 perf-gate regression (--gate)
";

/// Parses a numeric flag value.
fn num<T: std::str::FromStr<Err: std::fmt::Display>>(v: String) -> Result<T, String> {
    v.parse().map_err(|e: T::Err| e.to_string())
}

/// Parses and validates the command line into the arguments and the
/// [`WORKLOADS`] row they select.
fn parse_args() -> Result<(Args, &'static Workload), String> {
    let mut args = Args::default();
    let validate = |args: &Args| -> Result<&'static Workload, String> {
        let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
            return Err(format!(
                "unknown workload {} (expected one of: {})",
                args.workload,
                workload_names(", ")
            ));
        };
        for (flag, value) in [
            ("--cores", args.cores as u64),
            ("--size", u64::from(args.size)),
            ("--duration-ms", args.duration_ms),
            ("--flight-sample", u64::from(args.flight_sample)),
            ("--journal-sample", u64::from(args.journal_sample)),
            ("--threads", args.threads as u64),
            ("--pulse-interval", args.pulse_interval),
        ] {
            if value == 0 {
                return Err(format!("{flag} must be at least 1"));
            }
        }
        if args.inject_slowdown_after.is_some() && args.inject_slowdown == 0 {
            return Err("--inject-slowdown-after needs --inject-slowdown <CYCLES>".into());
        }
        if Impairments::profile(&args.impair).is_none() {
            return Err(format!(
                "unknown impairment profile {} (expected one of: {})",
                args.impair,
                Impairments::profile_names().join(", ")
            ));
        }
        if args.impair != "clean" && workload.build.is_none() {
            return Err(
                "--impair is not supported with --workload scale (bare engine, no link)".into(),
            );
        }
        if args.threads > 1 {
            if workload.build.is_some() {
                return Err("--threads is only supported with --workload scale".into());
            }
            // Baselines and the deferred bias are single-engine; the
            // Prometheus export and the capture have no sharded shape.
            for (set, flag) in [
                (args.pcap.is_some(), "--pcap"),
                (args.inject_fault.is_some(), "--inject-fault"),
                (args.gate.is_some(), "--gate"),
                (args.pulse_gate.is_some(), "--pulse-gate"),
                (args.inject_slowdown_after.is_some(), "--inject-slowdown-after"),
                (args.telemetry_format == TelemetryFormat::Prometheus, "--telemetry-format prometheus"),
            ] {
                if set {
                    return Err(format!("{flag} is not supported with --threads > 1"));
                }
            }
        }
        Ok(workload)
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = val()?,
            "--cores" => args.cores = num(val()?)?,
            "--size" => args.size = num(val()?)?,
            "--flows" => args.flows = num(val()?)?,
            "--threads" => args.threads = num(val()?)?,
            "--warmup-ms" => args.warmup_ms = num(val()?)?,
            "--duration-ms" => args.duration_ms = num(val()?)?,
            "--dram" => {
                args.dram = match val()?.as_str() {
                    "hbm" => DramKind::Hbm,
                    "ddr4" => DramKind::Ddr4,
                    other => return Err(format!("unknown dram {other}")),
                }
            }
            "--telemetry" => args.telemetry = Some(val()?),
            "--telemetry-format" => {
                args.telemetry_format = match val()?.as_str() {
                    "json" => TelemetryFormat::Json,
                    "prometheus" => TelemetryFormat::Prometheus,
                    other => return Err(format!("unknown telemetry format {other}")),
                }
            }
            "--flight" => args.flight = true,
            "--flight-sample" => args.flight_sample = num(val()?)?,
            "--breakdown-json" => args.breakdown_json = Some(val()?),
            "--gate" => args.gate = Some(val()?),
            "--inject-slowdown" => args.inject_slowdown = num(val()?)?,
            "--inject-slowdown-after" => args.inject_slowdown_after = Some(num(val()?)?),
            "--pulse" => args.pulse = true,
            "--pulse-interval" => args.pulse_interval = num(val()?)?,
            "--pulse-json" => args.pulse_json = Some(val()?),
            "--pulse-gate" => args.pulse_gate = Some(val()?),
            "--pcap" => args.pcap = Some(val()?),
            "--journal" => args.journal = true,
            "--journal-sample" => args.journal_sample = num(val()?)?,
            "--impair" => args.impair = val()?,
            "--watchdog" => args.watchdog = true,
            "--dump-on-failure" => args.dump_on_failure = Some(val()?),
            "--trace-depth" => args.trace_depth = num(val()?)?,
            "--no-fast-forward" => args.fast_forward = false,
            "--inject-fault" => {
                let kind = val()?;
                match kind.as_str() {
                    "lut-misdirect" | "dram-ghost" => args.inject_fault = Some(kind),
                    other => return Err(format!("unknown fault {other}")),
                }
            }
            "--check" => args.check = true,
            "--help" | "-h" => {
                print!("{}", help());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    let workload = validate(&args)?;
    Ok((args, workload))
}

fn main() {
    let (args, workload) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", help());
            std::process::exit(EXIT_USAGE);
        }
    };

    let engine = EngineConfig {
        dram: args.dram,
        check: args.check,
        fast_forward: args.fast_forward,
        flight: args.flight_enabled(),
        flight_sample: args.flight_sample,
        journal: args.journal_enabled(),
        journal_sample: args.journal_sample,
        watchdog: args.watchdog_enabled(),
        pulse: args.pulse_enabled(),
        pulse_interval: args.pulse_interval,
        ..EngineConfig::reference()
    };
    let flows = workload.flows(&args);
    match workload.build {
        Some(build) => run_system(&args, build(&args, flows, engine)),
        None => run_scale(&args, flows, engine),
    }
}

/// A system workload: two nodes over the 100G link, warmed up and then
/// measured for `--duration-ms`.
fn run_system(args: &Args, mut sys: F4tSystem) {
    let imp = Impairments::profile(&args.impair).expect("validated at parse time");
    if imp.is_active() {
        sys.set_impairments(imp);
    }
    arm(args, &mut [&mut sys.a.engine]);
    if args.pcap.is_some() {
        sys.enable_pcap(96);
    }

    println!("f4tperf: {args:?}");
    let m = sys.measure(args.warmup_ms * 1_000_000, args.duration_ms * 1_000_000);
    let sa = sys.a.engine.stats();
    write_telemetry(args, std::slice::from_ref(&m.telemetry), &[("a", &sys.a.engine)]);

    println!();
    println!("  goodput            {:>10.2} Gbps", m.goodput_gbps());
    println!("  requests           {:>10.2} Mrps ({} total)", m.mrps(), m.requests);
    if m.latency.count() > 0 {
        println!(
            "  latency            {:>10.1} µs median / {:.1} µs p99 ({} samples)",
            m.median_latency_us(),
            m.p99_latency_us(),
            m.latency.count()
        );
    }
    println!("  retransmissions    {:>10}", m.retransmissions);
    if imp.is_active() {
        println!(
            "  impairment events  {:>10} ({} profile, both directions)",
            sys.impairment_events(),
            args.impair
        );
    }
    println!("  TCB migrations     {:>10}", m.migrations);
    println!("  events coalesced   {:>10}", sa.events_coalesced);
    println!("  TCB cache hit      {:>9.1}%", sa.tcb_cache_hit_rate * 100.0);
    println!(
        "  FPC stalls         {:>10} fifo-empty / {} tcb-wait / {} backpressure",
        sa.stall_fifo_empty, sa.stall_tcb_wait, sa.stall_backpressure
    );
    println!(
        "  RMW hazards        {:>10} events ({} stall cycles — stall-free by design)",
        sa.rmw_hazard_events, sa.rmw_stall_cycles
    );
    let busy = m.cpu.app + m.cpu.tcp + m.cpu.kernel + m.cpu.lib;
    let budget = args.duration_ms as f64 * 1e6 * 2.3 * args.cores as f64;
    println!(
        "  client CPU busy    {:>9.1}%  (app {:.0}% / lib {:.0}% of busy)",
        busy as f64 * 100.0 / budget,
        m.cpu.app as f64 * 100.0 / busy.max(1) as f64,
        m.cpu.lib as f64 * 100.0 / busy.max(1) as f64,
    );

    let pcap = sys.pcap_packets();
    let pcap = sys.take_pcap().map(|bytes| (pcap, bytes));
    // The client engine carries the journal, flight and dump views; both
    // engines are checked, watched and pulsed.
    let both = [("a", &sys.a.engine), ("b", &sys.b.engine)];
    finish(args, &both[..1], &both, pcap, None);
}

/// The `scale` workload: `flows` connections against an ideal peer,
/// sharded across `--threads` independent engines ([`ScaleShard`]) that
/// advance in lock-step rendezvous rounds ([`ScaleShard::run_all`]) —
/// one shard runs inline, so `--threads 1` is the plain single-engine
/// run. Each flow sends `--size` bytes; after every cumulative pointer
/// reaches its target each engine idles for `--duration-ms` of simulated
/// time, the regime where fast-forward dominates. Artifacts are folded in
/// fixed shard order after the run, so the worker-pool size changes
/// wall-clock only, never output.
fn run_scale(args: &Args, flows: usize, cfg: EngineConfig) {
    // More shards than flows would create empty engines; shard count is
    // part of the workload's identity, so cap it explicitly and say so.
    let shard_count = args.threads.min(flows).max(1);
    if shard_count != args.threads {
        println!("  threads capped     {} → {shard_count} (one shard per flow max)", args.threads);
    }
    let started = std::time::Instant::now();
    // Idle tail at the 250 MHz engine clock (250_000 cycles per millisecond).
    let idle_cycles = args.duration_ms * 250_000;
    let Some(mut shards) = ScaleShard::split(&cfg, flows, shard_count, args.size, idle_cycles)
    else {
        eprintln!("error: flow table full before {flows} flows");
        std::process::exit(EXIT_USAGE);
    };
    arm(args, &mut shards.iter_mut().map(|s| &mut s.engine).collect::<Vec<_>>());
    if args.pcap.is_some() {
        shards[0].enable_pcap(96);
    }

    let mut shards = ScaleShard::run_all(shards, args.threads);
    let wall = started.elapsed();

    // Everything below runs on one thread, walking shards in fixed
    // order — the merge side of the determinism contract.
    let sharded = shards.len() > 1;
    let completed = shards.iter().all(ScaleShard::completed);
    let sum = |f: fn(&ScaleShard) -> u64| shards.iter().map(f).sum::<u64>();
    let cycles = sum(|s| s.engine.cycles());
    let skipped = sum(|s| s.engine.fastforward_skipped_cycles());
    let executed = cycles - skipped;
    let active = sum(ScaleShard::active_cycles);
    let state = if completed { "all completed" } else { "INCOMPLETE" };
    println!("f4tperf: {args:?}");
    println!();
    if sharded {
        println!("  flows              {flows:>10} in {shard_count} shards ({state})");
        for (s, sh) in shards.iter().enumerate() {
            println!(
                "  shard {s:<12} {:>10} flows / {} cycles / {}",
                sh.flows(),
                sh.engine.cycles(),
                if sh.stuck() {
                    "STUCK"
                } else if sh.completed() {
                    "completed"
                } else {
                    "incomplete"
                }
            );
        }
        println!("  cycles simulated   {cycles:>10} summed ({active} active + idle tails)");
    } else {
        println!("  flows              {flows:>10} ({state})");
        println!("  cycles simulated   {cycles:>10} ({active} active + idle tail)");
    }
    println!("  ticks executed     {executed:>10}");
    println!(
        "  ff skipped         {skipped:>10} cycles in {} windows",
        sum(|s| s.engine.fastforward_windows())
    );
    println!("  tick reduction     {:>10.1}x", cycles as f64 / executed.max(1) as f64);
    println!("  wall time          {:>10.0} ms", wall.as_secs_f64() * 1e3);
    println!("  TCB migrations     {:>10}", sum(|s| s.engine.stats().migrations));
    println!("  DRAM events        {:>10}", sum(|s| s.engine.stats().dram_events));

    let pcap = shards[0].take_pcap();
    let labels: Vec<String> = if sharded {
        (0..shards.len()).map(|s| format!("shard{s}")).collect()
    } else {
        vec!["engine".into()]
    };
    let engines: Vec<(&str, &Engine)> =
        labels.iter().map(String::as_str).zip(shards.iter().map(|s| &s.engine)).collect();
    let snapshots: Vec<MetricsRegistry> = engines.iter().map(|(_, e)| e.telemetry()).collect();
    write_telemetry(args, &snapshots, &engines);
    // A planted fault is expected to wedge its flow; FtVerify reports it.
    let stuck = shards
        .iter()
        .find(|s| !s.completed() && args.inject_fault.is_none())
        .map(|s| &s.engine);
    finish(args, &engines, &engines, pcap, stuck);
}

/// Pre-run arming shared by every workload: the trace ring behind
/// `--telemetry`, `--inject-fault` on the first engine, and the
/// `--inject-slowdown` flight-span bias.
fn arm(args: &Args, engines: &mut [&mut Engine]) {
    if args.telemetry.is_some() {
        for e in engines.iter_mut() {
            e.set_trace_capacity(args.trace_depth);
        }
    }
    if let Some(kind) = &args.inject_fault {
        inject_fault(engines[0], kind);
    }
    if args.inject_slowdown > 0 {
        for e in engines.iter_mut() {
            match args.inject_slowdown_after {
                Some(w) => e.set_flight_bias_after(w, args.inject_slowdown),
                None => e.set_flight_bias(args.inject_slowdown),
            }
        }
        match args.inject_slowdown_after {
            Some(w) => println!(
                "  slowdown armed     {} cycles per flight span after pulse window {w}",
                args.inject_slowdown
            ),
            None => println!(
                "  slowdown injected  {} cycles per flight span",
                args.inject_slowdown
            ),
        }
    }
}

/// Writes an output artifact; an I/O error is a usage error (exit 2).
fn write_or_exit(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: writing {path}: {e}");
        std::process::exit(EXIT_USAGE);
    }
}

/// Reads a committed baseline; an I/O error is a usage error (exit 2),
/// not a regression.
fn read_or_exit(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: reading {path}: {e}");
        std::process::exit(EXIT_USAGE);
    })
}

/// One document for one part, `{"shards": [..]}` in fixed order for
/// several — the shape every merged artifact shares.
fn merge_docs(mut parts: Vec<String>) -> String {
    if parts.len() == 1 {
        return parts.remove(0);
    }
    format!("{{\"shards\": [{}]}}", parts.join(", "))
}

/// Writes the `--telemetry` FtScope snapshot(s) and, next to it, the
/// Chrome trace of `traced`.
fn write_telemetry(args: &Args, snapshots: &[MetricsRegistry], traced: &[(&str, &Engine)]) {
    let Some(path) = &args.telemetry else { return };
    let render = match args.telemetry_format {
        TelemetryFormat::Json => MetricsRegistry::to_json,
        TelemetryFormat::Prometheus => MetricsRegistry::to_prometheus,
    };
    write_or_exit(path, merge_docs(snapshots.iter().map(render).collect()));
    let trace_path = format!("{}.trace.json", path.trim_end_matches(".json"));
    let traces = traced.iter().map(|(_, e)| e.export_chrome_trace()).collect();
    write_or_exit(&trace_path, merge_docs(traces));
    println!("  telemetry → {path}, trace → {trace_path}");
}

/// Every post-run reporter and exit path, in precedence order: pcap and
/// journal lines, FtVerify (exit 1), watchdog (exit 1), stuck flows
/// (exit 2), then the pulse series, flight breakdown and gates (exit 3)
/// — so a design-rule failure wins over a perf regression when both
/// fire. `primary` are the engines whose journal, flight recorder and
/// black box are reported; `all` adds the peers that are only checked,
/// watched and pulsed. One engine prints the single-engine shape,
/// several the per-engine/merged one.
fn finish(
    args: &Args,
    primary: &[(&str, &Engine)],
    all: &[(&str, &Engine)],
    pcap: Option<(u64, Vec<u8>)>,
    stuck: Option<&Engine>,
) {
    if let Some(path) = &args.pcap {
        let Some((packets, bytes)) = pcap else {
            eprintln!("error: pcap capture failed");
            std::process::exit(EXIT_USAGE);
        };
        write_or_exit(path, bytes);
        println!("  pcap               {packets:>10} segments → {path}");
    }

    let journals: Vec<_> = primary.iter().filter_map(|(_, e)| e.journal()).collect();
    match journals[..] {
        [] => {}
        [j] => println!(
            "  journal            {:>10} events recorded / digest {:016x} (1/{} sampling)",
            j.events_recorded(),
            j.digest(),
            j.sample_n()
        ),
        // Merged in fixed shard order, so thread-count independent.
        [j, ..] => println!(
            "  journal            {:>10} events recorded / merged digest {:016x} (1/{} sampling, {} shards)",
            journals.iter().map(|j| j.events_recorded()).sum::<u64>(),
            fold_digests(journals.iter().map(|j| j.digest())),
            j.sample_n(),
            journals.len()
        ),
    }

    if args.check {
        for (label, e) in all {
            let Some(summary) = e.check_summary() else { continue };
            match all {
                [_] => println!("  ftverify           {summary}"),
                // Shards are tagged by their bare index.
                _ => println!("  ftverify[{}]        {summary}", label.trim_start_matches("shard")),
            }
        }
        let violations: u64 = all.iter().map(|(_, e)| e.check_total_violations()).sum();
        if violations > 0 {
            write_dump(args, culprit(all, |e| e.check_total_violations() > 0), "invariant-violation");
            eprintln!("error: FtVerify found {violations} design-rule violation(s)");
            std::process::exit(EXIT_VIOLATIONS);
        }
    }
    let alarms: u64 = all.iter().map(|(_, e)| e.watchdog_alarm_count()).sum();
    if alarms > 0 {
        for a in all.iter().filter_map(|(_, e)| e.watchdog()).flat_map(|w| w.alarms()) {
            eprintln!("  watchdog alarm     {}", a.line());
        }
        write_dump(args, culprit(all, |e| e.watchdog_alarm_count() > 0), "watchdog-alarm");
        eprintln!("error: watchdog raised {alarms} alarm(s)");
        std::process::exit(EXIT_VIOLATIONS);
    }
    if let Some(e) = stuck {
        write_dump(args, e, "stuck-flows");
        eprintln!("error: flows stuck after {} cycles", e.cycles());
        std::process::exit(EXIT_USAGE);
    }

    // The pulse document is written before either gate can exit so the
    // artifact survives a flight-gate failure.
    let pulse_doc = finish_pulse(args, all);
    finish_flight(args, primary);
    run_pulse_gate(args, pulse_doc.as_deref(), primary[0].1);
}

/// The engine whose black box explains a failure: the first one
/// `guilty` picks, else the first engine.
fn culprit<'a>(engines: &[(&str, &'a Engine)], guilty: impl Fn(&Engine) -> bool) -> &'a Engine {
    engines.iter().map(|&(_, e)| e).find(|e| guilty(e)).unwrap_or(engines[0].1)
}

/// Writes the FtJournal black-box dump to the `--dump-on-failure` path
/// (no-op without the flag). Called on every failing exit path so the
/// forensic record exists before the process dies.
fn write_dump(args: &Args, e: &Engine, reason: &str) {
    let Some(path) = &args.dump_on_failure else { return };
    match std::fs::write(path, e.blackbox_json(reason, &[("workload", args.workload.as_str())])) {
        Ok(()) => eprintln!("  black-box dump     → {path} ({reason})"),
        Err(err) => eprintln!("error: writing {path}: {err}"),
    }
}

/// Prints the FtFlight summary, writes `--breakdown-json` and runs the
/// `--gate` comparison (single-engine: the only shape baselines have).
/// Exits 3 on regression.
fn finish_flight(args: &Args, engines: &[(&str, &Engine)]) {
    // The breakdown deliberately carries only simulated-clock facts
    // (cycles + span histograms) so fast-forward and tick-by-tick runs
    // produce byte-identical files.
    let parts: Vec<_> = engines
        .iter()
        .filter_map(|(_, e)| {
            let part = format!("\"cycles\": {}, \"flight\": {}", e.cycles(), e.flight_json()?);
            Some((e.flight()?, part))
        })
        .collect();
    let breakdown = match &parts[..] {
        [] => return,
        [(f, part)] => {
            println!(
                "  flight spans       {:>10} recorded / {} unsampled ({} flows, 1/{} sampling)",
                f.spans_recorded(),
                f.spans_unsampled(),
                f.flows_tracked(),
                f.sample_n()
            );
            format!("{{\"workload\": \"{}\", {part}}}", args.workload)
        }
        _ => {
            let spans: u64 = parts.iter().map(|(f, _)| f.spans_recorded()).sum();
            println!("  flight spans       {spans:>10} recorded across {} shards", parts.len());
            let shards: Vec<String> = parts.iter().map(|(_, p)| format!("{{{p}}}")).collect();
            format!(
                "{{\"workload\": \"{}\", \"threads\": {}, \"shards\": [{}]}}",
                args.workload,
                parts.len(),
                shards.join(", ")
            )
        }
    };
    if let Some(path) = &args.breakdown_json {
        write_or_exit(path, &breakdown);
        println!("  breakdown          → {path}");
    }
    if let Some(baseline) = &args.gate {
        let violations = run_gate(baseline, &breakdown, &args.workload);
        if violations.is_empty() {
            println!("  perf gate          PASS vs {baseline}");
        } else {
            eprintln!("error: perf gate FAIL vs {baseline}:");
            for v in &violations {
                eprintln!("  - {v}");
            }
            write_dump(args, engines[0].1, "gate-failure");
            std::process::exit(EXIT_PERF_REGRESSION);
        }
    }
}

/// Prints the FtPulse summary and writes the `--pulse-json` series
/// document for a finished run. `engines` are the labelled engines in
/// fixed order (`a`/`b` for system workloads, `engine` for scale,
/// `shard0`… for sharded scale); engines without a recorder are skipped.
/// Returns the pulse document for [`run_pulse_gate`], or `None` when
/// pulse is off.
fn finish_pulse(args: &Args, engines: &[(&str, &Engine)]) -> Option<String> {
    if !args.pulse_enabled() {
        return None;
    }
    let mut sections = Vec::new();
    let mut windows = 0u64;
    let mut digests = Vec::new();
    for (label, e) in engines {
        let Some(p) = e.pulse() else { continue };
        windows += p.windows_recorded();
        digests.push(p.digest());
        let Some(json) = e.pulse_json() else { continue };
        sections.push(format!("\"{label}\": {}", json.trim_end()));
    }
    let digest = fold_digests(digests);
    println!(
        "  pulse              {windows:>10} windows recorded / digest {digest:016x} (every {} cycles)",
        args.pulse_interval
    );
    let recorders: Vec<&f4t_sim::PulseRecorder> =
        engines.iter().filter_map(|(_, e)| e.pulse()).collect();
    let doc = format!(
        "{{\"workload\": \"{}\",\n\"merged_digest\": {digest},\n\"engines\": {{\n{}\n}},\n\"aggregate\": {}}}\n",
        args.workload,
        sections.join(",\n"),
        f4t_sim::PulseRecorder::aggregate_json(&recorders).trim_end()
    );
    if let Some(path) = &args.pulse_json {
        write_or_exit(path, &doc);
        println!("  pulse series       → {path}");
    }
    Some(doc)
}

/// Runs the `--pulse-gate` shape comparison against a committed pulse
/// baseline. Exits 3 on any shape regression — the windowed rules catch
/// mid-run degradations the end-of-run `--gate` aggregate misses.
fn run_pulse_gate(args: &Args, pulse_doc: Option<&str>, e: &Engine) {
    let Some(baseline) = &args.pulse_gate else { return };
    let Some(doc) = pulse_doc else { return };
    let base_text = read_or_exit(baseline);
    match f4t_bench::pulsejson::shape_gate(&args.workload, &base_text, doc) {
        Ok(violations) if violations.is_empty() => {
            println!("  pulse gate         PASS vs {baseline}");
        }
        Ok(violations) => {
            eprintln!("error: pulse gate FAIL vs {baseline}:");
            for v in &violations {
                eprintln!("  - {v}");
            }
            write_dump(args, e, "pulse-gate-failure");
            std::process::exit(EXIT_PERF_REGRESSION);
        }
        Err(err) => {
            eprintln!("error: pulse baseline {baseline}: {err}");
            std::process::exit(EXIT_USAGE);
        }
    }
}

/// Runs the `--gate` comparison of the current breakdown against a
/// committed baseline ([`f4t_bench::flight_gate`]); an unreadable or
/// malformed baseline is a usage error (exit 2), not a regression.
fn run_gate(baseline_path: &str, current: &str, workload: &str) -> Vec<String> {
    let base = match json::parse(&read_or_exit(baseline_path)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: baseline {baseline_path}: {e}");
            std::process::exit(EXIT_USAGE);
        }
    };
    let cur = json::parse(current).expect("breakdown is well-formed");
    f4t_bench::flight_gate(workload, &base, &cur)
}

/// Corrupts flow 0's location state so FtVerify has something real to
/// flag (exit-path testing; see `--inject-fault` in the help text).
fn inject_fault(e: &mut Engine, kind: &str) {
    let flow = FlowId(0);
    match kind {
        "lut-misdirect" => e.fault_inject_lut(flow, Location::Dram),
        "dram-ghost" => {
            if !e.fault_inject_dram_ghost(flow) {
                eprintln!("error: flow 0 is not SRAM-resident; cannot ghost it");
                std::process::exit(EXIT_USAGE);
            }
        }
        _ => unreachable!("validated at parse time"),
    }
    println!("  fault injected     {kind} on {flow}");
}
