//! `basecamp` — the single command-line entry point to the EVEREST SDK
//! (paper §IV: "All tools within the SDK are wrapped under the basecamp
//! command, which provides a single point of access to the users").
//!
//! ```text
//! basecamp targets
//! basecamp compile <kernel.ekl> [--target T] [--explore] [--emit-ir] [--trace out.json]
//! basecamp cfdlang <program.cfd> [--target T] [--name N] [--trace out.json]
//! basecamp coordinate <program.rs> [--trace out.json]
//! basecamp analyze <kernel.ekl | program.rs | module.ir> [--json [out.json]] [--trace out.json]
//! basecamp chaos [--seed N] [--nodes N] [--tasks N] [--faults N] [--trace out.json]
//! basecamp heal [--seed N] [--nodes N] [--tasks N] [--gray N] [--trace out.json]
//! basecamp query --sql "SELECT ..." [--dataset D] [--seed N] [--explain] [--json [out.json]] [--no-optimize] [--trace out.json]
//! basecamp serve [--seed N] [--nodes N] [--tenants N] [--load X] [--horizon-ms N] [--chaos N] [--retries] [--hedge] [--limiter] [--brownout] [--trace out.json]
//! ```
//!
//! `--trace` exports the telemetry recorded during the run as Chrome
//! `trace_event` JSON, loadable in `chrome://tracing` or Perfetto; the
//! span, metric and event names are documented in
//! `docs/OBSERVABILITY.md`.

use std::process::ExitCode;
use std::str::FromStr;

use everest_sdk::basecamp::{Basecamp, CompileOptions, Target};
use everest_sdk::chaos::ChaosOptions;
use everest_sdk::heal::HealOptions;
use everest_sdk::query::QueryOptions;
use everest_sdk::serve::ServeOptions;

fn usage() -> ExitCode {
    eprintln!(
        "basecamp — the EVEREST SDK entry point

USAGE:
    basecamp targets
        List the supported target platforms.

    basecamp compile <kernel.ekl> [--target <name>] [--explore] [--emit-ir]
        Compile an EKL kernel: frontend -> IR -> HLS -> Olympus.

    basecamp cfdlang <program.cfd> [--target <name>] [--name <kernel>]
        Compile a legacy CFDlang program through the same flow.

    basecamp coordinate <program.rs>
        Compile a ConDRust coordination program to its dataflow graph.

    basecamp analyze <file> [--json [<out.json>]]
        Run the static-analysis lint suite. `.ekl` compiles the kernel
        and analyzes every produced module; `.rs` analyzes the
        coordination pipeline; anything else is parsed as textual IR.
        `--json` emits the full machine-readable report (summary plus
        every diagnostic, in canonical order — byte-stable across
        runs; the CI analysis gate diffs it), to stdout or to the
        given file. Exits 1 when deny-level findings are reported.

    basecamp chaos [--seed <n>] [--nodes <n>] [--tasks <n>] [--faults <n>]
        Run a seeded fault-injection campaign against the runtime
        scheduler and report the recovery accounting. For this
        subcommand `--trace` writes the deterministic replay trace
        (byte-identical for the same options — CI diffs two runs)
        instead of the Chrome timeline. See docs/RESILIENCE.md.

    basecamp heal [--seed <n>] [--nodes <n>] [--tasks <n>] [--gray <n>]
        Run a seeded gray-failure campaign twice — healing off, then
        with the closed-loop health monitor, circuit breakers and
        checkpoint/restart engaged — and report what the loop did.
        Also resumes from the last checkpoint in-process and verifies
        the resumed result matches. Like chaos, `--trace` writes the
        deterministic replay trace. See docs/RESILIENCE.md.

    basecamp serve [--seed <n>] [--nodes <n>] [--tenants <n>] [--load <x>]
                   [--horizon-ms <n>] [--chaos <n>] [--partition-plan <n>]
                   [--retries] [--hedge] [--limiter] [--brownout]
        Run a seeded multi-tenant serving campaign: token-bucket
        admission, weighted-fair queueing and dynamic batching in
        front of the runtime. `--load` is a multiple of nominal
        cluster capacity; `--chaos` injects that many random faults.
        `--partition-plan` turns on the cluster-membership layer
        (SWIM-style gossip, leased shard ownership, fencing epochs)
        and injects that many seeded partition/heal cycles; without
        it the trace bytes are identical to earlier releases. The
        lifecycle switches enable per-tenant retry budgets, hedged
        dispatch for the latency-critical class, the AIMD
        concurrency limiter, and health-driven brownout tiers (all
        off by default; deterministic either way). Like chaos,
        `--trace` writes the deterministic replay trace
        (byte-identical for the same options — CI diffs two runs).
        See docs/SERVING.md and docs/RESILIENCE.md.

    basecamp query --sql <text> [--dataset <name>] [--seed <n>]
                   [--explain] [--json [<out.json>]] [--no-optimize]
        Run an analytic SQL query (SELECT/WHERE/GROUP BY/ORDER
        BY/LIMIT, inner JOIN) over a seeded use-case dataset
        (traffic, airquality, energy), execute it on the
        deterministic engine, and lower it to a verified dfg graph
        of HLS-scheduled kernels with an Olympus memory
        architecture and a serving class. `--explain` prints the
        canonical plan instead of the result rows; `--json` emits
        the byte-stable EXPLAIN JSON the `query-gate` CI job diffs
        against ci/query/ goldens; `--no-optimize` skips the
        rewrite rules for A/B plan comparisons. See docs/QUERY.md.

Every subcommand above also accepts:
    --trace <out.json>
        Write the telemetry recorded during the run as Chrome
        trace_event JSON (open in chrome://tracing or Perfetto). The
        stable span/metric/event names are listed in
        docs/OBSERVABILITY.md.

TARGETS: alveo_u55c (default), alveo_u280, cloudfpga, cpu"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    match command.as_str() {
        "targets" => {
            println!("alveo_u55c   AMD Alveo u55c (PCIe, 16 GiB HBM2, 32 channels)");
            println!("alveo_u280   AMD Alveo u280 (PCIe, 8 GiB HBM2 + 32 GiB DDR4)");
            println!("cloudfpga    IBM cloudFPGA (network-attached, 10 Gb/s TCP/UDP)");
            println!("cpu          no offloading");
            ExitCode::SUCCESS
        }
        "compile" => compile(&args[1..], Flavor::Ekl),
        "cfdlang" => compile(&args[1..], Flavor::Cfdlang),
        "coordinate" => coordinate(&args[1..]),
        "analyze" => analyze(&args[1..]),
        "chaos" => chaos(&args[1..]),
        "heal" => heal(&args[1..]),
        "serve" => serve(&args[1..]),
        "query" => query(&args[1..]),
        _ => usage(),
    }
}

enum Flavor {
    Ekl,
    Cfdlang,
}

/// Prints `error: <message>` and returns the failure exit code.
fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}

/// The value following `flag`, or `None` when the flag is absent. A
/// flag that takes a value but comes last is an error, not a silent
/// default.
fn parse_flag(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(value) => Ok(Some(value.clone())),
            None => Err(format!("{flag} wants a value")),
        },
    }
}

/// Parses the numeric value of `flag` into `slot`; an absent flag
/// keeps the default already there.
fn parse_num<T: FromStr>(args: &[String], flag: &str, slot: &mut T) -> Result<(), String> {
    if let Some(v) = parse_flag(args, flag)? {
        *slot = v
            .parse()
            .map_err(|_| format!("{flag} wants a number, got {v:?}"))?;
    }
    Ok(())
}

/// Writes `content` followed by a newline to `path`, or to stdout when
/// `path` is `None` or `-`. Every JSON-producing flag (`--json`,
/// `--trace`) funnels through here so file output behaves identically.
fn write_output(path: Option<&str>, content: &str) -> Result<(), String> {
    match path {
        None | Some("-") => {
            println!("{content}");
            Ok(())
        }
        Some(p) => {
            std::fs::write(p, format!("{content}\n")).map_err(|e| format!("cannot write {p}: {e}"))
        }
    }
}

/// Honors `--trace <path>`: exports the global telemetry registry as
/// Chrome trace JSON. Returns `false` when the write failed.
fn write_trace_if_requested(args: &[String]) -> bool {
    let written = parse_flag(args, "--trace").and_then(|path| match path {
        Some(path) => write_output(Some(&path), &everest_telemetry::global().to_chrome_trace()),
        None => Ok(()),
    });
    match written {
        Ok(()) => true,
        Err(e) => {
            eprintln!("error: {e}");
            false
        }
    }
}

/// Writes a seeded campaign's byte-stable replay trace to `path`, if
/// `--trace` asked for one.
fn write_replay(path: Option<String>, trace: &str) -> ExitCode {
    match path.map_or(Ok(()), |p| write_output(Some(&p), trace)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

fn compile(args: &[String], flavor: Flavor) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage();
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (target_name, name) = match (parse_flag(args, "--target"), parse_flag(args, "--name")) {
        (Ok(target), Ok(name)) => (
            target.unwrap_or_else(|| "alveo_u55c".into()),
            name.unwrap_or_else(|| "kernel".into()),
        ),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    let target = match Target::parse(&target_name) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let options = CompileOptions {
        target,
        explore: args.iter().any(|a| a == "--explore"),
        ..CompileOptions::default()
    };
    let basecamp = Basecamp::new();
    let result = match flavor {
        Flavor::Ekl => basecamp.compile_kernel(&source, options),
        Flavor::Cfdlang => basecamp.compile_cfdlang(&source, &name, options),
    };
    let compiled = match result {
        Ok(k) => k,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("kernel    : {}", compiled.program.name);
    println!("target    : {target_name}");
    println!(
        "hls       : {} cycles, {:.1} us @ {:.0} MHz",
        compiled.hls.cycles, compiled.hls.time_us, compiled.hls.fmax_mhz
    );
    println!(
        "area      : {} LUT / {} FF / {} DSP / {} BRAM",
        compiled.hls.area.luts,
        compiled.hls.area.ffs,
        compiled.hls.area.dsps,
        compiled.hls.area.brams
    );
    if let Some(arch) = &compiled.architecture {
        println!(
            "system    : {} replicas x {} lanes, pack {} B, double-buffer {}",
            arch.config.replication,
            arch.config.lanes_per_replica,
            arch.config.pack_bytes,
            arch.config.double_buffer
        );
        println!(
            "per-call  : {:.2} us (batch estimate)",
            compiled.fpga_time_us.unwrap_or(f64::NAN)
        );
    }
    if args.iter().any(|a| a == "--emit-ir") {
        println!(
            "\n// loop-level IR\n{}",
            Basecamp::print_ir(&compiled.module)
        );
        if let Some(system) = &compiled.system_ir {
            println!("// system architecture\n{}", Basecamp::print_ir(system));
        }
    }
    if !write_trace_if_requested(args) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn analyze(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage();
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let basecamp = Basecamp::new();
    let report = if path.ends_with(".ekl") {
        match basecamp.compile_kernel(&source, CompileOptions::default()) {
            Ok(kernel) => basecamp.analyze_kernel(&kernel),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if path.ends_with(".rs") {
        match basecamp.compile_coordination(&source) {
            Ok(program) => basecamp.analyze_coordination(&program),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match everest_ir::parse::parse_module(&source) {
            Ok(module) => {
                if let Err(e) = everest_ir::verify::verify_module(basecamp.context(), &module) {
                    eprintln!("note: module fails verification: {e}");
                }
                basecamp.analyze_module(&module)
            }
            Err(e) => {
                eprintln!("error: cannot parse {path} as IR: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    // `--json` alone (or with `-`) prints to stdout; `--json <path>`
    // writes the same document to a file.
    let json = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .map(String::as_str)
    });
    match json {
        Some(path) => {
            if let Err(e) = write_output(path, &report.to_json()) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => println!("{}", report.to_text()),
    }
    if !write_trace_if_requested(args) {
        return ExitCode::FAILURE;
    }
    if report.has_denials() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `basecamp chaos`: a seeded fault-injection campaign. Unlike the
/// other subcommands, `--trace` here exports the byte-stable replay
/// trace (virtual times only) rather than the wall-clock Chrome
/// timeline, so two runs with the same options are diffable.
fn chaos(args: &[String]) -> ExitCode {
    let (options, trace) = match chaos_args(args) {
        Ok(parsed) => parsed,
        Err(e) => return fail(e),
    };
    let report = everest_sdk::chaos::run_chaos(&options);
    println!("{}", report.summary());
    write_replay(trace, &report.trace_json())
}

/// `basecamp chaos` options and replay-trace path.
fn chaos_args(args: &[String]) -> Result<(ChaosOptions, Option<String>), String> {
    let mut options = ChaosOptions::default();
    parse_num(args, "--seed", &mut options.seed)?;
    parse_num(args, "--nodes", &mut options.nodes)?;
    parse_num(args, "--tasks", &mut options.tasks)?;
    parse_num(args, "--faults", &mut options.faults)?;
    if options.nodes == 0 || options.tasks == 0 {
        return Err("--nodes and --tasks must be at least 1".into());
    }
    Ok((options, parse_flag(args, "--trace")?))
}

/// `basecamp heal`: a seeded gray-failure campaign with and without
/// the closed healing loop. As with `chaos`, `--trace` exports the
/// byte-stable replay trace rather than the Chrome timeline. Exits
/// non-zero when the in-process checkpoint-resume check diverges (a
/// campaign too short to take a checkpoint has nothing to check).
fn heal(args: &[String]) -> ExitCode {
    let (options, trace) = match heal_args(args) {
        Ok(parsed) => parsed,
        Err(e) => return fail(e),
    };
    let report = everest_sdk::heal::run_heal(&options);
    println!("{}", report.summary());
    let written = write_replay(trace, &report.trace_json());
    if report.resume_matched == Some(false) {
        return ExitCode::FAILURE;
    }
    written
}

/// `basecamp heal` options and replay-trace path.
fn heal_args(args: &[String]) -> Result<(HealOptions, Option<String>), String> {
    let mut options = HealOptions::default();
    parse_num(args, "--seed", &mut options.seed)?;
    parse_num(args, "--nodes", &mut options.nodes)?;
    parse_num(args, "--tasks", &mut options.tasks)?;
    parse_num(args, "--gray", &mut options.gray_faults)?;
    if options.nodes == 0 || options.tasks == 0 {
        return Err("--nodes and --tasks must be at least 1".into());
    }
    Ok((options, parse_flag(args, "--trace")?))
}

/// `basecamp serve`: a seeded multi-tenant serving campaign. As with
/// `chaos` and `heal`, `--trace` exports the byte-stable replay trace
/// rather than the Chrome timeline. Exits non-zero when request
/// conservation is violated (a request lost or double-counted).
fn serve(args: &[String]) -> ExitCode {
    let (options, trace) = match serve_args(args) {
        Ok(parsed) => parsed,
        Err(e) => return fail(e),
    };
    let report = everest_sdk::serve::run_serve(&options);
    println!("{}", report.summary());
    let written = write_replay(trace, &report.trace_json());
    if !report.outcome.conserved() {
        return fail("request conservation violated");
    }
    written
}

/// `basecamp serve` options and replay-trace path.
fn serve_args(args: &[String]) -> Result<(ServeOptions, Option<String>), String> {
    let mut options = ServeOptions::default();
    parse_num(args, "--seed", &mut options.seed)?;
    parse_num(args, "--nodes", &mut options.nodes)?;
    parse_num(args, "--tenants", &mut options.tenants)?;
    parse_num(args, "--chaos", &mut options.chaos)?;
    parse_num(args, "--partition-plan", &mut options.partition)?;
    parse_num(args, "--load", &mut options.load)?;
    parse_num(args, "--horizon-ms", &mut options.horizon_ms)?;
    for (flag, slot) in [
        ("--retries", &mut options.retries),
        ("--hedge", &mut options.hedge),
        ("--limiter", &mut options.limiter),
        ("--brownout", &mut options.brownout),
    ] {
        *slot |= args.iter().any(|a| a == flag);
    }
    if options.nodes == 0 || options.tenants == 0 {
        return Err("--nodes and --tenants must be at least 1".into());
    }
    for (flag, value) in [
        ("--load", options.load),
        ("--horizon-ms", options.horizon_ms),
    ] {
        if !(value > 0.0 && value.is_finite()) {
            return Err(format!("{flag} must be a positive number"));
        }
    }
    Ok((options, parse_flag(args, "--trace")?))
}

fn query(args: &[String]) -> ExitCode {
    let options = match query_options(args) {
        Ok(Some(options)) => options,
        Ok(None) => {
            eprintln!("error: query wants --sql <text>");
            return usage();
        }
        Err(e) => return fail(e),
    };
    let report = match everest_sdk::query::run_query(&options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(json_at) = args.iter().position(|a| a == "--json") {
        // `--json` takes an optional path: `--json out.json` or bare
        // `--json` for stdout (mirroring `analyze`).
        let path = args
            .get(json_at + 1)
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str);
        if let Err(e) = write_output(path, report.explain_json().trim_end()) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    } else if args.iter().any(|a| a == "--explain") {
        print!("{}", report.summary());
    } else {
        print!("{}", report.batch.to_text());
        print!("{}", report.summary());
    }
    if !write_trace_if_requested(args) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `basecamp query` options, or `None` without `--sql`.
fn query_options(args: &[String]) -> Result<Option<QueryOptions>, String> {
    let Some(sql) = parse_flag(args, "--sql")? else {
        return Ok(None);
    };
    let mut options = QueryOptions {
        sql,
        ..QueryOptions::default()
    };
    parse_num(args, "--seed", &mut options.seed)?;
    if let Some(dataset) = parse_flag(args, "--dataset")? {
        options.dataset = dataset;
    }
    options.optimize = !args.iter().any(|a| a == "--no-optimize");
    Ok(Some(options))
}

fn coordinate(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let basecamp = Basecamp::new();
    match basecamp.compile_coordination(&source) {
        Ok(program) => {
            println!(
                "dataflow graph '{}': {} nodes ({} replicable)",
                program.graph.name,
                program.graph.nodes.len(),
                program.graph.replicable_nodes()
            );
            println!("\n{}", Basecamp::print_ir(&program.dfg_ir));
            if !write_trace_if_requested(args) {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_num_keeps_the_default_when_the_flag_is_absent() {
        let mut seed = 42_u64;
        parse_num(&argv("--nodes 3"), "--seed", &mut seed).expect("absent is fine");
        assert_eq!(seed, 42);
        parse_num(&argv("--seed 7 --nodes 3"), "--seed", &mut seed).expect("parses");
        assert_eq!(seed, 7);
    }

    #[test]
    fn a_value_flag_without_its_value_is_an_error() {
        let mut seed = 42_u64;
        assert_eq!(
            parse_num(&argv("--nodes 3 --seed"), "--seed", &mut seed),
            Err("--seed wants a value".to_string())
        );
        assert_eq!(seed, 42);
        assert!(serve_args(&argv("--seed 1 --trace")).is_err());
        assert!(chaos_args(&argv("--seed")).is_err());
        assert!(heal_args(&argv("--gray")).is_err());
        assert!(query_options(&argv("--sql")).is_err());
    }

    #[test]
    fn non_numeric_values_are_rejected() {
        let err = chaos_args(&argv("--tasks many")).expect_err("not a number");
        assert_eq!(err, "--tasks wants a number, got \"many\"");
        assert!(serve_args(&argv("--load fast")).is_err());
    }

    #[test]
    fn serve_rejects_non_positive_or_non_finite_horizons_and_loads() {
        for bad in ["inf", "nan", "-1", "0"] {
            let err = serve_args(&argv(&format!("--horizon-ms {bad}"))).expect_err(bad);
            assert_eq!(err, "--horizon-ms must be a positive number");
            assert!(serve_args(&argv(&format!("--load {bad}"))).is_err());
        }
        let (options, trace) =
            serve_args(&argv("--horizon-ms 5 --load 2.5 --hedge --trace t.json"))
                .expect("valid flags");
        assert_eq!((options.horizon_ms, options.load), (5.0, 2.5));
        assert!(options.hedge && !options.retries);
        assert_eq!(trace.as_deref(), Some("t.json"));
    }

    #[test]
    fn campaigns_need_at_least_one_node_and_task() {
        assert!(chaos_args(&argv("--nodes 0")).is_err());
        assert!(heal_args(&argv("--tasks 0")).is_err());
        assert!(serve_args(&argv("--tenants 0")).is_err());
        let (options, trace) = heal_args(&argv("--nodes 1 --tasks 1")).expect("valid flags");
        assert_eq!((options.nodes, options.tasks), (1, 1));
        assert_eq!(trace, None);
    }
}
