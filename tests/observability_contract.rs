//! The observability contract: every span, counter, gauge, histogram,
//! monitor and event name the SDK records must be documented in
//! `docs/OBSERVABILITY.md`. Stable names are the interface tooling keys
//! on — adding instrumentation without documenting it fails here.

use std::collections::BTreeSet;

use everest_autotuner::{config, Autotuner, Features, Objective, OperatingPoint};
use everest_ir::pass::{ConstantFolding, Cse, Dce, LoopInvariantCodeMotion, PassManager};
use everest_olympus::KernelSpec;
use everest_platform::device::FpgaDevice;
use everest_platform::link::NetworkModel;
use everest_platform::memory::AccessPattern;
use everest_platform::xrt::{Direction, XrtDevice};
use everest_runtime::virt::{IoMode, PhysicalNode};
use everest_runtime::{
    Cluster, DetRng, FaultInjector, FaultKind, FaultPlan, FaultSpec, Policy, RecoveryConfig,
    RetryPolicy, Scheduler, TaskGraph, TaskSpec,
};
use everest_sdk::basecamp::{Basecamp, CompileOptions};
use everest_sdk::chaos::{run_chaos, ChaosOptions};
use everest_sdk::heal::{run_heal, HealOptions};
use everest_sdk::query::{run_query, QueryOptions};
use everest_sdk::serve::{run_serve, ServeOptions};
use everest_telemetry::Registry;

const CONTRACT: &str = include_str!("../docs/OBSERVABILITY.md");

/// A recorded name is covered when it appears verbatim in the doc, or
/// when it matches one of the two documented *structured* name schemes.
fn documented(name: &str) -> bool {
    if CONTRACT.contains(name) {
        return true;
    }
    // `ir.pass.<name>`: the scheme plus each pass name is documented.
    if let Some(pass) = name.strip_prefix("ir.pass.") {
        return CONTRACT.contains("ir.pass.<name>") && CONTRACT.contains(&format!("`{pass}`"));
    }
    // `autotuner.<config>.<metric>`: structured monitor names.
    if name.starts_with("autotuner.") && CONTRACT.contains("autotuner.<config>.<metric>") {
        return true;
    }
    // `health.node<i>.<series>`: per-node health-monitor windows.
    if let Some(rest) = name.strip_prefix("health.node") {
        let series_ok = rest.ends_with(".inflation") || rest.ends_with(".link");
        return series_ok && CONTRACT.contains("health.node<i>.<series>");
    }
    false
}

/// Exercises every instrumented subsystem so the global registry holds
/// a representative sample of the whole namespace.
fn exercise_sdk() {
    let basecamp = Basecamp::new();
    let source = "
        kernel contract_probe {
            index i : 0..256
            input x : [i]
            input y : [i]
            let s[i] = 2.0 * x[i] + y[i]
            let total = sum(i)(s[i])
            output s
            output total
        }";
    let compiled = basecamp
        .compile_kernel(
            source,
            CompileOptions {
                explore: true,
                ..CompileOptions::default()
            },
        )
        .expect("probe kernel compiles");
    basecamp.analyze_kernel(&compiled);
    basecamp
        .compile_coordination(everest_usecases::traffic::mapmatch::CONDRUST_MAP_MATCH)
        .expect("coordination compiles");

    // IR pass pipeline.
    let mut pm = PassManager::new();
    pm.add(Box::new(Dce))
        .add(Box::new(Cse))
        .add(Box::new(LoopInvariantCodeMotion))
        .add(Box::new(ConstantFolding));
    let mut module = compiled.module.clone();
    pm.run(basecamp.context(), &mut module)
        .expect("pipeline runs");

    // Olympus multi-kernel partitioning.
    let spec = KernelSpec::from_report(compiled.hls.clone(), 0.7);
    everest_olympus::partition(
        &[spec.clone(), spec],
        &FpgaDevice::alveo_u55c(),
        &NetworkModel::cloudfpga_tcp(),
        2,
    )
    .expect("partition succeeds");

    // Platform sessions: PCIe- and network-attached.
    for device in [FpgaDevice::alveo_u55c(), FpgaDevice::cloudfpga()] {
        let mut session = XrtDevice::open(device);
        session.load_bitstream("contract.xclbin");
        let bo = session.alloc_bo(1 << 20, 0).expect("fits");
        session
            .sync_bo(bo.handle, Direction::HostToDevice)
            .expect("syncs");
        session.run_kernel("contract_probe", 10_000).expect("runs");
        session.memory_stream_time_us(1 << 20, &AccessPattern::default());
    }

    // Scheduler with an injected failure.
    let mut graph = TaskGraph::new();
    let src = graph
        .add(TaskSpec::new("src", 100.0).with_output_bytes(1 << 10))
        .expect("adds");
    for i in 0..6 {
        graph
            .add(TaskSpec::new(&format!("work{i}"), 2_000.0).after([src]))
            .expect("adds");
    }
    let scheduler = Scheduler::new(Cluster::homogeneous(3, 1), Policy::Heft);
    scheduler.run(&graph);
    scheduler.run_with_plan(
        &graph,
        &FaultPlan::single_node_crash(0, 0, 1_500.0),
        &RecoveryConfig::default(),
    );

    // Fault injection across the platform session: DMA hang, transient
    // kernel error with retry, ECC stall, failed partial reconfig.
    let fault_plan = FaultPlan::new(99)
        .with_fault(FaultSpec::new(50.0, 0, FaultKind::DmaTimeout))
        .with_fault(FaultSpec::new(200.0, 0, FaultKind::TransientKernelError))
        .with_fault(FaultSpec::new(400.0, 0, FaultKind::MemoryEcc))
        .with_fault(FaultSpec::new(500.0, 0, FaultKind::PartialReconfigFail));
    let mut faulty = XrtDevice::open(FpgaDevice::alveo_u55c())
        .with_faults(FaultInjector::for_node(fault_plan, 0));
    faulty.load_bitstream("contract.xclbin");
    let bo = faulty.alloc_bo(1 << 20, 0).expect("fits");
    assert!(
        faulty.sync_bo(bo.handle, Direction::HostToDevice).is_err(),
        "planned DMA timeout must surface"
    );
    faulty
        .sync_bo(bo.handle, Direction::HostToDevice)
        .expect("second sync succeeds, timeout already fired");
    let mut rng = DetRng::new(99);
    faulty
        .run_kernel_with_retry("contract_probe", 100_000, &RetryPolicy::default(), &mut rng)
        .expect("transient recovers under retry");
    faulty
        .run_kernel("contract_probe", 100_000)
        .expect("ecc stalls but succeeds");
    assert!(
        faulty.partial_reconfig("role0").is_err(),
        "planned reconfig failure must surface"
    );

    // Plan-driven multi-fault scheduling: retries with backoff, CPU
    // degradation after a VF loss, quarantine after repeated faults.
    let mut chaos_graph = TaskGraph::new();
    for i in 0..8 {
        chaos_graph
            .add(TaskSpec::new(&format!("c{i}"), 4_000.0).with_fpga(500.0))
            .expect("adds");
    }
    let chaos_plan = FaultPlan::new(7)
        .with_fault(FaultSpec::new(100.0, 0, FaultKind::TransientKernelError))
        .with_fault(FaultSpec::new(600.0, 0, FaultKind::MemoryEcc))
        .with_fault(FaultSpec::new(1_200.0, 0, FaultKind::TransientKernelError))
        .with_fault(FaultSpec::new(10.0, 1, FaultKind::VfUnplug { vf: 0 }));
    Scheduler::new(Cluster::everest(0, 2, 4), Policy::Heft).run_with_plan(
        &chaos_graph,
        &chaos_plan,
        &RecoveryConfig {
            quarantine_threshold: 2,
            ..RecoveryConfig::default()
        },
    );

    // A full seeded campaign through the SDK facade (basecamp.chaos).
    run_chaos(&ChaosOptions {
        seed: 5,
        nodes: 2,
        tasks: 6,
        faults: 3,
    });

    // The closed self-healing loop through the SDK facade
    // (basecamp.heal): gray campaign, verdicts, breaker trips,
    // migrations, checkpoints and the in-process resume check.
    run_heal(&HealOptions::default());

    // The serving front end through the SDK facade (basecamp.serve):
    // overload sheds at the door and in queue, chaos exercises the
    // fault and breaker paths, the autotuner retunes the batch ceiling.
    run_serve(&ServeOptions {
        load: 4.0,
        chaos: 4,
        horizon_ms: 80.0,
        ..ServeOptions::default()
    });

    // The same front end with the full request-lifecycle layer on, so
    // the retry, hedge, limiter and brownout names are all recorded.
    run_serve(&ServeOptions {
        load: 4.0,
        chaos: 4,
        horizon_ms: 80.0,
        retries: true,
        hedge: true,
        limiter: true,
        brownout: true,
        ..ServeOptions::default()
    });

    // And with the partition-tolerance layer on: gossip rounds, SWIM
    // probes and confirms, shard failovers, fencing and the typed
    // partitioned-away shed all record their `cluster.*` names.
    run_serve(&ServeOptions {
        chaos: 3,
        partition: 3,
        horizon_ms: 80.0,
        retries: true,
        brownout: true,
        ..ServeOptions::default()
    });

    // An analytic query end to end through the SDK facade
    // (basecamp.query): parse, optimize, execute, lower to kernels.
    run_query(&QueryOptions::default()).expect("contract query runs");

    // SR-IOV virtualization: boots, plugs, contention, unplug, then the
    // fault path — a surprise unplug and its repair.
    let node = PhysicalNode::new("contract0", 16, FpgaDevice::alveo_u55c(), 2);
    let vm = node.start_vm(4, IoMode::VfPassthrough);
    let vf = node.plug_vf(vm).expect("first plug");
    node.plug_vf(vm).expect("second plug");
    assert!(node.plug_vf(vm).is_err(), "third plug must hit contention");
    node.unplug_vf(vm, vf).expect("unplug");
    let replug = node.plug_vf(vm).expect("replug");
    node.surprise_unplug_vf(replug).expect("surprise unplug");
    node.repair_vf(replug).expect("repair");

    // Autotuner sharing the global registry, forced to switch variants.
    let mut tuner = Autotuner::new().with_registry(Registry::global());
    tuner.add_point(OperatingPoint::new(config([("variant", "fpga")])).expect("time_us", 500.0));
    tuner.add_point(OperatingPoint::new(config([("variant", "cpu")])).expect("time_us", 4_000.0));
    tuner.set_objective(Objective::minimize("time_us"));
    let fpga = config([("variant", "fpga")]);
    tuner.best(&Features::new()).expect("decides");
    for _ in 0..10 {
        tuner.observe(&fpga, "time_us", 60_000.0);
    }
    tuner.best(&Features::new()).expect("decides again");
}

#[test]
fn every_recorded_name_is_documented() {
    let registry = Registry::global();
    exercise_sdk();

    let mut names: BTreeSet<String> = BTreeSet::new();
    names.extend(registry.spans().into_iter().map(|s| s.name));
    names.extend(registry.counter_names());
    names.extend(registry.gauge_names());
    names.extend(registry.histogram_names());
    names.extend(registry.monitor_names());
    names.extend(registry.events().into_iter().map(|e| e.name));

    // The probe must have touched every layer.
    for expected in [
        "basecamp.compile",
        "ir.pipeline",
        "hls.synthesize",
        "olympus.explore",
        "olympus.partition",
        "platform.pcie.bytes",
        "platform.network.bytes",
        "platform.faults.dma_timeouts",
        "platform.kernel.retries",
        "faults.injected",
        "scheduler.run",
        "scheduler.retries",
        "scheduler.degraded_tasks",
        "basecamp.chaos",
        "basecamp.heal",
        "health.samples",
        "health.verdicts",
        "scheduler.breaker_opens",
        "scheduler.migrations",
        "scheduler.checkpoints",
        "virt.vf_plugs",
        "virt.vf_faults",
        "virt.vf_repairs",
        "autotuner.switches",
        "basecamp.serve",
        "serve.run",
        "serve.requests_offered",
        "serve.requests_completed",
        "serve.batches_dispatched",
        "serve.queue_depth",
        "serve.latency_us",
        "serve.batch_size",
        "serve.faults",
        "serve.retry.attempts",
        "serve.hedge.launched",
        "serve.shed.overloaded",
        "serve.brownout.tier",
        "serve.limiter.limit",
        "basecamp.query",
        "query.parse",
        "query.optimize",
        "query.execute",
        "query.lower",
        "query.queries",
        "query.rows_out",
        "query.kernels",
    ] {
        assert!(
            names.contains(expected),
            "probe failed to record {expected}; recorded: {names:?}"
        );
    }

    let undocumented: Vec<&String> = names.iter().filter(|n| !documented(n)).collect();
    assert!(
        undocumented.is_empty(),
        "names recorded but missing from docs/OBSERVABILITY.md: {undocumented:?}"
    );
}

#[test]
fn chrome_trace_span_names_are_documented() {
    // Mirrors the CLI acceptance path: the span names that end up in a
    // `--trace` export must all be in the contract document.
    let registry = Registry::new();
    {
        let _compile = registry.span("basecamp.compile");
        let _hls = registry.span("basecamp.hls");
    }
    let trace = registry.to_chrome_trace();
    for span in registry.spans() {
        assert!(trace.contains(&format!("\"name\":\"{}\"", span.name)));
        assert!(documented(&span.name), "{} undocumented", span.name);
    }
}
