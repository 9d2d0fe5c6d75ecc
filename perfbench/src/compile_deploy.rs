//! The `compile_deploy` workload: one caller in a closed loop compiles a
//! seeded corpus built from the repository's own sources, then deploys
//! the results on the runtime scheduler.
//!
//! * Corpus: the RRTMG major-absorber EKL kernel over a dims sweep that
//!   includes `RrtmgDims::default()`, CFDlang contractions, the ConDRust
//!   map-match coordination program, and E19-style SQL over the
//!   traffic, airquality and energy catalogs. Every kernel and query is
//!   compiled for all three FPGA targets with Olympus exploration on, so
//!   the front half of the flow (frontend, lowering, HLS) sees the same
//!   input three times while Olympus sees three devices.
//! * Deploy: an ensemble workflow of a few thousand tasks whose
//!   accelerated steps take their `fpga_time_us` from the corpus runs
//!   clean, under crash plans (`run_with_plan`), under a gray plan blind
//!   (`run_with_plan`) and healed (`run_self_healing`), and resumes the
//!   healed campaign from its last checkpoint (`resume_self_healing`).
//!
//! An operation is one corpus item or one deploy campaign; it fails on
//! an error or a wrong output.

use std::time::Instant;

use everest_analysis::Analyzer;
use everest_ekl::check::Program;
use everest_ekl::rrtmg::{
    input_map, major_absorber_reference, major_absorber_source, synthetic_inputs, RrtmgDims,
};
use everest_hls::{HlsOptions, HlsReport};
use everest_ir::interp::{Buffer, Interpreter, Value};
use everest_ir::module::Module;
use everest_ir::registry::Context;
use everest_ir::verify::verify_module;
use everest_olympus::KernelSpec;
use everest_platform::device::FpgaDevice;
use everest_query::datasets::Dataset;
use everest_query::lower::lower;
use everest_query::optimizer::Optimizer;
use everest_query::{Batch, Catalog, LogicalPlan};
use everest_runtime::{
    BreakerConfig, Cluster, DetRng, FaultKind, FaultPlan, FaultSpec, HealPolicy, HealthConfig,
    Policy, RecoveryConfig, Scheduler, SimulationResult, TaskGraph,
};
use everest_sdk::{CompiledKernel, Workflow, WorkflowStep};

use crate::probe::Probe;
use crate::stats::{count_above, median, quantile};
use crate::{Check, Harness, Outcome, Pass};

/// Items per kernel invocation assumed by Olympus exploration (the
/// `CompileOptions` default).
const BATCH_ITEMS: u64 = 64;
/// Read share of kernel traffic (the `CompileOptions` default).
const READ_FRACTION: f64 = 0.7;
/// Read share for query kernels (as `run_query` uses).
const QUERY_READ_FRACTION: f64 = 0.6;
/// Seeded RRTMG dims drawn in addition to `RrtmgDims::default()`.
const RRTMG_VARIANTS: usize = 9;
/// Seeded instances of the six query templates.
const QUERY_INSTANCES: usize = 2;
/// Seeded CFDlang contraction programs.
const CFDLANG_PROGRAMS: usize = 12;
/// Ensemble members in the deployed workflow (4 tasks each, plus a
/// final merge).
const MEMBERS: usize = 600;
/// Deploy cluster: CPU nodes, FPGA nodes, cores per node.
const CLUSTER: (usize, usize, u32) = (2, 2, 4);
/// Seed of the deploy scenario: the ensemble's step times and kernel
/// picks, and the crash and gray plans (the repository's campaign
/// seed). The workload seed varies the corpus, and through it the
/// accelerated steps' FPGA times; the scenario stays fixed so every
/// seed poses the same recovery problem. Drawn per workload seed, the
/// healed makespan swings by a third between seeds.
const SCENARIO_SEED: u64 = 42;
/// Crash times, as shares of the clean makespan, of the crash
/// campaigns. The lineage fixpoint's cost swings by up to 4× with where
/// the crash lands in the schedule; crashes spread over the run together
/// make a load that varies little between workload seeds.
const CRASH_AT: [f64; 6] = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
/// Faults in the crash plan.
const CRASH_FAULTS: usize = 6;
/// Faults in the gray plan (the first is an anchored straggler).
const GRAY_FAULTS: usize = 4;
/// Relative tolerance of the compiled-RRTMG numerics check.
const RRTMG_TOLERANCE: f64 = 1e-12;

/// The three FPGA targets every kernel is compiled for.
fn targets() -> [(&'static str, FpgaDevice); 3] {
    [
        ("alveo_u55c", FpgaDevice::alveo_u55c()),
        ("alveo_u280", FpgaDevice::alveo_u280()),
        ("cloudfpga", FpgaDevice::cloudfpga()),
    ]
}

/// Source language of a corpus kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lang {
    Ekl,
    Cfdlang,
}

/// One tensor kernel of the corpus.
#[derive(Debug, Clone)]
struct KernelSource {
    name: String,
    lang: Lang,
    source: String,
    /// Set for RRTMG kernels, which the numerics check replays.
    dims: Option<RrtmgDims>,
}

/// One analytic query of the corpus.
#[derive(Debug, Clone)]
struct QuerySource {
    dataset: usize,
    sql: String,
}

/// One ensemble member of the deployed workflow.
#[derive(Debug, Clone)]
struct Member {
    ingest_us: f64,
    radiation_us: f64,
    contraction_us: f64,
    post_us: f64,
    /// Index into the RRTMG kernels.
    radiation_kernel: usize,
    /// Index into the CFDlang kernels.
    contraction_kernel: usize,
}

/// Everything set-up derives from the seed.
#[derive(Debug)]
struct Corpus {
    kernels: Vec<KernelSource>,
    coordination: &'static str,
    queries: Vec<QuerySource>,
    catalogs: Vec<Catalog>,
    members: Vec<Member>,
}

fn rrtmg_dims(rng: &mut DetRng) -> RrtmgDims {
    RrtmgDims {
        nlay: 8 + rng.index(57),
        ngpt: 4 + rng.index(13),
        ntemp: 5 + rng.index(10),
        npres: 10 + rng.index(51),
        neta: 4 + rng.index(6),
        nflav: 2,
    }
}

/// A CFDlang contraction program; the shape family cycles through a
/// plain contraction, a CFD-style interpolation chain, a rank-3
/// contraction and a sum of contractions.
fn cfdlang_source(family: usize, rng: &mut DetRng) -> String {
    let mut dim = || 8 + rng.index(41);
    match family % 4 {
        0 => {
            let (m, k, n) = (dim(), dim(), dim());
            format!(
                "var input A : [{m} {k}]\nvar input B : [{k} {n}]\nvar output C : [{m} {n}]\nC = A . B\n"
            )
        }
        1 => {
            let n = dim();
            format!(
                "var input A : [{n} {n}]\nvar input u : [{n}]\nvar t : [{n}]\nvar output r : [{n}]\nt = A . u\nr = A . t\n"
            )
        }
        2 => {
            let (a, b, c) = (dim(), dim(), dim());
            format!(
                "var input T : [{a} {b} {c}]\nvar input v : [{c}]\nvar output R : [{a} {b}]\nR = T . v\n"
            )
        }
        _ => {
            let (m, k) = (dim(), dim());
            format!(
                "var input A : [{m} {k}]\nvar input B : [{k} {m}]\nvar output C : [{m} {m}]\nC = A . B + A . B\n"
            )
        }
    }
}

/// E19-style queries with seeded constants: two per dataset, each
/// exercising the rewrite rules (foldable predicates, pushdowns,
/// prunable columns; the first traffic query adds an asymmetric join).
fn query_sources(rng: &mut DetRng) -> Vec<QuerySource> {
    let length = 1 + rng.index(200);
    let speed = 10 + rng.index(40);
    let receptors = 2 + rng.index(3);
    let day = rng.index(4);
    let wind = 1 + rng.index(5);
    let power = rng.index(10) as f64 / 10.0;
    let sql = [
        (
            0,
            format!(
                "SELECT t.traj_id, sum(s.length_m) AS dist FROM traj_segments t \
                 JOIN segments s ON t.seg_id = s.seg_id WHERE s.length_m > {length} + 1 \
                 GROUP BY t.traj_id ORDER BY dist DESC LIMIT 5"
            ),
        ),
        (
            0,
            format!(
                "SELECT from_node, count(*), avg(length_m) FROM segments \
                 WHERE speed_kmh > {speed} AND 1 < 2 GROUP BY from_node ORDER BY from_node"
            ),
        ),
        (
            1,
            format!(
                "SELECT day, max(prob), avg(peak) FROM air_quality \
                 WHERE prob >= 0.0 AND receptor < {receptors} AND true GROUP BY day ORDER BY day"
            ),
        ),
        (
            1,
            format!(
                "SELECT receptor, avg(peak) FROM air_quality \
                 WHERE day >= {day} AND capacity_limit > 10 + 10 GROUP BY receptor ORDER BY receptor"
            ),
        ),
        (
            2,
            format!(
                "SELECT count(*), avg(power_mw) FROM wind_power \
                 WHERE wind_ms > {wind} + 2 AND availability > 0.5"
            ),
        ),
        (
            2,
            format!(
                "SELECT hour, power_mw FROM wind_power \
                 WHERE power_mw > {power} AND 1 < 2 ORDER BY power_mw DESC LIMIT 10"
            ),
        ),
    ];
    sql.into_iter()
        .map(|(dataset, sql)| QuerySource { dataset, sql })
        .collect()
}

/// Builds the corpus, catalogs and workflow shape from the seed.
/// Returns the corpus and the seconds spent generating catalogs.
fn setup(seed: u64, probe: &Probe) -> Result<(Corpus, f64), String> {
    let root = DetRng::new(seed);
    let catalog_start = Instant::now();
    let catalogs = probe.layer("usecases.catalog", || {
        Dataset::ALL
            .iter()
            .map(|d| {
                d.catalog(seed)
                    .map_err(|e| format!("{} catalog: {e}", d.name()))
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let catalog_s = catalog_start.elapsed().as_secs_f64();

    let mut rng = root.fork(1);
    let mut kernels = vec![KernelSource {
        name: "major_absorber".to_string(),
        lang: Lang::Ekl,
        source: major_absorber_source(RrtmgDims::default()),
        dims: Some(RrtmgDims::default()),
    }];
    for _ in 0..RRTMG_VARIANTS {
        let dims = rrtmg_dims(&mut rng);
        kernels.push(KernelSource {
            name: "major_absorber".to_string(),
            lang: Lang::Ekl,
            source: major_absorber_source(dims),
            dims: Some(dims),
        });
    }
    let mut rng = root.fork(2);
    for i in 0..CFDLANG_PROGRAMS {
        kernels.push(KernelSource {
            name: format!("cfd{i}"),
            lang: Lang::Cfdlang,
            source: cfdlang_source(i, &mut rng),
            dims: None,
        });
    }
    let queries = (0..QUERY_INSTANCES)
        .flat_map(|i| query_sources(&mut root.fork(3 + 10 * i as u64)))
        .collect();

    let mut rng = DetRng::new(SCENARIO_SEED).fork(4);
    let members = (0..MEMBERS)
        .map(|_| Member {
            ingest_us: rng.range_f64(1_000.0, 3_000.0),
            radiation_us: rng.range_f64(30_000.0, 50_000.0),
            contraction_us: rng.range_f64(10_000.0, 20_000.0),
            post_us: rng.range_f64(2_000.0, 4_000.0),
            radiation_kernel: rng.index(1 + RRTMG_VARIANTS),
            contraction_kernel: rng.index(CFDLANG_PROGRAMS),
        })
        .collect();
    Ok((
        Corpus {
            kernels,
            coordination: everest_usecases::traffic::mapmatch::CONDRUST_MAP_MATCH,
            queries,
            catalogs,
            members,
        },
        catalog_s,
    ))
}

/// Deterministic facts one compile produced.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Facts {
    ir_ops: u64,
    findings: u64,
    cycles: u64,
    fpga_us: f64,
    rows_scanned: u64,
}

impl Facts {
    fn add(&mut self, other: Facts) {
        self.ir_ops += other.ir_ops;
        self.findings += other.findings;
        self.cycles += other.cycles;
        self.fpga_us += other.fpga_us;
        self.rows_scanned += other.rows_scanned;
    }

    /// The sum over the items that compiled.
    fn total(items: &[Option<Facts>]) -> Facts {
        let mut total = Facts::default();
        for &item in items.iter().flatten() {
            total.add(item);
        }
        total
    }
}

/// Olympus back half: explore the architecture space for `device`,
/// estimate the makespan, emit and verify the `olympus` IR. Returns the
/// system IR and the per-item FPGA time.
fn olympus(
    ctx: &Context,
    probe: &Probe,
    hls: &HlsReport,
    read_fraction: f64,
    device: &FpgaDevice,
) -> Result<(everest_olympus::SystemArchitecture, Module, f64), String> {
    let (architecture, ir, per_item) = probe.layer("olympus.system", || {
        let spec = KernelSpec::from_report(hls.clone(), read_fraction);
        let architecture = everest_olympus::explore(&spec, device, BATCH_ITEMS)
            .map_err(|e| format!("olympus: {e}"))?
            .best;
        let makespan = everest_olympus::estimate_makespan(&architecture, device, BATCH_ITEMS);
        let ir = everest_olympus::emit_ir(&architecture);
        Ok::<_, String>((architecture, ir, makespan.total_us / BATCH_ITEMS as f64))
    })?;
    probe
        .layer("ir.verify", || verify_module(ctx, &ir))
        .map_err(|e| format!("system IR: {e}"))?;
    Ok((architecture, ir, per_item))
}

/// Runs the default lint suite over `modules`; a deny finding is an
/// error.
fn lint(ctx: &Context, probe: &Probe, modules: &[&Module]) -> Result<u64, String> {
    probe.layer("analysis.lint", || {
        let analyzer = Analyzer::with_default_lints();
        let mut findings = 0u64;
        for module in modules {
            let report = analyzer.run(ctx, module);
            if report.has_denials() {
                return Err(format!("deny findings:\n{}", report.to_text()));
            }
            findings += report.diagnostics.len() as u64;
        }
        Ok(findings)
    })
}

/// Compiles one EKL or CFDlang kernel for one device.
fn compile_kernel(
    ctx: &Context,
    probe: &Probe,
    kernel: &KernelSource,
    device: &FpgaDevice,
) -> Result<(CompiledKernel, Facts), String> {
    let program: Program = probe.layer("ekl.frontend", || match kernel.lang {
        Lang::Ekl => {
            let ast = everest_ekl::parser::parse(&kernel.source).map_err(|e| e.to_string())?;
            everest_ekl::check::check(&ast).map_err(|e| e.to_string())
        }
        Lang::Cfdlang => {
            everest_ekl::cfdlang::compile(&kernel.source, &kernel.name).map_err(|e| e.to_string())
        }
    })?;
    let module = probe
        .layer("ekl.lower", || everest_ekl::lower::lower_to_loops(&program))
        .map_err(|e| format!("lower: {e}"))?;
    probe
        .layer("ir.verify", || verify_module(ctx, &module))
        .map_err(|e| format!("verify: {e}"))?;
    let hls = probe
        .layer("hls.synthesize", || {
            everest_hls::synthesize(&module, &program.name, HlsOptions::default())
        })
        .map_err(|e| format!("hls: {e}"))?;
    let (architecture, system_ir, fpga_us) = olympus(ctx, probe, &hls, READ_FRACTION, device)?;
    let findings = lint(ctx, probe, &[&module, &system_ir])?;
    let facts = Facts {
        ir_ops: module.num_ops() as u64,
        findings,
        cycles: hls.cycles,
        fpga_us,
        rows_scanned: 0,
    };
    Ok((
        CompiledKernel {
            program,
            module,
            hls,
            architecture: Some(architecture),
            system_ir: Some(system_ir),
            fpga_time_us: Some(fpga_us),
        },
        facts,
    ))
}

/// Rows the executor reads for one run of a plan: base-table sizes
/// under every `Scan`.
fn scanned_rows(plan: &LogicalPlan, catalog: &Catalog) -> u64 {
    let own = match plan {
        LogicalPlan::Scan { table, .. } => catalog.get(table).map_or(0, |t| t.rows.len() as u64),
        _ => 0,
    };
    own + plan
        .children()
        .iter()
        .map(|c| scanned_rows(c, catalog))
        .sum::<u64>()
}

/// Plans, optimizes, executes and lowers one query, then builds its
/// dominant kernel's system for one device. Returns the result rows and
/// the unoptimized plan for the rewrite-equivalence check.
fn compile_query(
    ctx: &Context,
    probe: &Probe,
    sql: &str,
    catalog: &Catalog,
    device: &FpgaDevice,
) -> Result<(Batch, LogicalPlan, Facts), String> {
    let plan = probe
        .layer("query.plan", || everest_query::plan_sql(catalog, sql))
        .map_err(|e| format!("plan: {e}"))?;
    let (optimizer, optimized) = probe.layer("query.optimize", || {
        let optimizer = Optimizer::for_catalog(catalog);
        let optimized = optimizer.optimize(&plan);
        (optimizer, optimized)
    });
    let batch = probe
        .layer("query.exec", || everest_query::run(catalog, &optimized))
        .map_err(|e| format!("exec: {e}"))?;
    let lowered = probe
        .layer("query.lower", || {
            lower(&optimized, &optimizer, &HlsOptions::default())
        })
        .map_err(|e| format!("lower: {e}"))?;
    probe
        .layer("ir.verify", || verify_module(ctx, &lowered.module))
        .map_err(|e| format!("verify: {e}"))?;
    let dominant = lowered
        .dominant_kernel()
        .ok_or("query lowered to no kernels")?;
    let (_, system_ir, fpga_us) = olympus(ctx, probe, &dominant.hls, QUERY_READ_FRACTION, device)?;
    let findings = lint(ctx, probe, &[&lowered.module, &system_ir])?;
    let facts = Facts {
        ir_ops: lowered.module.num_ops() as u64
            + lowered
                .kernels
                .iter()
                .map(|k| k.module.num_ops() as u64)
                .sum::<u64>(),
        findings,
        cycles: lowered.total_cycles(),
        fpga_us,
        rows_scanned: scanned_rows(&optimized, catalog),
    };
    Ok((batch, plan, facts))
}

/// Extracts, lowers, verifies and lints the ConDRust coordination
/// program.
fn compile_coordination(ctx: &Context, probe: &Probe, source: &str) -> Result<Facts, String> {
    let graph = probe
        .layer("condrust.extract", || {
            let function = everest_condrust::parse_function(source).map_err(|e| e.to_string())?;
            everest_condrust::DataflowGraph::from_function(&function).map_err(|e| e.to_string())
        })
        .map_err(|e| format!("condrust: {e}"))?;
    let dfg = probe
        .layer("condrust.lower", || {
            everest_condrust::lower::lower_to_dfg(&graph)
        })
        .map_err(|e| format!("condrust lower: {e}"))?;
    probe
        .layer("ir.verify", || verify_module(ctx, &dfg))
        .map_err(|e| format!("verify: {e}"))?;
    let findings = lint(ctx, probe, &[&dfg])?
        + probe.layer("analysis.lint", || {
            Analyzer::with_default_lints()
                .run_graph(&graph)
                .diagnostics
                .len() as u64
        });
    Ok(Facts {
        ir_ops: dfg.num_ops() as u64,
        findings,
        ..Facts::default()
    })
}

/// The ensemble workflow descriptor: per member ingest → (radiation ∥
/// contraction, both offloaded) → post, then one merge of every member.
fn workflow(corpus: &Corpus, kernel_names: &[String]) -> Workflow {
    let rrtmg = 1 + RRTMG_VARIANTS;
    let mut workflow = Workflow::new("ensemble");
    let mut posts = Vec::with_capacity(corpus.members.len());
    for (i, m) in corpus.members.iter().enumerate() {
        let step =
            |name: String, deps: Vec<String>, cpu_us: f64, kernel: Option<usize>| WorkflowStep {
                name,
                depends_on: deps,
                cpu_us,
                output_bytes: 1 << 16,
                accelerate_with: kernel.map(|k| kernel_names[k].clone()),
            };
        let ingest = format!("m{i}.ingest");
        let radiation = format!("m{i}.radiation");
        let contraction = format!("m{i}.contraction");
        let post = format!("m{i}.post");
        workflow = workflow
            .step(step(ingest.clone(), vec![], m.ingest_us, None))
            .step(step(
                radiation.clone(),
                vec![ingest.clone()],
                m.radiation_us,
                Some(m.radiation_kernel),
            ))
            .step(step(
                contraction.clone(),
                vec![ingest],
                m.contraction_us,
                Some(rrtmg + m.contraction_kernel),
            ))
            .step(step(
                post.clone(),
                vec![radiation, contraction],
                m.post_us,
                None,
            ));
        posts.push(post);
    }
    workflow.step(WorkflowStep {
        name: "merge".to_string(),
        depends_on: posts,
        cpu_us: 5_000.0,
        output_bytes: 1 << 20,
        accelerate_with: None,
    })
}

/// What one deploy produced.
#[derive(Debug, Clone, PartialEq)]
struct Deploy {
    tasks: usize,
    clean_us: f64,
    crash_us: Vec<f64>,
    blind_us: f64,
    healed_us: f64,
    recovered_tasks: usize,
    migrations: usize,
    all_tasks_completed: bool,
    resume_matched: bool,
}

impl Deploy {
    /// Whether every campaign completed and the resume matched.
    fn sound(&self) -> bool {
        self.all_tasks_completed && self.resume_matched
    }
}

/// Whether every task of `graph` appears in the schedule.
fn completes_all(result: &SimulationResult, graph: &TaskGraph) -> bool {
    let mut seen = vec![false; graph.len()];
    for entry in &result.entries {
        if let Some(slot) = seen.get_mut(entry.task) {
            *slot = true;
        }
    }
    seen.iter().all(|&s| s)
}

/// Bit-exact equality of two simulation results.
fn results_match(a: &SimulationResult, b: &SimulationResult) -> bool {
    a.entries == b.entries
        && a.makespan_us == b.makespan_us
        && a.transfer_us == b.transfer_us
        && a.recovered_tasks == b.recovered_tasks
        && a.node_busy_us == b.node_busy_us
        && a.recovery == b.recovery
        && a.heal == b.heal
}

/// A crash plan: the transient faults of `FaultPlan::random_campaign`
/// over the first 80% of the clean makespan, plus the crash of one FPGA
/// node at `crash_at` of it, so the accelerated steps' lineage must be
/// recovered.
fn crash_plan(nodes: usize, clean_us: f64, crash_at: f64) -> FaultPlan {
    let mut plan = FaultPlan::new(SCENARIO_SEED);
    for fault in
        FaultPlan::random_campaign(SCENARIO_SEED, nodes, clean_us * 0.8, CRASH_FAULTS).faults()
    {
        if !matches!(fault.kind, FaultKind::NodeCrash) {
            plan.push(fault.clone());
        }
    }
    let (cpu, fpga, _) = CLUSTER;
    let node = cpu + DetRng::new(SCENARIO_SEED).fork(0xC2A5).index(fpga);
    plan.push(FaultSpec::new(
        clean_us * crash_at,
        node,
        FaultKind::NodeCrash,
    ));
    plan
}

/// Runs one deploy campaign as a `runtime.schedule` layer call and
/// appends its host seconds to `seconds`.
fn campaign<T>(probe: &Probe, seconds: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let result = probe.layer("runtime.schedule", f);
    seconds.push(start.elapsed().as_secs_f64());
    result
}

/// Deploys the workflow on the runtime scheduler: clean, one campaign
/// per crash time, the gray plan blind and healed, then a resume of the
/// healed campaign. Each campaign's host seconds go to `campaign_s`.
fn deploy(
    probe: &Probe,
    workflow: &Workflow,
    kernels: &[(&str, &CompiledKernel)],
    campaign_s: &mut Vec<f64>,
) -> Result<Deploy, String> {
    let graph = workflow
        .to_task_graph(kernels)
        .map_err(|e| format!("workflow: {e}"))?;
    let (cpu, fpga, cores) = CLUSTER;
    let nodes = cpu + fpga;
    let scheduler = Scheduler::new(Cluster::everest(cpu, fpga, cores), Policy::Heft);
    let config = RecoveryConfig::default();

    let clean = campaign(probe, campaign_s, || scheduler.run(&graph));
    let crashed: Vec<SimulationResult> = CRASH_AT
        .iter()
        .map(|&at| {
            let plan = crash_plan(nodes, clean.makespan_us, at);
            campaign(probe, campaign_s, || {
                scheduler.run_with_plan(&graph, &plan, &config)
            })
        })
        .collect();
    // The self-healing policy of `basecamp heal`: convict on the first
    // sample and keep convicted nodes out for the whole campaign.
    let horizon = clean.makespan_us * 3.0;
    let gray_plan = FaultPlan::random_gray_campaign(SCENARIO_SEED, nodes, horizon, GRAY_FAULTS);
    let policy = HealPolicy {
        health: HealthConfig {
            min_samples: 1,
            creep_per_ms: 0.2,
            ..HealthConfig::default()
        },
        breaker: BreakerConfig {
            open_us: horizon,
            ..BreakerConfig::default()
        },
        checkpoint_every_tasks: 6,
        ..HealPolicy::default()
    };
    let blind = campaign(probe, campaign_s, || {
        scheduler.run_with_plan(&graph, &gray_plan, &config)
    });
    let healed = campaign(probe, campaign_s, || {
        scheduler.run_self_healing(&graph, &gray_plan, &config, &policy)
    });
    let last = healed
        .checkpoints
        .last()
        .ok_or("healed campaign took no checkpoint")?;
    let resumed = campaign(probe, campaign_s, || {
        scheduler.resume_self_healing(&graph, &gray_plan, &config, &policy, last)
    });
    let all_tasks_completed = std::iter::once(&clean)
        .chain(&crashed)
        .chain([&blind, &healed.result])
        .all(|r| completes_all(r, &graph));
    Ok(Deploy {
        tasks: graph.len(),
        clean_us: clean.makespan_us,
        crash_us: crashed.iter().map(|r| r.makespan_us).collect(),
        blind_us: blind.makespan_us,
        healed_us: healed.result.makespan_us,
        recovered_tasks: crashed.iter().map(|r| r.recovered_tasks).sum(),
        migrations: healed.result.heal.migrations,
        all_tasks_completed,
        resume_matched: results_match(&resumed, &healed.result),
    })
}

/// Per-pass summary.
#[derive(Debug, Clone, PartialEq)]
struct PassResult {
    /// Host seconds per corpus item, in corpus order.
    item_s: Vec<f64>,
    /// Items that errored (with the error).
    errors: Vec<String>,
    /// Facts per corpus item, in corpus order (`None` for an item that
    /// errored).
    item_facts: Vec<Option<Facts>>,
    deploy: Option<Deploy>,
    /// Host seconds per deploy campaign, in deploy order.
    campaign_s: Vec<f64>,
}

/// Outputs kept from the warm-up pass for the correctness checks.
#[derive(Debug, Default)]
struct Kept {
    rrtmg: Vec<(RrtmgDims, Module)>,
    queries: Vec<(usize, Batch, LogicalPlan)>,
}

/// Compiles one corpus item, recording its host time and its facts or
/// error into `result`.
fn timed_item(result: &mut PassResult, what: &str, f: impl FnOnce() -> Result<Facts, String>) {
    let start = Instant::now();
    let outcome = f();
    result.item_s.push(start.elapsed().as_secs_f64());
    match outcome {
        Ok(facts) => result.item_facts.push(Some(facts)),
        Err(e) => {
            result.item_facts.push(None);
            result.errors.push(format!("{what}: {e}"));
        }
    }
}

/// One pass: the whole corpus for every target, then the deploy.
fn pass(ctx: &Context, probe: &Probe, corpus: &Corpus, mut kept: Option<&mut Kept>) -> PassResult {
    let mut result = PassResult {
        item_s: Vec::new(),
        errors: Vec::new(),
        item_facts: Vec::new(),
        deploy: None,
        campaign_s: Vec::new(),
    };
    // Kernels compiled for the first target feed the deploy.
    let mut deployable: Vec<Option<CompiledKernel>> = vec![None; corpus.kernels.len()];
    for (target, device) in targets() {
        for (index, kernel) in corpus.kernels.iter().enumerate() {
            timed_item(
                &mut result,
                &format!("kernel {index} ({}) for {target}", kernel.name),
                || {
                    let (compiled, facts) = compile_kernel(ctx, probe, kernel, &device)?;
                    if target == "alveo_u55c" {
                        if let (Some(dims), Some(kept)) = (kernel.dims, kept.as_deref_mut()) {
                            kept.rrtmg.push((dims, compiled.module.clone()));
                        }
                        deployable[index] = Some(compiled);
                    }
                    Ok(facts)
                },
            );
        }
        for (index, query) in corpus.queries.iter().enumerate() {
            let catalog = &corpus.catalogs[query.dataset];
            timed_item(&mut result, &format!("query {index} for {target}"), || {
                let (batch, plan, facts) = compile_query(ctx, probe, &query.sql, catalog, &device)?;
                if let (Some(kept), "alveo_u55c") = (kept.as_deref_mut(), target) {
                    kept.queries.push((query.dataset, batch, plan));
                }
                Ok(facts)
            });
        }
    }
    timed_item(&mut result, "coordination", || {
        compile_coordination(ctx, probe, corpus.coordination)
    });

    let names: Vec<String> = (0..corpus.kernels.len()).map(|i| format!("k{i}")).collect();
    let kernels: Option<Vec<(&str, &CompiledKernel)>> = deployable
        .iter()
        .zip(&names)
        .map(|(k, name)| k.as_ref().map(|k| (name.as_str(), k)))
        .collect();
    match kernels {
        Some(kernels) => match deploy(
            probe,
            &workflow(corpus, &names),
            &kernels,
            &mut result.campaign_s,
        ) {
            Ok(d) => result.deploy = Some(d),
            Err(e) => result.errors.push(format!("deploy: {e}")),
        },
        None => result
            .errors
            .push("deploy: a corpus kernel failed to compile".to_string()),
    }
    result
}

/// Each operation's [`crate::fastest`] host times over `runs`, where a
/// run lists its operations' times in a fixed order. A run that stopped
/// early (an error) shortens every column to its length.
fn fastest_per_operation<'a>(runs: impl Iterator<Item = &'a [f64]> + Clone) -> Vec<Vec<f64>> {
    let operations = runs.clone().map(<[f64]>::len).min().unwrap_or(0);
    (0..operations)
        .map(|i| crate::fastest(&runs.clone().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// Whether two outputs both exist and differ.
fn differs<T: PartialEq>(a: &Option<T>, b: &Option<T>) -> bool {
    matches!((a, b), (Some(a), Some(b)) if a != b)
}

/// Runs the compiled RRTMG loop IR in the IR interpreter and compares
/// it with the Fortran-shaped reference.
fn rrtmg_matches(dims: RrtmgDims, module: &Module) -> Result<(), String> {
    let inputs = synthetic_inputs(dims);
    let reference = major_absorber_reference(dims, &inputs);
    let program = everest_ekl::rrtmg::major_absorber_program(dims);
    let map = input_map(&inputs);
    let mut interp = Interpreter::new();
    let mut args = Vec::new();
    for name in &program.inputs {
        let t = &map[name];
        args.push(interp.alloc_buffer(Buffer::from_data(&t.shape, t.data.clone())));
    }
    let out = interp.alloc_buffer(Buffer::zeros(&program.tensors["tau_abs"].shape));
    args.push(out.clone());
    interp
        .run_function(module, "major_absorber", &args)
        .map_err(|e| format!("interpreter: {e}"))?;
    let Value::Buffer(handle) = out else {
        return Err("output is not a buffer".to_string());
    };
    let got = &interp.buffer(handle).data;
    if got.len() != reference.len() {
        return Err(format!(
            "{} outputs, reference has {}",
            got.len(),
            reference.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(&reference).enumerate() {
        if (g - w).abs() > RRTMG_TOLERANCE * w.abs().max(1.0) {
            return Err(format!("tau_abs[{i}]: compiled {g} vs reference {w}"));
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(harness: &Harness, seed: u64) -> Result<Outcome, String> {
    let probe = harness.setup_probe();
    let ctx = Context::with_all_dialects();
    let mut catalog_s = Vec::new();
    let mut kept = Kept::default();
    let mut first = true;
    let measured = harness.measure(
        || {
            let (built, catalogs) = setup(seed, &probe)?;
            catalog_s.push(catalogs);
            Ok(built)
        },
        |corpus, probe| {
            let keep = std::mem::take(&mut first).then_some(&mut kept);
            pass(&ctx, probe, corpus, keep)
        },
    )?;

    let (corpus, warmup, passes) = (&measured.setup, &measured.warmup, &measured.passes);
    let mut outcome = Outcome::default();
    let all = std::iter::once(warmup).chain(passes.iter().map(|p| &p.result));
    for result in all.clone() {
        outcome.attempted += result.item_s.len() as u64 + 1;
        outcome.failed += result.errors.len() as u64;
    }
    for error in all.clone().flat_map(|r| &r.errors).take(5) {
        eprintln!("error: {error}");
    }

    // Correctness. Every failed check on an output also counts its
    // operation as failed: a corpus item or a deploy campaign.
    for (dims, module) in &kept.rrtmg {
        let verdict = rrtmg_matches(*dims, module);
        outcome.failed += u64::from(verdict.is_err());
        outcome.checks.push(Check::new(
            &format!(
                "rrtmg {}x{}x{}x{}x{} interp = reference",
                dims.nlay, dims.ngpt, dims.ntemp, dims.npres, dims.neta
            ),
            verdict.is_ok(),
            verdict.err().unwrap_or_default(),
        ));
    }
    for (index, (dataset, batch, plan)) in kept.queries.iter().enumerate() {
        let unoptimized = everest_query::run(&corpus.catalogs[*dataset], plan);
        let same = unoptimized.as_ref().is_ok_and(|rows| rows == batch);
        outcome.failed += u64::from(!same);
        outcome.checks.push(Check::new(
            &format!("query {index} optimized rows = unoptimized"),
            same,
            format!("{} rows", batch.rows.len()),
        ));
    }
    let deploys: Vec<&Deploy> = all.clone().filter_map(|r| r.deploy.as_ref()).collect();
    let unmatched = deploys.iter().filter(|d| !d.resume_matched).count();
    let incomplete = deploys.iter().filter(|d| !d.all_tasks_completed).count();
    outcome.failed += deploys.iter().filter(|d| !d.sound()).count() as u64;
    outcome.checks.push(Check::new(
        "deploy resume_matched",
        unmatched == 0,
        format!("{unmatched} of {} campaigns unmatched", deploys.len()),
    ));
    let deploy = warmup.deploy.as_ref();
    outcome.checks.push(Check::new(
        "deploy completes every task",
        incomplete == 0,
        deploy.map_or(String::new(), |d| {
            format!("{} tasks, {incomplete} campaigns incomplete", d.tasks)
        }),
    ));
    // A pass replays when every corpus item yields the warm-up's facts
    // and the deploy the warm-up's outputs; each item or deploy that
    // does not is a failed operation (errors and unsound deploys are
    // counted above).
    let mut diverged = 0u64;
    for pass in passes {
        let result = &pass.result;
        diverged += result
            .item_facts
            .iter()
            .zip(&warmup.item_facts)
            .filter(|(a, b)| differs(a, b))
            .count() as u64
            + u64::from(
                differs(&result.deploy, &warmup.deploy)
                    && result.deploy.as_ref().is_some_and(Deploy::sound),
            );
    }
    outcome.failed += diverged;
    outcome.checks.push(Check::new(
        "passes replay identically",
        diverged == 0,
        format!(
            "{} passes, {diverged} diverging operations",
            passes.len() + 1
        ),
    ));
    let spans_steady = passes.iter().all(|p| p.sdk_spans == passes[0].sdk_spans);
    outcome.checks.push(Check::new(
        "telemetry reset keeps per-pass span count steady",
        spans_steady,
        format!("{} spans per pass", passes[0].sdk_spans),
    ));

    // Host times per operation (corpus item or deploy campaign): each
    // operation's fastest tenth over the untraced passes. Every operation
    // picks its own fast moments of the host, which varies less between
    // runs than taking the fastest whole passes: over thirteen 30 s runs,
    // a third of them in a slow phase, flow_s spread 0.042 this way
    // against 0.059 from whole passes, and the item p95 0.035 against
    // 0.055 over ten calmer runs.
    let untraced: Vec<&Pass<PassResult>> = passes.iter().filter(|p| !p.traced).collect();
    let item_fast = fastest_per_operation(untraced.iter().map(|p| p.result.item_s.as_slice()));
    let campaign_fast =
        fastest_per_operation(untraced.iter().map(|p| p.result.campaign_s.as_slice()));
    // The rest of a pass: building the workflow and its task graph.
    let rest: Vec<f64> = untraced
        .iter()
        .map(|p| {
            let r = &p.result;
            p.seconds - r.item_s.iter().sum::<f64>() - r.campaign_s.iter().sum::<f64>()
        })
        .collect();
    let flow_s = item_fast
        .iter()
        .chain(&campaign_fast)
        .map(|fast| median(fast))
        .sum::<f64>()
        + crate::fast_median(&rest);
    let items: Vec<f64> = item_fast.iter().flatten().map(|s| s * 1e3).collect();
    let p95 = quantile(&items, 0.95);
    outcome.notes.push(format!(
        "compile items: {} samples, each item's fastest tenth of {} untraced passes, p50 {:.3} ms, p95 {:.3} ms with {} samples above",
        items.len(),
        untraced.len(),
        median(&items),
        p95,
        count_above(&items, p95)
    ));
    let above = count_above(&items, p95);
    outcome.checks.push(Check::new(
        "compile p95 has at least ten samples above it",
        above >= 10,
        format!("{} samples, {above} above p95", items.len()),
    ));
    outcome
        .notes
        .push(format!("set-up: {} repetitions", catalog_s.len()));
    let p50 = median(&items);
    outcome.notes.push(measured.pace_note(&[
        ("setup_s", measured.setup_s),
        ("flow_s", flow_s),
        ("latency_p50_ms", p50),
        ("latency_tail_ms", p95),
    ]));
    let m = &mut outcome.metrics;
    m.insert("setup_s", measured.at_reference_pace(measured.setup_s));
    m.insert("peak_rss_mb", measured.peak_rss_mib);
    m.insert("flow_s", measured.at_reference_pace(flow_s));
    m.insert("latency_p50_ms", measured.at_reference_pace(p50));
    m.insert("latency_tail_ms", measured.at_reference_pace(p95));
    if let Some(d) = deploy {
        m.insert("goodput_per_s", d.tasks as f64 / (d.healed_us / 1e6));
        // The deploy's SLO is its fault-free makespan; under the gray
        // plan the healed campaign attains this share of it.
        m.insert("slo_attainment", d.clean_us / d.healed_us);
    }

    // Per-layer counts (deterministic per seed) and set-up timings.
    let f = Facts::total(&warmup.item_facts);
    m.insert("ir.ops", f.ir_ops as f64);
    m.insert("analysis.findings", f.findings as f64);
    m.insert("hls.cycles", f.cycles as f64);
    m.insert("olympus.fpga_us_total", f.fpga_us);
    m.insert("query.rows_scanned", f.rows_scanned as f64);
    m.insert("usecases.catalog_s", crate::fast_median(&catalog_s));
    if let Some(d) = deploy {
        m.insert("runtime.tasks", d.tasks as f64);
        m.insert("runtime.recovered_tasks", d.recovered_tasks as f64);
        m.insert("runtime.migrations", d.migrations as f64);
        let damage = d.blind_us - d.clean_us;
        m.insert(
            "runtime.healed_fraction",
            if damage > 0.0 {
                (d.blind_us - d.healed_us) / damage
            } else {
                0.0
            },
        );
        m.insert("runtime.clean_makespan_us", d.clean_us);
        m.insert("runtime.blind_makespan_us", d.blind_us);
        m.insert("runtime.healed_makespan_us", d.healed_us);
        outcome.notes.push(format!(
            "deploy: {} tasks, makespan clean {:.1} us, crash {:.1?} us, gray blind {:.1} us, \
             gray healed {:.1} us",
            d.tasks, d.clean_us, d.crash_us, d.blind_us, d.healed_us
        ));
    }
    m.insert("telemetry.spans", passes[0].sdk_spans as f64);
    crate::insert_overhead(m, passes);
    Ok(outcome)
}
