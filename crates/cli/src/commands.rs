//! Command implementations. Each returns the full output as a `String`
//! (so the logic is unit-testable without capturing stdout).

use crate::args::{Cli, Command, ScenarioArgs, USAGE};
use pdftsp_cluster::parallel_map;
use pdftsp_core::PreheatSpec;
use pdftsp_core::{probe_bid, Pdftsp, PdftspConfig};
use pdftsp_lora::{CalibrationTable, TransformerConfig};
use pdftsp_sim::{
    empirical_ratio_with_telemetry, lease_fault_plan, partition_zones, render_gantt,
    render_timeline, run_algo, run_pdftsp_instrumented, run_pdftsp_with_faults, run_scheduler,
    run_spot, run_zoned, try_run_algo, write_dual_grid, Algo, AuctionService, FaultEvent,
    FaultPlan, FaultSpec, FigureTable, Observability, RunResult, ServiceConfig, ServiceOutcome,
};
use pdftsp_solver::milp::MilpConfig;
use pdftsp_telemetry::{chrome, prometheus, JsonlSink, Stage, Telemetry};
use pdftsp_types::Scenario;
use pdftsp_workload::{ScenarioBuilder, SpotSpec};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Builds the scenario the shared arguments describe.
#[must_use]
pub fn build_scenario(args: &ScenarioArgs) -> Scenario {
    ScenarioBuilder {
        horizon: args.slots,
        num_nodes: args.nodes,
        node_mix: args.mix,
        arrivals: args.arrivals(),
        num_vendors: args.vendors,
        deadline_policy: args.deadline,
        paradigm: args.paradigm,
        seed: args.seed,
        ..ScenarioBuilder::default()
    }
    .build()
}

/// Builds, loads, and/or persists the scenario per the CLI's
/// `--load`/`--save` options.
fn obtain_scenario(cli: &Cli) -> Result<Scenario, String> {
    let scenario = match &cli.load {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("--load {path}: {e}"))?;
            pdftsp_types::load_scenario(&text).map_err(|e| format!("--load {path}: {e}"))?
        }
        None => build_scenario(&cli.scenario),
    };
    if let Some(path) = &cli.save {
        std::fs::write(path, pdftsp_types::save_scenario(&scenario))
            .map_err(|e| format!("--save {path}: {e}"))?;
    }
    Ok(scenario)
}

/// Executes `cli`, returning the printable report.
#[must_use]
pub fn execute(cli: &Cli) -> String {
    if matches!(cli.command, Command::Help) {
        return USAGE.to_string();
    }
    if matches!(cli.command, Command::Calibrate) {
        return calibrate(&cli.scenario);
    }
    let scenario = match obtain_scenario(cli) {
        Ok(s) => s,
        Err(e) => {
            return format!(
                "error: {e}
"
            )
        }
    };
    match cli.command {
        Command::Simulate { algo } => simulate(&scenario, &cli.scenario, algo, cli),
        Command::Compare => compare(&scenario, &cli.scenario, cli.csv),
        Command::Report => report(&scenario, cli),
        Command::Audit => audit(&scenario),
        Command::Ratio => ratio(&scenario, &cli.milp),
        Command::Zones => zones(&cli.scenario),
        Command::ServeSim => serve_sim(&scenario, cli),
        Command::Help | Command::Calibrate => unreachable!("handled above"),
    }
}

/// The pdFTSP config behind a pdFTSP-family [`Algo`], or `None` for the
/// baselines (which carry no telemetry pipeline).
fn pdftsp_config_for(algo: Algo) -> Option<PdftspConfig> {
    match algo {
        Algo::Pdftsp => Some(PdftspConfig::default()),
        Algo::PdftspMasked => Some(PdftspConfig::default().with_masking()),
        Algo::PdftspReference => Some(PdftspConfig::default().reference()),
        Algo::Titan | Algo::Eft | Algo::Ntm | Algo::FixedPrice => None,
    }
}

/// Runs instrumented pdFTSP and writes the artifacts `--telemetry` /
/// `--duals` request; returns the run plus footnote lines naming every
/// file written.
fn instrumented_run(
    scenario: &Scenario,
    config: PdftspConfig,
    cli: &Cli,
) -> Result<(RunResult, Vec<String>), String> {
    let telemetry = match cli.telemetry.as_deref() {
        Some(p) => {
            let sink = JsonlSink::create(p).map_err(|e| format!("--telemetry {p}: {e}"))?;
            Telemetry::new(Arc::new(sink))
        }
        None => Telemetry::disabled(),
    };
    let (result, scheduler) = run_pdftsp_instrumented(scenario, config, telemetry);
    let mut notes = Vec::new();
    if let Some(p) = &cli.telemetry {
        scheduler
            .telemetry()
            .sink()
            .flush()
            .map_err(|e| format!("--telemetry {p}: {e}"))?;
        let summary = Path::new(p).with_extension("summary.json");
        std::fs::write(&summary, result.report.to_json())
            .map_err(|e| format!("--telemetry {}: {e}", summary.display()))?;
        notes.push(format!("telemetry events -> {p}"));
        notes.push(format!("run report       -> {}", summary.display()));
    }
    if let Some(dir) = &cli.duals {
        let (csv_path, json_path) = write_dual_grid(Path::new(dir), scheduler.duals())
            .map_err(|e| format!("--duals {dir}: {e}"))?;
        notes.push(format!(
            "dual-price grids -> {} and {}",
            csv_path.display(),
            json_path.display()
        ));
    }
    Ok((result, notes))
}

fn report(scenario: &Scenario, cli: &Cli) -> String {
    match instrumented_run(scenario, PdftspConfig::default(), cli) {
        Err(e) => format!("error: {e}\n"),
        Ok((result, notes)) => {
            let mut out = if cli.json {
                let mut json = result.report.to_json();
                json.push('\n');
                json
            } else {
                let mut text = result.report.render_text();
                text.push_str(&span_sections(scenario, cli));
                text
            };
            for note in notes {
                out.push_str(&note);
                out.push('\n');
            }
            out
        }
    }
}

/// Per-stage and per-shard sections of the `report` command, derived
/// from the span stream of a spans-enabled sharded-service run over the
/// same scenario. The causal-coverage line checks that every admitted
/// task carries the full `route -> propose -> commit` parent chain.
fn span_sections(scenario: &Scenario, cli: &Cli) -> String {
    let plan = match &cli.faults {
        Some(spec_text) => match FaultSpec::parse(spec_text) {
            Ok(spec) => FaultPlan::generate(scenario, &spec),
            Err(e) => return format!("span sections: error: {e}\n"),
        },
        None => FaultPlan::none(),
    };
    let shards = cli.service.shards.min(scenario.num_nodes()).max(1);
    let cfg = ServiceConfig {
        shards,
        epoch_slots: cli.service.epoch,
        ..ServiceConfig::default()
    };
    let run = AuctionService::with_observability(scenario, cfg, &plan, Observability::with_spans())
        .and_then(AuctionService::finish);
    let out = match run {
        Ok(out) => out,
        Err(e) => return format!("span sections: error: {e}\n"),
    };

    // Per-stage counts plus the per-task causal index.
    let mut stage_counts = [0usize; 5];
    let mut route_span = vec![0u64; scenario.tasks.len()];
    let mut propose_parent = vec![(0u64, 0u64); scenario.tasks.len()];
    let mut commit_parent = vec![0u64; scenario.tasks.len()];
    let mut per_shard = vec![[0usize; 5]; shards];
    for sp in &out.spans {
        stage_counts[sp.stage.index() as usize] += 1;
        if sp.shard < shards {
            per_shard[sp.shard][sp.stage.index() as usize] += 1;
        }
        if sp.task < scenario.tasks.len() {
            match sp.stage {
                Stage::Route => route_span[sp.task] = sp.span,
                Stage::Propose => propose_parent[sp.task] = (sp.span, sp.parent),
                Stage::Commit => commit_parent[sp.task] = sp.parent,
                Stage::Settle | Stage::FaultRecover => {}
            }
        }
    }
    let admitted: Vec<usize> = out
        .decisions
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_admitted())
        .map(|(t, _)| t)
        .collect();
    let covered = admitted
        .iter()
        .filter(|&&t| {
            let (propose, parent) = propose_parent[t];
            route_span[t] != 0 && parent == route_span[t] && commit_parent[t] == propose
        })
        .count();
    let coverage = if admitted.is_empty() {
        100.0
    } else {
        100.0 * covered as f64 / admitted.len() as f64
    };

    let mut text = format!("\nspan stream ({shards}-shard service run of the same scenario):\n");
    text.push_str("  stage          spans\n");
    for (i, count) in stage_counts.iter().enumerate() {
        let stage = Stage::from_index(i as u64).expect("stage index in range");
        text.push_str(&format!("  {:<13} {count:>6}\n", stage.as_str()));
    }
    text.push_str(&format!(
        "causal coverage: {covered}/{} admitted tasks carry route->propose->commit \
         parentage ({coverage:.1}%)\n",
        admitted.len(),
    ));
    text.push_str("per-shard spans:\n  shard  route  propose  commit  fault_recover\n");
    for (k, row) in per_shard.iter().enumerate() {
        text.push_str(&format!(
            "  {k:>5} {:>6} {:>8} {:>7} {:>14}\n",
            row[Stage::Route.index() as usize],
            row[Stage::Propose.index() as usize],
            row[Stage::Commit.index() as usize],
            row[Stage::FaultRecover.index() as usize],
        ));
    }
    text
}

fn zones(args: &ScenarioArgs) -> String {
    use pdftsp_lora::TransformerConfig;
    let base = ScenarioBuilder {
        horizon: args.slots,
        num_nodes: args.nodes,
        node_mix: args.mix,
        arrivals: args.arrivals(),
        num_vendors: args.vendors,
        deadline_policy: args.deadline,
        paradigm: args.paradigm,
        seed: args.seed,
        ..ScenarioBuilder::default()
    };
    let splits = vec![
        (
            "gpt2-small".to_owned(),
            TransformerConfig::gpt2_small(),
            1.0,
        ),
        (
            "gpt2-medium".to_owned(),
            TransformerConfig::gpt2_medium(),
            1.0,
        ),
        (
            "gpt2-large".to_owned(),
            TransformerConfig::gpt2_large(),
            1.0,
        ),
    ];
    let zone_list = match partition_zones(&base, &splits) {
        Ok(zones) => zones,
        Err(e) => return format!("error: cannot partition zones: {e}\n"),
    };
    let out = run_zoned(&zone_list, Algo::Pdftsp, args.seed);
    let mut text = String::from(
        "zone          admitted    welfare
",
    );
    for (name, r) in &out.per_zone {
        text.push_str(&format!(
            "{:<13} {:>8} {:>10.1}
",
            name, r.welfare.admitted, r.welfare.social_welfare
        ));
    }
    text.push_str(&format!(
        "total: welfare {:.1}, admitted {}/{}
",
        out.total_welfare, out.total_admitted, out.total_tasks
    ));
    text
}

/// `serve-sim`: run the sharded auction service over the scenario —
/// epoch-batched admission, per-shard dual grids, and the two-phase
/// commit against the global ledger — and print per-shard statistics.
fn serve_sim(scenario: &Scenario, cli: &Cli) -> String {
    if cli.spot.is_some() && cli.faults.is_some() {
        return "error: --spot and --faults are mutually exclusive (--spot already \
                drives revocations through the fault path)\n"
            .to_string();
    }
    // `--spot` transforms the scenario (re-priced grid, budget caps),
    // derives the revocation plan from the lease windows, and installs
    // the prediction pre-heat; revocations then flow through the same
    // two-phase-commit recovery path a `--faults` plan would.
    let mut scheduler_cfg = PdftspConfig::default();
    let (scenario, plan) = match &cli.spot {
        Some(spec_text) => {
            let spec = match SpotSpec::parse(spec_text) {
                Ok(s) => s,
                Err(e) => return format!("error: {e}\n"),
            };
            let transformed = spec.apply(scenario);
            let leases = spec.lease_plan(transformed.nodes.len(), transformed.horizon);
            let plan = lease_fault_plan(&leases, transformed.horizon);
            scheduler_cfg.preheat = (spec.lookahead > 0).then_some(PreheatSpec {
                lookahead: spec.lookahead,
                gain: spec.gain,
            });
            (transformed, plan)
        }
        None => {
            let plan = match &cli.faults {
                Some(spec_text) => match FaultSpec::parse(spec_text) {
                    Ok(spec) => FaultPlan::generate(scenario, &spec),
                    Err(e) => return format!("error: {e}\n"),
                },
                None => FaultPlan::none(),
            };
            (scenario.clone(), plan)
        }
    };
    let scenario = &scenario;
    let cfg = ServiceConfig {
        shards: cli.service.shards,
        epoch_slots: cli.service.epoch,
        scheduler: scheduler_cfg,
        open_loop_rate: cli.service.rate,
        ..ServiceConfig::default()
    };
    let obs = Observability {
        spans: cli.trace_out.is_some(),
        flight_capacity: if cli.flight.is_some() { 4096 } else { 0 },
        flight_dir: cli.flight.as_ref().map(PathBuf::from),
    };
    let mut svc = match AuctionService::with_observability(scenario, cfg, &plan, obs) {
        Ok(svc) => svc,
        Err(e) => return format!("error: {e}\n"),
    };
    let total_epochs = svc.total_epochs();
    while !svc.is_done() {
        let epoch_started = std::time::Instant::now();
        let report = match svc.run_epoch() {
            Ok(r) => r,
            Err(e) => return format!("error: {e}\n"),
        };
        // Progress goes to stderr so the returned report stays
        // byte-deterministic (and quiet in tests / pipelines).
        if cli.progress {
            let secs = epoch_started.elapsed().as_secs_f64().max(1e-9);
            let adm = svc.admission();
            let latency = if adm.count() > 0 {
                format!(
                    "admission p50 {:.3} ms p99 {:.3} ms",
                    adm.quantile_nanos(0.50) / 1e6,
                    adm.quantile_nanos(0.99) / 1e6,
                )
            } else {
                "admission unpaced".to_owned()
            };
            let depths: Vec<String> = report.queue_depth.iter().map(usize::to_string).collect();
            eprintln!(
                "epoch {:>3}/{} slots {:>3}..{:<3} decided {:>4} ({:>7.0}/s) {latency} queue [{}]",
                report.epoch + 1,
                total_epochs,
                report.first_slot,
                report.end_slot,
                report.decided,
                report.decided as f64 / secs,
                depths.join(","),
            );
        }
    }
    let out = match svc.finish() {
        Ok(out) => out,
        Err(e) => return format!("error: {e}\n"),
    };
    let stats = scenario.stats();
    let w = &out.welfare;
    let mut text = format!(
        "scenario: {} tasks / {} nodes / {} slots (offered load {:.2})\n\
         service : {} shards, {} slots/epoch, {} epochs, {} workers\n\
         completed        : {}/{} (rejected {}, aborted {})\n\
         disrupted        : {} task-disruptions, {} recovered\n\
         social welfare   : {:.2}\n\
         gross payments   : {:.2}\n\
         refunds issued   : {:.2}\n\
         provider utility : {:.2}\n\
         users' utility   : {:.2}\n\
         ledger digest    : {:016x}\n",
        stats.tasks,
        stats.nodes,
        stats.horizon,
        stats.offered_load,
        out.per_shard.len(),
        cfg.epoch_slots,
        out.epochs,
        out.effective_workers,
        w.completed,
        stats.tasks,
        w.rejected,
        w.aborted,
        out.disrupted,
        out.recovered,
        w.social_welfare,
        w.payments,
        w.refunds,
        w.provider_utility,
        w.user_utility,
        out.ledger_digest,
    );
    text.push_str("shard  nodes  routed  admitted  rejected  failures  resubmitted\n");
    for s in &out.per_shard {
        text.push_str(&format!(
            "{:>5} {:>6} {:>7} {:>9} {:>9} {:>9} {:>12}\n",
            s.shard,
            s.num_nodes,
            s.routed,
            s.admitted,
            s.rejected,
            s.node_failures,
            s.tasks_resubmitted,
        ));
    }
    if cli.service.rate.is_some() && out.admission.count() > 0 {
        text.push_str(&format!(
            "throughput       : {:.0} decisions/sec sustained\n\
             admission latency: p50 {:.3} ms, p99 {:.3} ms ({} samples)\n",
            out.decisions_per_second(),
            out.admission.quantile_nanos(0.50) / 1e6,
            out.admission.quantile_nanos(0.99) / 1e6,
            out.admission.count(),
        ));
    }
    if let Some(p) = &cli.metrics_file {
        if let Err(e) = std::fs::write(p, render_service_metrics(&out)) {
            return format!("error: --metrics-file {p}: {e}\n");
        }
        text.push_str(&format!("metrics exposition -> {p}\n"));
    }
    if let Some(p) = &cli.trace_out {
        if let Err(e) = std::fs::write(p, chrome::render_trace(&out.spans)) {
            return format!("error: --trace-out {p}: {e}\n");
        }
        text.push_str(&format!(
            "chrome trace       -> {p} ({} spans)\n",
            out.spans.len()
        ));
    }
    if let Some(dir) = &cli.flight {
        text.push_str(&format!(
            "flight recorder    -> armed; crash dumps land in {dir}/flightrec-shard<k>.jsonl\n"
        ));
    }
    text
}

/// Prometheus text exposition for one service run: per-shard labeled
/// counters, run-level totals, and the admission-latency histogram.
/// One per-shard metric family: name, help text, and the stat it reads.
type ShardFamily<'a> = (&'a str, &'a str, &'a dyn Fn(&pdftsp_sim::ShardStats) -> f64);

fn render_service_metrics(out: &ServiceOutcome) -> String {
    use prometheus::{push_header, push_sample, render_histogram};
    let mut text = String::with_capacity(4096);
    let shard_families: [ShardFamily; 7] = [
        ("pdftsp_shard_nodes", "nodes owned by the shard", &|s| {
            s.num_nodes as f64
        }),
        (
            "pdftsp_shard_routed_total",
            "tasks routed to the shard",
            &|s| s.routed as f64,
        ),
        (
            "pdftsp_shard_admitted_total",
            "tasks admitted by the shard",
            &|s| s.admitted as f64,
        ),
        (
            "pdftsp_shard_rejected_total",
            "tasks rejected by the shard",
            &|s| s.rejected as f64,
        ),
        (
            "pdftsp_shard_node_failures_total",
            "injected crashes on the shard's nodes",
            &|s| s.node_failures as f64,
        ),
        (
            "pdftsp_shard_tasks_resubmitted_total",
            "disrupted-task remnants re-auctioned",
            &|s| s.tasks_resubmitted as f64,
        ),
        (
            "pdftsp_shard_refunds_issued_total",
            "refunds issued to unrecoverable tasks",
            &|s| s.refunds_issued as f64,
        ),
    ];
    for (name, help, value) in shard_families {
        let mtype = if name.ends_with("_total") {
            "counter"
        } else {
            "gauge"
        };
        push_header(&mut text, name, help, mtype);
        for s in &out.per_shard {
            push_sample(&mut text, name, &format!("shard=\"{}\"", s.shard), value(s));
        }
    }
    let totals: [(&str, &str, &str, f64); 7] = [
        (
            "pdftsp_service_epochs_total",
            "epochs committed",
            "counter",
            out.epochs as f64,
        ),
        (
            "pdftsp_service_disrupted_total",
            "task-disruptions handled",
            "counter",
            out.disrupted as f64,
        ),
        (
            "pdftsp_service_recovered_total",
            "disrupted tasks re-admitted",
            "counter",
            out.recovered as f64,
        ),
        (
            "pdftsp_service_social_welfare",
            "refund-adjusted social welfare of the run",
            "gauge",
            out.welfare.social_welfare,
        ),
        (
            "pdftsp_service_spans_recorded",
            "lifecycle spans captured this run",
            "gauge",
            out.spans.len() as f64,
        ),
        (
            "pdftsp_pool_tasks_total",
            "worker-pool tasks executed during the run",
            "counter",
            out.pool_tasks as f64,
        ),
        (
            "pdftsp_pool_park_seconds_total",
            "pool-thread idle (parked) time during the run",
            "counter",
            out.pool_park_ns as f64 / 1e9,
        ),
    ];
    for (name, help, mtype, value) in totals {
        push_header(&mut text, name, help, mtype);
        push_sample(&mut text, name, "", value);
    }
    render_histogram(
        &mut text,
        "pdftsp_admission_latency_seconds",
        "open-loop admission latency",
        "",
        &out.admission,
        true,
    );
    text
}

fn calibrate(args: &ScenarioArgs) -> String {
    let table = CalibrationTable::for_paradigm(TransformerConfig::gpt2_medium(), args.paradigm);
    format!(
        "pre-trained model: GPT-2 medium; paradigm: {}\n{}",
        args.paradigm.name(),
        table.render()
    )
}

fn simulate(scenario: &Scenario, args: &ScenarioArgs, algo: Algo, cli: &Cli) -> String {
    if let Some(spec) = &cli.spot {
        if cli.faults.is_some() {
            return "error: --spot and --faults are mutually exclusive (--spot already \
                    drives revocations through the fault path)\n"
                .to_string();
        }
        return simulate_spot(scenario, algo, spec);
    }
    if let Some(spec) = &cli.faults {
        return simulate_with_faults(scenario, algo, spec, cli);
    }
    let scenario = scenario.clone();
    let stats = scenario.stats();
    let timeline = cli.timeline;
    let (r, notes) = if cli.telemetry.is_some() || cli.duals.is_some() {
        let Some(config) = pdftsp_config_for(algo) else {
            return "error: --telemetry/--duals require a pdFTSP algorithm (--algo pdftsp)\n"
                .to_string();
        };
        match instrumented_run(&scenario, config, cli) {
            Ok(pair) => pair,
            Err(e) => return format!("error: {e}\n"),
        }
    } else {
        match try_run_algo(&scenario, algo, args.seed) {
            Ok(r) => (r, Vec::new()),
            Err(e) => return format!("error: {e}\n"),
        }
    };
    let w = &r.welfare;
    let mut out = format!(
        "scenario: {} tasks / {} nodes / {} slots (offered load {:.2})\n\
         algorithm: {}\n\
         social welfare   : {:.2}\n\
         admitted         : {}/{} ({:.1}%)\n\
         revenue          : {:.2}\n\
         vendor cost      : {:.2}\n\
         energy cost      : {:.2}\n\
         provider utility : {:.2}\n\
         users' utility   : {:.2}\n\
         mean compute util: {:.1}%\n\
         peak co-location : {} tasks per GPU-slot\n",
        stats.tasks,
        stats.nodes,
        stats.horizon,
        stats.offered_load,
        r.algo,
        w.social_welfare,
        w.admitted,
        stats.tasks,
        100.0 * w.admission_rate(),
        w.revenue,
        w.vendor_cost,
        w.energy_cost,
        w.provider_utility,
        w.user_utility,
        100.0 * r.metrics.mean_compute_utilization,
        r.metrics.peak_colocation,
    );
    if timeline {
        out.push_str(&format!(
            "
{}
gantt (digits = co-located tasks):
{}",
            render_timeline(&scenario, &r),
            render_gantt(&scenario, &r)
        ));
    }
    for note in notes {
        out.push_str(&note);
        out.push('\n');
    }
    out
}

/// `simulate --faults`: inject a seeded fault plan, run the recovery
/// path, verify the recovered run against the replay oracle, and report
/// refund-adjusted economics.
fn simulate_with_faults(scenario: &Scenario, algo: Algo, spec_text: &str, cli: &Cli) -> String {
    if !matches!(
        algo,
        Algo::Pdftsp | Algo::PdftspMasked | Algo::PdftspReference
    ) {
        return "error: --faults requires a pdFTSP algorithm (--algo pdftsp)\n".to_string();
    }
    let config = pdftsp_config_for(algo).expect("pdFTSP family has a config");
    let spec = match FaultSpec::parse(spec_text) {
        Ok(s) => s,
        Err(e) => return format!("error: {e}\n"),
    };
    let telemetry = match cli.telemetry.as_deref() {
        Some(p) => match JsonlSink::create(p) {
            Ok(sink) => Telemetry::new(Arc::new(sink)),
            Err(e) => return format!("error: --telemetry {p}: {e}\n"),
        },
        None => Telemetry::disabled(),
    };
    let plan = FaultPlan::generate(scenario, &spec);
    let (r, scheduler) = run_pdftsp_with_faults(scenario, config, &plan, telemetry);
    if let Some(p) = &cli.telemetry {
        if let Err(e) = scheduler.telemetry().sink().flush() {
            return format!("error: --telemetry {p}: {e}\n");
        }
    }
    let downs = plan
        .events
        .iter()
        .filter(|e| matches!(e, FaultEvent::NodeDown { .. }))
        .count();
    let degrades = plan
        .events
        .iter()
        .filter(|e| matches!(e, FaultEvent::Degrade { .. }))
        .count();
    let replay_line = match pdftsp_sim::replay(scenario, &r.decisions) {
        Ok(_) => "OK — recovered schedules respect capacity".to_string(),
        Err(e) => format!("VIOLATION — {e}"),
    };
    let stats = scenario.stats();
    let w = &r.welfare;
    let mut out = format!(
        "scenario: {} tasks / {} nodes / {} slots (offered load {:.2})\n\
         algorithm: pdFTSP with fault injection\n\
         fault plan       : {} crashes, {} degradations (outage {}, seed {})\n\
         disrupted        : {} task-disruptions, {} recovered, {} aborted\n\
         replay           : {}\n\
         completed        : {}/{} (rejected {}, aborted {})\n\
         social welfare   : {:.2}\n\
         gross payments   : {:.2}\n\
         refunds issued   : {:.2}\n\
         vendor cost      : {:.2}\n\
         energy cost      : {:.2}\n\
         provider utility : {:.2}\n\
         users' utility   : {:.2}\n",
        stats.tasks,
        stats.nodes,
        stats.horizon,
        stats.offered_load,
        downs,
        degrades,
        spec.outage,
        spec.seed,
        r.disrupted,
        r.recovered,
        w.aborted,
        replay_line,
        w.completed,
        stats.tasks,
        w.rejected,
        w.aborted,
        w.social_welfare,
        w.payments,
        w.refunds,
        w.vendor_cost,
        w.energy_cost,
        w.provider_utility,
        w.user_utility,
    );
    for a in &r.aborted {
        out.push_str(&format!(
            "  task {:>4} lost at slot {:>3}: consumed {:.2}, refunded {:.2}\n",
            a.task, a.slot, a.consumed, a.refund
        ));
    }
    if let Some(p) = &cli.telemetry {
        out.push_str(&format!("telemetry events -> {p}\n"));
    }
    out
}

/// `simulate --spot`: transform the scenario into its spot-market
/// variant (re-priced grid, budget caps), drive the lease revocations
/// through the recovery path, and print the pdFTSP-vs-baseline
/// comparison on welfare, refund volume, and deadline-miss rate.
fn simulate_spot(scenario: &Scenario, algo: Algo, spec_text: &str) -> String {
    if !matches!(
        algo,
        Algo::Pdftsp | Algo::PdftspMasked | Algo::PdftspReference
    ) {
        return "error: --spot requires a pdFTSP algorithm (--algo pdftsp)\n".to_string();
    }
    let config = pdftsp_config_for(algo).expect("pdFTSP family has a config");
    let spec = match SpotSpec::parse(spec_text) {
        Ok(s) => s,
        Err(e) => return format!("error: {e}\n"),
    };
    let cmp = run_spot(scenario, &spec, config);
    let stats = scenario.stats();
    let mut out = format!(
        "scenario: {} tasks / {} nodes / {} slots (offered load {:.2})\n\
         algorithm: pdFTSP vs {} (spot market)\n\
         spot spec        : jumps={} mag={} revert={} diurnal={} leases={} (len {}) \
         budgets={} lookahead={} gain={} seed={}\n\
         market           : {} revocations, {} budget-capped bidders, \
         {} budget rejections\n",
        stats.tasks,
        stats.nodes,
        stats.horizon,
        stats.offered_load,
        cmp.baseline.name,
        spec.jump_prob,
        spec.jump_mag,
        spec.revert,
        spec.diurnal,
        spec.leases,
        spec.lease_len,
        spec.budget_frac,
        spec.lookahead,
        spec.gain,
        spec.seed,
        cmp.revocations,
        cmp.capped_bidders,
        cmp.budget_rejections,
    );
    for m in [&cmp.pdftsp, &cmp.baseline] {
        out.push_str(&format!(
            "{:<18} welfare {:>10.2}  refunds {:>8.2}  miss-rate {:>5.1}%  \
             completed {:>4}  aborted {:>3}  rejected {:>4}\n",
            m.name,
            m.social_welfare,
            m.refund_volume,
            100.0 * m.deadline_miss_rate,
            m.completed,
            m.aborted,
            m.rejected,
        ));
    }
    out
}

fn compare(scenario: &Scenario, args: &ScenarioArgs, csv: bool) -> String {
    let algos = [
        Algo::Pdftsp,
        Algo::Titan,
        Algo::Eft,
        Algo::Ntm,
        Algo::FixedPrice,
    ];
    let results = parallel_map(&algos, |&a| run_algo(scenario, a, args.seed));
    let mut table = FigureTable::new(
        format!(
            "compare: {} tasks / {} nodes / {} slots (seed {})",
            scenario.num_tasks(),
            scenario.num_nodes(),
            scenario.horizon,
            args.seed
        ),
        "metric",
        algos.iter().map(|a| a.name().to_owned()).collect(),
    );
    table.push_row(
        "social welfare",
        results.iter().map(|r| r.welfare.social_welfare).collect(),
    );
    table.push_row(
        "admitted",
        results.iter().map(|r| r.welfare.admitted as f64).collect(),
    );
    table.push_row(
        "revenue",
        results.iter().map(|r| r.welfare.revenue).collect(),
    );
    table.push_row(
        "energy cost",
        results.iter().map(|r| r.welfare.energy_cost).collect(),
    );
    table.push_row(
        "mean util",
        results
            .iter()
            .map(|r| r.metrics.mean_compute_utilization)
            .collect(),
    );
    if csv {
        table.to_csv()
    } else {
        table.render()
    }
}

fn audit(scenario: &Scenario) -> String {
    let scenario = scenario.clone();
    let mut auctioneer = Pdftsp::new(&scenario, PdftspConfig::default());
    let result = run_scheduler(&scenario, &mut auctioneer);

    // Individual rationality over every winner.
    let mut winners = 0usize;
    let mut ir_violations = 0usize;
    let mut max_payment_ratio: f64 = 0.0;
    for d in &result.decisions {
        if d.is_admitted() {
            winners += 1;
            let bid = scenario.tasks[d.task].bid;
            if d.payment() > bid + 1e-9 {
                ir_violations += 1;
            }
            max_payment_ratio = max_payment_ratio.max(d.payment() / bid);
        }
    }

    // Truthfulness probes against the final market state.
    let mut probes = 0usize;
    let mut gains = 0usize;
    for task in scenario.tasks.iter().rev().take(20) {
        let truthful = probe_bid(&auctioneer, task, task.valuation, &scenario);
        for factor in [0.5, 0.9, 1.1, 2.0] {
            let lie = probe_bid(&auctioneer, task, task.valuation * factor, &scenario);
            probes += 1;
            if lie.utility > truthful.utility + 1e-9 {
                gains += 1;
            }
        }
    }

    format!(
        "auction audit over {} tasks ({} winners)\n\
         individual rationality: {} violations; max payment/bid = {:.3}\n\
         truthfulness: {} lie-probes, {} profitable lies\n\
         verdict: {}\n",
        scenario.num_tasks(),
        winners,
        ir_violations,
        max_payment_ratio,
        probes,
        gains,
        if ir_violations == 0 && gains == 0 {
            "PASS — truthful and individually rational"
        } else {
            "FAIL"
        }
    )
}

fn ratio(scenario: &Scenario, milp_args: &crate::args::MilpArgs) -> String {
    let milp = MilpConfig {
        node_limit: milp_args.nodes,
        time_limit_secs: milp_args.time_secs,
        wave: milp_args.wave,
        ..MilpConfig::default()
    };
    let tel = Telemetry::disabled();
    let r = empirical_ratio_with_telemetry(scenario, &milp, &tel);
    let c = &tel.counters;
    format!(
        "instance: {} tasks / {} nodes / {} slots\n\
         online welfare (pdFTSP) : {:.2}\n\
         offline welfare found   : {:.2} ({})\n\
         offline upper bound     : {:.2}\n\
         empirical ratio         : {:.3}\n\
         conservative ratio      : {:.3} (vs upper bound)\n\
         solver: {} nodes, {} LP solves, {} pivots in {:.2}s\n\
         solver: warm-start hit rate {:.1}%, {} dense fallbacks\n",
        scenario.num_tasks(),
        scenario.num_nodes(),
        scenario.horizon,
        r.online_welfare,
        r.offline_welfare,
        if r.certified {
            "certified optimal"
        } else {
            "incumbent"
        },
        r.offline_bound,
        r.ratio,
        r.ratio_vs_bound,
        c.read(&c.milp_nodes),
        c.read(&c.lp_solves),
        c.read(&c.simplex_pivots),
        r.solve_seconds,
        c.warm_start_hit_rate() * 100.0,
        c.read(&c.lp_dense_fallbacks),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Cli;

    fn run_words(words: &str) -> String {
        let argv: Vec<String> = words.split_whitespace().map(String::from).collect();
        execute(&Cli::parse(&argv).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let out = run_words("help");
        assert!(out.contains("usage: pdftsp"));
    }

    #[test]
    fn calibrate_prints_gpu_rows() {
        let out = run_words("calibrate --paradigm qlora");
        assert!(out.contains("QLoRA"));
        assert!(out.contains("A100-80GB"));
    }

    #[test]
    fn simulate_reports_welfare() {
        let out = run_words("simulate --nodes 4 --slots 16 --mean 2 --seed 1");
        assert!(out.contains("social welfare"), "{out}");
        assert!(out.contains("pdFTSP"));
    }

    #[test]
    fn compare_lists_all_algorithms() {
        let out = run_words("compare --nodes 4 --slots 12 --mean 1.5 --seed 1");
        for name in ["pdFTSP", "Titan", "EFT", "NTM", "FixedPrice"] {
            assert!(out.contains(name), "missing {name} in {out}");
        }
    }

    #[test]
    fn compare_csv_emits_commas() {
        let out = run_words("compare --nodes 4 --slots 12 --mean 1.5 --csv");
        assert!(out.lines().next().unwrap().contains(','));
    }

    #[test]
    fn audit_passes_on_default_config() {
        let out = run_words("audit --nodes 4 --slots 20 --mean 2 --seed 3");
        assert!(out.contains("PASS"), "{out}");
    }

    #[test]
    fn save_then_load_reproduces_the_run() {
        let dir = std::env::temp_dir().join("pdftsp-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenario.txt");
        let path = path.to_str().unwrap();
        let a = run_words(&format!(
            "simulate --nodes 4 --slots 16 --mean 2 --seed 5 --save {path}"
        ));
        let b = run_words(&format!("simulate --load {path}"));
        // Same scenario -> identical economics (latency lines may differ).
        let key = |s: &str| {
            s.lines()
                .filter(|l| l.contains("social welfare") || l.contains("admitted"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(key(&a), key(&b));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_missing_file_reports_error() {
        let out = run_words("simulate --load /nonexistent/path/xyz.txt");
        assert!(out.starts_with("error:"), "{out}");
    }

    #[test]
    fn report_prints_counter_backed_fields() {
        let out = run_words("report --nodes 4 --slots 16 --mean 2 --seed 1");
        assert!(out.contains("run report — pdFTSP"), "{out}");
        assert!(out.contains("vendors:"), "{out}");
        assert!(out.contains("dp:"), "{out}");
        assert!(out.contains("decide latency (exact)"), "{out}");
    }

    #[test]
    fn report_json_emits_the_full_object() {
        let out = run_words("report --nodes 4 --slots 16 --mean 2 --seed 1 --json");
        for key in [
            "\"scheduler\": \"pdFTSP\"",
            "\"prune_hit_rate\"",
            "\"utilization\"",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
    }

    #[test]
    fn report_writes_telemetry_and_dual_artifacts() {
        let dir = std::env::temp_dir().join(format!("pdftsp-cli-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("events.jsonl");
        let duals_dir = dir.join("results");
        let out = run_words(&format!(
            "report --nodes 4 --slots 16 --mean 2 --seed 1 --telemetry {} --duals {}",
            events.display(),
            duals_dir.display()
        ));
        assert!(!out.starts_with("error"), "{out}");
        // The event stream parses and contains every decision.
        let text = std::fs::read_to_string(&events).unwrap();
        let parsed = pdftsp_telemetry::parse_jsonl(&text).unwrap();
        assert!(!parsed.is_empty());
        // The summary report sits next to the stream.
        let summary = std::fs::read_to_string(dir.join("events.summary.json")).unwrap();
        assert!(summary.contains("\"scheduler\": \"pdFTSP\""));
        // Dual grids landed under the requested directory.
        assert!(duals_dir.join("duals.csv").exists());
        assert!(duals_dir.join("duals.json").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simulate_rejects_telemetry_for_baselines() {
        let out =
            run_words("simulate --algo eft --nodes 4 --slots 12 --mean 1 --telemetry x.jsonl");
        assert!(out.starts_with("error:"), "{out}");
    }

    #[test]
    fn zones_reports_three_markets() {
        let out = run_words("zones --nodes 6 --slots 16 --mean 2 --seed 1");
        for z in ["gpt2-small", "gpt2-medium", "gpt2-large", "total"] {
            assert!(out.contains(z), "missing {z}: {out}");
        }
    }

    #[test]
    fn timeline_flag_adds_strips_and_gantt() {
        let out = run_words("simulate --nodes 4 --slots 16 --mean 2 --timeline");
        assert!(out.contains("arrivals"), "{out}");
        assert!(out.contains("gantt"), "{out}");
    }

    #[test]
    fn run_with_faults_reports_recovery_and_replays_clean() {
        let out = run_words(
            "run --nodes 4 --slots 24 --mean 3 --seed 11 --faults crashes=2,outage=4,seed=7",
        );
        assert!(out.contains("fault plan"), "{out}");
        assert!(out.contains("disrupted"), "{out}");
        assert!(
            out.contains("replay           : OK"),
            "recovered run must replay cleanly: {out}"
        );
        assert!(out.contains("refunds issued"), "{out}");
        // Same seed → byte-identical report (the determinism contract).
        let again = run_words(
            "run --nodes 4 --slots 24 --mean 3 --seed 11 --faults crashes=2,outage=4,seed=7",
        );
        assert_eq!(out, again);
    }

    #[test]
    fn run_with_spot_compares_both_systems_deterministically() {
        let words = "run --nodes 4 --slots 24 --mean 3 --seed 11 \
                     --spot leases=3,lease_len=4,budgets=0.6,seed=5";
        let out = run_words(words);
        assert!(out.contains("spot market"), "{out}");
        assert!(out.contains("spot spec"), "{out}");
        assert!(out.contains("pdFTSP"), "{out}");
        assert!(out.contains("DeadlineAware+pred"), "{out}");
        assert!(out.contains("revocations"), "{out}");
        assert!(out.contains("budget-capped bidders"), "{out}");
        assert_eq!(out, run_words(words));
    }

    #[test]
    fn spot_rejects_baselines_bad_specs_and_fault_mixing() {
        let out = run_words("run --algo eft --nodes 4 --slots 12 --mean 1 --spot leases=1");
        assert!(out.starts_with("error:"), "{out}");
        let out = run_words("run --nodes 4 --slots 12 --mean 1 --spot leases=banana");
        assert!(out.starts_with("error:"), "{out}");
        let out = run_words("run --nodes 4 --slots 12 --mean 1 --spot leases=1 --faults crashes=1");
        assert!(out.contains("mutually exclusive"), "{out}");
        let out =
            run_words("serve-sim --nodes 4 --slots 12 --mean 1 --spot leases=1 --faults crashes=1");
        assert!(out.contains("mutually exclusive"), "{out}");
    }

    #[test]
    fn serve_sim_spot_runs_revocations_through_the_service() {
        let words = "serve-sim --nodes 6 --slots 24 --mean 3 --seed 11 --shards 3 --epoch 5 \
                     --spot leases=4,lease_len=4,seed=9";
        let out = run_words(words);
        assert!(out.contains("service : 3 shards"), "{out}");
        assert!(out.contains("ledger digest"), "{out}");
        assert_eq!(out, run_words(words));
    }

    #[test]
    fn faults_reject_baselines_and_bad_specs() {
        let out = run_words("run --algo eft --nodes 4 --slots 12 --mean 1 --faults crashes=1");
        assert!(out.starts_with("error:"), "{out}");
        let out = run_words("run --nodes 4 --slots 12 --mean 1 --faults crashes=banana");
        assert!(out.starts_with("error:"), "{out}");
    }

    #[test]
    fn serve_sim_reports_per_shard_rows_and_is_deterministic() {
        let words = "serve-sim --nodes 6 --slots 24 --mean 3 --seed 11 --shards 3 --epoch 5 \
                     --faults crashes=2,outage=4,seed=7";
        let out = run_words(words);
        assert!(out.contains("service : 3 shards"), "{out}");
        assert!(out.contains("ledger digest"), "{out}");
        assert!(out.contains("shard  nodes  routed"), "{out}");
        // One row per shard, and routed counts cover every task.
        let rows: Vec<&str> = out
            .lines()
            .skip_while(|l| !l.starts_with("shard"))
            .skip(1)
            .collect();
        assert_eq!(rows.len(), 3, "{out}");
        // Same seed → byte-identical report (nothing latency-dependent
        // is printed on the unpaced path).
        assert_eq!(out, run_words(words));
    }

    #[test]
    fn serve_sim_writes_metrics_and_trace_files() {
        let dir = std::env::temp_dir().join(format!("pdftsp-cli-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("m.prom");
        let trace = dir.join("t.json");
        let out = run_words(&format!(
            "serve-sim --nodes 6 --slots 24 --mean 3 --seed 11 --shards 3 --epoch 5 \
             --metrics-file {} --trace-out {}",
            metrics.display(),
            trace.display()
        ));
        assert!(out.contains("metrics exposition ->"), "{out}");
        assert!(out.contains("chrome trace       ->"), "{out}");
        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            prom.contains("# TYPE pdftsp_shard_routed_total counter"),
            "{prom}"
        );
        assert!(
            prom.contains("pdftsp_shard_routed_total{shard=\"2\"}"),
            "{prom}"
        );
        assert!(prom.contains("pdftsp_service_epochs_total 5"), "{prom}");
        assert!(prom.contains("pdftsp_pool_tasks_total"), "{prom}");
        assert!(prom.contains("pdftsp_pool_park_seconds_total"), "{prom}");
        let chrome_json = std::fs::read_to_string(&trace).unwrap();
        assert!(
            chrome_json.starts_with("{\"traceEvents\":["),
            "{chrome_json}"
        );
        for stage in ["\"route\"", "\"propose\"", "\"commit\"", "\"settle\""] {
            assert!(chrome_json.contains(stage), "missing {stage}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_appends_span_stream_sections() {
        let out = run_words("report --nodes 4 --slots 16 --mean 2 --seed 1 --shards 2");
        assert!(out.contains("span stream (2-shard service run"), "{out}");
        assert!(out.contains("causal coverage:"), "{out}");
        assert!(out.contains("(100.0%)"), "{out}");
        assert!(out.contains("per-shard spans:"), "{out}");
        // JSON mode is unchanged by the span sections.
        let json = run_words("report --nodes 4 --slots 16 --mean 2 --seed 1 --json");
        assert!(!json.contains("span stream"), "{json}");
    }

    #[test]
    fn serve_sim_rejects_more_shards_than_nodes() {
        let out = run_words("serve-sim --nodes 2 --slots 12 --mean 1 --shards 5");
        assert!(out.starts_with("error:"), "{out}");
    }

    #[test]
    fn ratio_reports_at_least_one() {
        let out = run_words("ratio --slots 12 --mean 0.3 --seed 2");
        assert!(out.contains("empirical ratio"), "{out}");
    }
}
