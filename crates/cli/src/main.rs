//! `gaugur` — the operator command line for the GAugur reproduction.
//!
//! The workflow a cloud-gaming operator would actually run:
//!
//! ```text
//! gaugur build   --games 30 --seed 7 --out model.json     # offline, once
//! gaugur catalog --games 30                               # list titles
//! gaugur predict --model model.json --target 4 --others 8,12 --qos 60
//! gaugur pack    --model model.json --games 1,3,5,8,9,12 --requests 600 --qos 60
//! gaugur importance --model model.json --games 30 --seed 7
//!
//! gaugur serve   --model model.json --bind 127.0.0.1:7071 --servers 50
//! gaugur session place --game 4                           # online, against the daemon
//! gaugur session stats
//! gaugur load    --requests 5000 --connections 4 --rate inf
//! gaugur metrics                                          # Prometheus text exposition
//! gaugur slo                                              # burn rates + alert states
//! gaugur top --interval 2                                 # live stage/latency view
//! ```
//!
//! Everything runs against the simulated testbed (the seed selects the
//! measurement-noise realization); the persisted model is the same JSON
//! artifact [`gaugur_core::GAugur::save_json`] produces.

use gaugur_core::{
    permutation_importance, to_dataset, ColocationPlan, GAugur, GAugurConfig, Placement,
};
use gaugur_gamesim::{GameCatalog, GameId, Resolution, Server};
use std::collections::HashMap;
use std::process::exit;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        exit(2);
    }
    let command = args.remove(0);
    if command == "session" {
        // `session` takes a positional action before its flags.
        session(&args);
        return;
    }
    let opts = parse_flags(&args);

    match command.as_str() {
        "build" => build(&opts),
        "catalog" => catalog_cmd(&opts),
        "inspect" => inspect(&opts),
        "predict" => predict(&opts),
        "pack" => pack(&opts),
        "importance" => importance(&opts),
        "serve" => serve(&opts),
        "load" => load_cmd(&opts),
        "metrics" => metrics_cmd(&opts),
        "slo" => slo_cmd(&opts),
        "top" => top_cmd(&opts),
        "chaos" => chaos(&opts),
        "help" | "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown command {other:?}");
            usage();
            exit(2);
        }
    }
}

fn usage() {
    eprintln!(
        "gaugur — interference prediction for colocated cloud games\n\n\
         commands:\n\
         \x20 build      --games N [--seed S] [--pairs N --triples N --quads N] --out FILE\n\
         \x20 catalog    --games N [--seed S]\n\
         \x20 inspect    --model FILE\n\
         \x20 predict    --model FILE --target ID --others ID,ID,… [--resolution 720p|900p|1080p|1440p] [--qos FPS]\n\
         \x20 pack       --model FILE --games ID,ID,… --requests N [--qos FPS] [--seed S]\n\
         \x20 importance --model FILE --games N [--seed S]\n\
         \x20 serve      --model FILE [--bind ADDR] [--servers N] [--shards N] [--workers N] [--queue N] [--qos FPS]\n\
         \x20            [--recorder-dump FILE]  (write the flight-recorder JSONL here when an alert goes critical)\n\
         \x20 session    place   [--addr ADDR] --game ID [--resolution R]\n\
         \x20 session    depart  [--addr ADDR] --session ID\n\
         \x20 session    predict [--addr ADDR] --target ID --others ID,ID,… [--resolution R] [--qos FPS]\n\
         \x20 session    stats|reload|shutdown [--addr ADDR] [--model FILE]\n\
         \x20 session    report  [--addr ADDR] --session ID --observed FPS --predicted FPS [--version V]\n\
         \x20 session    retrain [--addr ADDR] [--min-samples N] [--extra-rounds N]\n\
         \x20 load       [--addr ADDR] [--requests N] [--connections N] [--rate R/s|inf] [--batch N]\n\
         \x20            [--seed S] [--games ID,ID,…] [--mean-session N] [--qos FPS] [--resolution R]\n\
         \x20            [--report-outcomes true] [--observe-noise F] [--drift F] [--verify-trace true]\n\
         \x20            [--shards N]  (verify the daemon's shard layout and conservation after the run)\n\
         \x20            [--expect-slo ok|warn|critical]  (fail unless the fleet alert reached this severity)\n\
         \x20 metrics    [--addr ADDR] [--json true]\n\
         \x20 slo        [--addr ADDR] [--json true] [--dump FILE [--deterministic true]]\n\
         \x20 top        [--addr ADDR] [--interval SECS] [--iterations N]\n\
         \x20 chaos      --seed S [--scenarios N] [--ops N] [--servers N] [--games N] [--model FILE]\n"
    );
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let value = it.next().cloned().unwrap_or_else(|| {
                eprintln!("flag --{key} needs a value");
                exit(2);
            });
            opts.insert(key.to_string(), value);
        } else {
            eprintln!("unexpected argument {a:?}");
            exit(2);
        }
    }
    opts
}

fn get<T: std::str::FromStr>(opts: &HashMap<String, String>, key: &str, default: Option<T>) -> T {
    match opts.get(key) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("--{key}: cannot parse {v:?}");
            exit(2);
        }),
        None => default.unwrap_or_else(|| {
            eprintln!("missing required flag --{key}");
            exit(2);
        }),
    }
}

fn id_list(opts: &HashMap<String, String>, key: &str) -> Vec<GameId> {
    let raw = opts.get(key).cloned().unwrap_or_default();
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            GameId(s.trim().parse().unwrap_or_else(|_| {
                eprintln!("--{key}: bad game id {s:?}");
                exit(2);
            }))
        })
        .collect()
}

fn resolution(opts: &HashMap<String, String>) -> Resolution {
    match opts.get("resolution").map(String::as_str) {
        None | Some("1080p") => Resolution::Fhd1080,
        Some("720p") => Resolution::Hd720,
        Some("900p") => Resolution::Hd900,
        Some("1440p") => Resolution::Qhd1440,
        Some(other) => {
            eprintln!("--resolution: unknown {other:?}");
            exit(2);
        }
    }
}

fn testbed(opts: &HashMap<String, String>) -> (Server, GameCatalog) {
    let seed: u64 = get(opts, "seed", Some(7));
    let n: usize = get(opts, "games", Some(100));
    (Server::reference(seed), GameCatalog::generate(42, n))
}

fn build(opts: &HashMap<String, String>) {
    let (server, catalog) = testbed(opts);
    let out: String = get(opts, "out", None::<String>);
    let config = GAugurConfig {
        plan: ColocationPlan {
            pairs: get(opts, "pairs", Some(200)),
            triples: get(opts, "triples", Some(50)),
            quads: get(opts, "quads", Some(40)),
            seed: get(opts, "seed", Some(7)),
        },
        ..GAugurConfig::default()
    };
    eprintln!(
        "profiling {} games and measuring {} colocations …",
        catalog.len(),
        config.plan.pairs + config.plan.triples + config.plan.quads
    );
    let gaugur = GAugur::build(&server, &catalog, config);
    gaugur.save_json(&out).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    println!("model written to {out}");
}

fn catalog_cmd(opts: &HashMap<String, String>) {
    let (server, catalog) = testbed(opts);
    println!(
        "{:>4}  {:<42} {:<14} {:>9}",
        "id", "title", "genre", "solo FPS"
    );
    for g in catalog.games() {
        println!(
            "{:>4}  {:<42} {:<14} {:>9.0}",
            g.id.0,
            g.name,
            g.genre.to_string(),
            server.measure_solo_fps(g, Resolution::Fhd1080)
        );
    }
}

fn load_model(opts: &HashMap<String, String>) -> GAugur {
    let path: String = get(opts, "model", None::<String>);
    GAugur::load_json(&path).unwrap_or_else(|e| {
        eprintln!("cannot load {path}: {e}");
        exit(1);
    })
}

/// `gaugur inspect`'s line for one model's target prefixes.
fn prefix_line(stats: Option<gaugur_core::PrefixStats>) -> String {
    match stats {
        Some(s) => format!(
            "{} splits on fixed features, {} on free; table {} bytes, \
             prefixes {} bytes ({} games)",
            s.fixed_splits, s.free_splits, s.table_bytes, s.prefix_bytes, s.games
        ),
        None => "none (node walk)".to_string(),
    }
}

/// Print the provenance of a `gaugur build` artifact without serving it:
/// schema version, catalog coverage, feature dimensionality, and the
/// hyperparameters and target-prefix sizes of both trained models.
fn inspect(opts: &HashMap<String, String>) {
    let path: String = get(opts, "model", None::<String>);
    let gaugur = GAugur::load_json(&path).unwrap_or_else(|e| {
        eprintln!("cannot load {path}: {e}");
        exit(1);
    });
    let plan = &gaugur.config.plan;
    println!("artifact:          {path}");
    println!("schema version:    {}", gaugur_core::ARTIFACT_SCHEMA);
    println!("games profiled:    {}", gaugur.profiles.len());
    println!("resource dims:     {}", gaugur_gamesim::NUM_RESOURCES);
    println!(
        "RM ({}):  {}",
        gaugur.config.rm_algorithm,
        gaugur.rm.hyperparameters()
    );
    println!(
        "RM prefixes:       {}",
        prefix_line(gaugur.rm_prefix_stats())
    );
    println!(
        "RM stages:         {}",
        match gaugur.rm_prefix_stats() {
            Some(s) => format!(
                "trees 0..{} then {}..{}; second-stage ceilings {} bytes",
                s.stage_one_trees, s.stage_one_trees, s.trees, s.ceiling_bytes
            ),
            None => "one (node walk)".to_string(),
        }
    );
    println!(
        "CM ({}):  {}",
        gaugur.config.cm_algorithm,
        gaugur.cm.hyperparameters()
    );
    println!(
        "CM prefixes:       {}",
        prefix_line(gaugur.cm_prefix_stats())
    );
    println!("CM QoS floors:     {:?}", gaugur.config.qos_values);
    println!(
        "training plan:     {} pairs + {} triples + {} quads (seed {})",
        plan.pairs, plan.triples, plan.quads, plan.seed
    );
}

fn predict(opts: &HashMap<String, String>) {
    let gaugur = load_model(opts);
    let res = resolution(opts);
    let target: u32 = get(opts, "target", None::<u32>);
    let target: Placement = (GameId(target), res);
    let others: Vec<Placement> = id_list(opts, "others")
        .into_iter()
        .map(|id| (id, res))
        .collect();

    let degradation = gaugur.predict_degradation(target, &others);
    let fps = gaugur.predict_fps(target, &others);
    println!("predicted degradation ratio: {degradation:.3}");
    println!("predicted frame rate:        {fps:.1} FPS");
    if let Some(qos) = opts.get("qos") {
        let qos: f64 = qos.parse().unwrap_or_else(|_| {
            eprintln!("--qos: bad value");
            exit(2);
        });
        let ok = gaugur.predict_qos(qos, target, &others);
        println!(
            "QoS {qos} FPS:                 {}",
            if ok { "SATISFIED" } else { "VIOLATED" }
        );
    }
}

fn pack(opts: &HashMap<String, String>) {
    let gaugur = load_model(opts);
    let res = resolution(opts);
    let qos: f64 = get(opts, "qos", Some(60.0));
    let n_requests: usize = get(opts, "requests", None::<usize>);
    let games = id_list(opts, "games");
    if games.is_empty() {
        eprintln!("--games must list at least one game id");
        exit(2);
    }

    // Enumerate candidate colocations and judge them with the CM.
    let mut counts: HashMap<GameId, usize> = HashMap::new();
    let seed: u64 = get(opts, "seed", Some(7));
    let mut acc = seed;
    for i in 0..n_requests {
        acc = gaugur_gamesim::rng::mix(acc ^ i as u64);
        *counts
            .entry(games[(acc % games.len() as u64) as usize])
            .or_default() += 1;
    }

    let sets = gaugur_sets(&games);
    let mut usable: Vec<Vec<GameId>> = Vec::new();
    for set in &sets {
        let members: Vec<Placement> = set.iter().map(|&g| (g, res)).collect();
        if gaugur.colocation_feasible(qos, &members) {
            usable.push(set.clone());
        }
    }
    usable.sort_by_key(|s| std::cmp::Reverse(s.len()));

    // Greedy Algorithm-1-style packing on predicted-feasible sets.
    let mut servers = 0usize;
    let mut remaining = counts;
    for set in &usable {
        loop {
            if set
                .iter()
                .any(|g| remaining.get(g).copied().unwrap_or(0) == 0)
            {
                break;
            }
            for g in set {
                *remaining.get_mut(g).expect("counted") -= 1;
            }
            servers += 1;
        }
    }
    let leftovers: usize = remaining.values().sum();
    servers += leftovers;

    println!(
        "{} requests over {} games at QoS {qos} FPS:",
        n_requests,
        games.len()
    );
    println!("  predicted-feasible colocations: {}", usable.len());
    println!("  servers used:                   {servers}");
    println!("  (dedicated servers would need: {n_requests})");
}

/// All non-empty subsets of ≤4 distinct games.
fn gaugur_sets(games: &[GameId]) -> Vec<Vec<GameId>> {
    let mut out = Vec::new();
    let n = games.len();
    for mask in 1u32..(1 << n.min(20)) {
        if mask.count_ones() > 4 {
            continue;
        }
        let set: Vec<GameId> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| games[i])
            .collect();
        out.push(set);
    }
    out
}

const DEFAULT_ADDR: &str = "127.0.0.1:7071";

/// Print multi-line output without panicking when stdout is a pipe that
/// closed early (`gaugur session stats | head`): EPIPE just ends the write.
fn print_multiline(text: &str) {
    use std::io::Write as _;
    let _ = std::io::stdout().write_all(text.as_bytes());
}

fn serve(opts: &HashMap<String, String>) {
    let path: String = get(opts, "model", None::<String>);
    let model = gaugur_serve::ModelHandle::load(&path).unwrap_or_else(|e| {
        eprintln!("cannot load {path}: {e}");
        exit(1);
    });
    let config = gaugur_serve::DaemonConfig {
        bind: opts
            .get("bind")
            .cloned()
            .unwrap_or_else(|| DEFAULT_ADDR.into()),
        n_servers: get(opts, "servers", Some(50)),
        shards: get(opts, "shards", Some(1)),
        workers: get(opts, "workers", Some(4)),
        queue_capacity: get(opts, "queue", Some(64)),
        qos: get(opts, "qos", Some(60.0)),
        recorder_dump_path: opts.get("recorder-dump").map(std::path::PathBuf::from),
        ..Default::default()
    };
    let handle = gaugur_serve::daemon::start(config, model).unwrap_or_else(|e| {
        eprintln!("cannot start daemon: {e}");
        exit(1);
    });
    println!(
        "serving {path} on {} — stop with `gaugur session shutdown --addr {}`",
        handle.local_addr(),
        handle.local_addr()
    );
    handle.wait();
}

fn connect(opts: &HashMap<String, String>) -> gaugur_serve::Client {
    let addr = opts
        .get("addr")
        .cloned()
        .unwrap_or_else(|| DEFAULT_ADDR.into());
    gaugur_serve::Client::connect(&*addr).unwrap_or_else(|e| {
        eprintln!("cannot connect to {addr}: {e}");
        exit(1);
    })
}

fn session(args: &[String]) {
    let Some(action) = args.first() else {
        eprintln!(
            "session needs an action: place | depart | predict | stats | reload | report | \
             retrain | shutdown"
        );
        exit(2);
    };
    let opts = parse_flags(&args[1..]);
    let or_die = |e: gaugur_serve::ClientError| -> ! {
        eprintln!("{e}");
        exit(1);
    };
    match action.as_str() {
        "place" => {
            let game = GameId(get(&opts, "game", None::<u32>));
            let placed = connect(&opts)
                .place(game, resolution(&opts))
                .unwrap_or_else(|e| or_die(e));
            println!(
                "session {} placed on server {} — predicted {:.1} FPS (model v{})",
                placed.session, placed.server, placed.predicted_fps, placed.model_version
            );
        }
        "depart" => {
            let id: u64 = get(&opts, "session", None::<u64>);
            let server = connect(&opts).depart(id).unwrap_or_else(|e| or_die(e));
            println!("session {id} departed from server {server}");
        }
        "predict" => {
            let res = resolution(&opts);
            let target = GameId(get(&opts, "target", None::<u32>));
            let others: Vec<Placement> = id_list(&opts, "others")
                .into_iter()
                .map(|id| (id, res))
                .collect();
            let qos: f64 = get(&opts, "qos", Some(60.0));
            let p = connect(&opts)
                .predict(target, res, &others, qos)
                .unwrap_or_else(|e| or_die(e));
            println!("predicted degradation ratio: {:.3}", p.degradation);
            println!("predicted frame rate:        {:.1} FPS", p.fps);
            println!(
                "QoS {qos} FPS:                 {} (model v{}{})",
                if p.feasible { "SATISFIED" } else { "VIOLATED" },
                p.model_version,
                if p.cached { ", cached" } else { "" }
            );
        }
        "stats" => {
            let stats = connect(&opts).stats().unwrap_or_else(|e| or_die(e));
            print_multiline(&stats.to_string());
        }
        "reload" => {
            let version = connect(&opts)
                .reload(opts.get("model").map(String::as_str))
                .unwrap_or_else(|e| or_die(e));
            println!("model reloaded, now serving version {version}");
        }
        "report" => {
            // Feed one observed-FPS outcome back into the daemon's
            // feedback buffer (the load driver automates this with
            // --report-outcomes; this is the manual path).
            let report = gaugur_serve::OutcomeReport {
                session: get(&opts, "session", None::<u64>),
                observed_fps: get(&opts, "observed", None::<f64>),
                predicted_fps: get(&opts, "predicted", None::<f64>),
                model_version: get(&opts, "version", Some(u64::MAX)),
            };
            let (accepted, stale, dropped) = connect(&opts)
                .report_outcome(report)
                .unwrap_or_else(|e| or_die(e));
            println!("outcome recorded: {accepted} accepted ({stale} stale), {dropped} dropped");
        }
        "retrain" => {
            let min_samples = opts.get("min-samples").map(|v| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("--min-samples: cannot parse {v:?}");
                    exit(2);
                })
            });
            let extra_rounds = opts.get("extra-rounds").map(|v| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("--extra-rounds: cannot parse {v:?}");
                    exit(2);
                })
            });
            let queued = connect(&opts)
                .trigger_retrain(min_samples, extra_rounds)
                .unwrap_or_else(|e| or_die(e));
            if queued {
                println!("retrain queued — watch `gaugur session stats` for completion");
            } else {
                eprintln!("daemon refused to queue a retrain (shutting down?)");
                exit(1);
            }
        }
        "shutdown" => {
            connect(&opts).shutdown().unwrap_or_else(|e| or_die(e));
            println!("daemon is shutting down");
        }
        other => {
            eprintln!("unknown session action {other:?}");
            exit(2);
        }
    }
}

fn load_cmd(opts: &HashMap<String, String>) {
    let mut games = id_list(opts, "games");
    if games.is_empty() {
        games = (0..16).map(GameId).collect();
    }
    let config = gaugur_serve::LoadConfig {
        addr: opts
            .get("addr")
            .cloned()
            .unwrap_or_else(|| DEFAULT_ADDR.into()),
        seed: get(opts, "seed", Some(7)),
        connections: get(opts, "connections", Some(4)),
        requests: get(opts, "requests", Some(1000)),
        rate: get(opts, "rate", Some(f64::INFINITY)),
        mean_session_arrivals: get(opts, "mean-session", Some(8.0)),
        games,
        resolutions: vec![resolution(opts)],
        qos: get(opts, "qos", Some(60.0)),
        batch: get(opts, "batch", Some(1usize)).max(1),
        report_outcomes: get(opts, "report-outcomes", Some(false)),
        observe_noise: get(opts, "observe-noise", Some(0.05)),
        drift: get(opts, "drift", Some(1.0)),
        verify_trace: get(opts, "verify-trace", Some(false)),
        expect_shards: opts
            .get("shards")
            .map(|_| get(opts, "shards", None::<usize>)),
        expect_slo: opts.get("expect-slo").map(|v| alert_state(v)),
    };
    let report = gaugur_serve::load::run(&config);
    let violated = report.trace_violation.is_some()
        || report.shard_violation.is_some()
        || report.slo_violation.is_some();
    print_multiline(&report.to_string());
    if violated {
        exit(1);
    }
}

/// Scrape the daemon's Prometheus text exposition (the `Metrics` wire op)
/// and print it verbatim — pipe it to a file, a pushgateway, or a scrape
/// shim when the daemon is not directly reachable by Prometheus. With
/// `--json true`, fetch the stats snapshot instead and print it as JSON for
/// machine consumers that do not speak the Prometheus text format.
fn metrics_cmd(opts: &HashMap<String, String>) {
    let or_die = |e: gaugur_serve::ClientError| -> ! {
        eprintln!("{e}");
        exit(1);
    };
    if get(opts, "json", Some(false)) {
        let stats = connect(opts).stats().unwrap_or_else(|e| or_die(e));
        let mut json = serde_json::to_string_pretty(&stats).unwrap_or_else(|e| {
            eprintln!("cannot serialize snapshot: {e}");
            exit(1);
        });
        json.push('\n');
        print_multiline(&json);
        return;
    }
    let text = connect(opts).metrics().unwrap_or_else(|e| or_die(e));
    print_multiline(&text);
}

/// Parse an `--expect-slo` / alert-state argument.
fn alert_state(v: &str) -> gaugur_serve::AlertState {
    match v.to_ascii_lowercase().as_str() {
        "ok" => gaugur_serve::AlertState::Ok,
        "warn" => gaugur_serve::AlertState::Warn,
        "critical" => gaugur_serve::AlertState::Critical,
        other => {
            eprintln!("unknown alert state {other:?} (want ok|warn|critical)");
            exit(2);
        }
    }
}

/// Fetch and print the daemon's SLO report: per-objective burn rates over
/// the fast and slow windows, alert states, and the rolling window views
/// they were computed from. `--json true` prints the raw report; `--dump
/// FILE` also snapshots the flight recorder to FILE (`--deterministic true`
/// strips wall-clock and identity noise for byte-comparable dumps).
fn slo_cmd(opts: &HashMap<String, String>) {
    let or_die = |e: gaugur_serve::ClientError| -> ! {
        eprintln!("{e}");
        exit(1);
    };
    let mut client = connect(opts);
    let report = client.slo_status().unwrap_or_else(|e| or_die(e));
    if get(opts, "json", Some(false)) {
        let mut json = serde_json::to_string_pretty(&report).unwrap_or_else(|e| {
            eprintln!("cannot serialize report: {e}");
            exit(1);
        });
        json.push('\n');
        print_multiline(&json);
    } else {
        print_multiline(&report.to_string());
    }
    if let Some(path) = opts.get("dump") {
        let deterministic = get(opts, "deterministic", Some(false));
        let (jsonl, events, truncated) = client
            .dump_recorder(deterministic)
            .unwrap_or_else(|e| or_die(e));
        std::fs::write(path, jsonl).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
        eprintln!(
            "flight recorder: {events} events written to {path}{}",
            if truncated {
                " (ring wrapped; oldest events lost)"
            } else {
                ""
            }
        );
    }
}

/// Live operator view: repaint the daemon's stats table — per-op latency,
/// per-stage timings, slow-request log — every `--interval` seconds.
/// `--iterations 0` (the default) refreshes until interrupted.
fn top_cmd(opts: &HashMap<String, String>) {
    let interval: f64 = get(opts, "interval", Some(2.0));
    let iterations: u64 = get(opts, "iterations", Some(0));
    let mut client = connect(opts);
    let or_die = |e: gaugur_serve::ClientError| -> ! {
        eprintln!("{e}");
        exit(1);
    };
    let mut i = 0u64;
    loop {
        let stats = client.stats().unwrap_or_else(|e| or_die(e));
        // Clear + home, like `watch`: each refresh repaints in place.
        print!("\x1b[2J\x1b[H");
        println!(
            "gaugur top — {} — refresh {interval}s (ctrl-c to quit)\n",
            client.peer_addr()
        );
        print_multiline(&stats.to_string());
        i += 1;
        if iterations != 0 && i >= iterations {
            break;
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval.max(0.1)));
    }
}

/// Run seeded chaos scenarios against an in-process daemon and report the
/// invariant-oracle verdicts. A failing seed reproduces exactly:
/// `gaugur chaos --seed <N>` replays the identical fault schedule.
fn chaos(opts: &HashMap<String, String>) {
    let seed: u64 = get(opts, "seed", Some(0));
    let scenarios: u64 = get(opts, "scenarios", Some(1));
    let n_games: u32 = get(opts, "games", Some(8));
    let artifact: std::path::PathBuf = match opts.get("model") {
        Some(path) => path.into(),
        None => {
            // No artifact given: train a small model on the simulated
            // testbed, exactly like `gaugur build`, into a temp file.
            eprintln!("training a {n_games}-game model for the chaos run …");
            let server = Server::reference(7);
            let catalog = GameCatalog::generate(42, n_games as usize);
            let config = GAugurConfig {
                plan: ColocationPlan {
                    pairs: 40,
                    triples: 10,
                    quads: 5,
                    seed: 3,
                },
                ..GAugurConfig::default()
            };
            let model = GAugur::build(&server, &catalog, config);
            let dir = std::env::temp_dir().join(format!("gaugur-chaos-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
                eprintln!("cannot create {}: {e}", dir.display());
                exit(1);
            });
            let path = dir.join("model.json");
            model.save_json(&path).unwrap_or_else(|e| {
                eprintln!("cannot write {}: {e}", path.display());
                exit(1);
            });
            path
        }
    };

    let mut config = gaugur_serve::chaos::ChaosConfig::for_seed(
        seed,
        artifact,
        (0..n_games).map(GameId).collect(),
    );
    config.ops = get(opts, "ops", Some(40));
    config.n_servers = get(opts, "servers", Some(6));
    config.qos = get(opts, "qos", Some(60.0));

    let reports = gaugur_serve::chaos::run_suite(&config, scenarios);
    let mut failed = 0u64;
    for report in &reports {
        println!("{report}");
        if !report.passed() {
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!(
            "{failed} of {} scenarios violated an invariant",
            reports.len()
        );
        exit(1);
    }
    println!("all {} scenarios passed every oracle", reports.len());
}

fn importance(opts: &HashMap<String, String>) {
    let gaugur = load_model(opts);
    let (server, catalog) = testbed(opts);
    eprintln!("measuring a fresh evaluation campaign …");
    let plan = ColocationPlan {
        pairs: 60,
        triples: 20,
        quads: 10,
        seed: get::<u64>(opts, "seed", Some(7)) ^ 0x1111,
    };
    let colocations = gaugur_core::plan_colocations(&catalog, &plan);
    let measured = gaugur_core::measure_colocations(&server, &catalog, &colocations);
    let data = to_dataset(&gaugur_core::build_rm_samples(&gaugur.profiles, &measured));
    let imp = permutation_importance(&gaugur.rm, &data, gaugur.config.profiling.granularity, 5);
    println!("{:<26} {:>10}", "feature group", "Δ error");
    for (group, delta) in imp {
        println!("{:<26} {:>9.2}%", group.label(), delta * 100.0);
    }
}
