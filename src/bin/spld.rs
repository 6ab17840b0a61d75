//! `spld` — the transform-serving daemon.
//!
//! Serves complex DFTs over a length-prefixed framed protocol on a
//! Unix socket (or stdin/stdout with `--stdio`), keeping wisdom,
//! resolved VM programs, and native kernels warm across requests and —
//! through the state directory — across restarts. See `docs/SPLD.md`
//! for the protocol and operational semantics.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use spl::serve::{ChaosConfig, Server, ServerConfig};

const USAGE: &str = "spld - fault-tolerant transform-serving daemon

usage: spld --socket <path> [options]
       spld --stdio [options]

transport:
  --socket <path>   listen on a Unix domain socket at <path>
  --stdio           serve exactly one session over stdin/stdout

serving state:
  --state-dir <dir> kernel cache (restarts reload kernels without cc)
  --wisdom <file>   preload searched plans (splsearch --wisdom-out format)
  --wisdom-db <dir> preload the cross-run wisdom database (splsearch
                    --wisdom-db); the W control verb re-reads it live

capacity:
  --workers <n>         concurrent executions: connection threads run the
                        transforms themselves, <n> at a time (default 2)
  --queue-cap <n>       admission queue bound; beyond it requests get
                        an explicit OVERLOADED reply (default 64)
  --max-size <n>        largest servable transform size (default 65536)
  --no-native           serve from the VM only (skip native kernels)

chaos (deterministic fault injection, for soak testing):
  --chaos-seed <n>            seed for the injection stream
  --chaos-kernel-fault <p>    probability a native run simulates a crash
  --chaos-latency-p <p>       probability a request is delayed
  --chaos-latency-ms <n>      the injected delay (default 20)
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("spld: {msg}");
    eprintln!("run with --help for usage");
    ExitCode::from(2)
}

struct Options {
    socket: Option<PathBuf>,
    stdio: bool,
    config: ServerConfig,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        socket: None,
        stdio: false,
        config: ServerConfig::default(),
    };
    let mut chaos = ChaosConfig::default();
    let mut chaos_used = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match a.as_str() {
            "--help" | "-h" => return Ok(None),
            "--socket" => opts.socket = Some(PathBuf::from(value("--socket")?)),
            "--stdio" => opts.stdio = true,
            "--state-dir" => opts.config.state_dir = Some(PathBuf::from(value("--state-dir")?)),
            "--wisdom" => opts.config.wisdom = Some(PathBuf::from(value("--wisdom")?)),
            "--wisdom-db" => {
                opts.config.wisdom_db = Some(PathBuf::from(value("--wisdom-db")?));
            }
            "--workers" => opts.config.workers = parse_num(&value("--workers")?, "--workers")?,
            "--queue-cap" => {
                opts.config.queue_cap = parse_num(&value("--queue-cap")?, "--queue-cap")?;
            }
            "--max-size" => opts.config.max_size = parse_num(&value("--max-size")?, "--max-size")?,
            "--no-native" => opts.config.native = false,
            "--chaos-seed" => {
                chaos.seed = parse_num(&value("--chaos-seed")?, "--chaos-seed")?;
                chaos_used = true;
            }
            "--chaos-kernel-fault" => {
                chaos.p_kernel_fault =
                    parse_prob(&value("--chaos-kernel-fault")?, "--chaos-kernel-fault")?;
                chaos_used = true;
            }
            "--chaos-latency-p" => {
                chaos.p_latency = parse_prob(&value("--chaos-latency-p")?, "--chaos-latency-p")?;
                chaos_used = true;
            }
            "--chaos-latency-ms" => {
                let ms: u64 = parse_num(&value("--chaos-latency-ms")?, "--chaos-latency-ms")?;
                chaos.latency = Duration::from_millis(ms);
                chaos_used = true;
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if chaos_used {
        opts.config.chaos = Some(chaos);
    }
    match (&opts.socket, opts.stdio) {
        (None, false) => Err("one of --socket or --stdio is required".into()),
        (Some(_), true) => Err("--socket and --stdio are mutually exclusive".into()),
        _ => Ok(Some(opts)),
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: bad value {s:?}"))
}

fn parse_prob(s: &str, flag: &str) -> Result<f64, String> {
    let p: f64 = parse_num(s, flag)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{flag}: probability {s} outside [0, 1]"));
    }
    Ok(p)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            spl::telemetry::out!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => return fail(&msg),
    };
    let server = match Server::new(opts.config) {
        Ok(server) => server,
        Err(e) => return fail(&e.to_string()),
    };
    if opts.stdio {
        let mut stdin = std::io::stdin().lock();
        let mut stdout = std::io::stdout().lock();
        server.serve_stream(&mut stdin, &mut stdout);
        return ExitCode::SUCCESS;
    }
    let socket = opts.socket.expect("validated by parse_args");
    match server.serve_unix(&socket) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&format!("serving {}: {e}", socket.display())),
    }
}
