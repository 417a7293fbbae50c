//! `sdn-serve` — boot the long-running simulation service, or replay a recorded
//! command log and verify it reproduces the live report bit for bit.

use sdn_serve::{CommandLog, Server, Session, SessionConfig};
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "\
usage:
  sdn-serve serve [--addr HOST:PORT] [--topology NAME] [--controllers N]
                  [--seed N] [--tick-ms N] [--ring N] [--log PATH] [--pace-ms N]
  sdn-serve replay <LOG>

serve   boot a session and expose the HTTP/JSON control surface
        (defaults: --addr 127.0.0.1:7878, --topology fat_tree(4), --controllers 2,
         --seed 7, --tick-ms 1000, --ring 4096; --log writes the command log on
         shutdown; --pace-ms adds cosmetic wall-clock pacing between ticks)
replay  re-execute a recorded command log and fail unless the recomputed
        final report is byte-identical to the recorded one";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("replay") => replay(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn parse_flag<T: FromStr>(flag: &str, value: Option<&String>) -> T {
    let Some(value) = value else {
        eprintln!("{flag} needs a value\n{USAGE}");
        std::process::exit(2);
    };
    match value.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("{flag}: cannot parse `{value}`");
            std::process::exit(2);
        }
    }
}

fn serve(args: &[String]) -> ExitCode {
    let mut config = SessionConfig::default();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut log_path: Option<String> = None;
    let mut pace_ms = 0u64;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1);
        match flag {
            "--addr" => addr = parse_flag(flag, value),
            "--topology" => {
                config.topology = parse_flag(flag, value);
                if let Err(error) = sdn_topology::builders::lookup(&config.topology) {
                    eprintln!("--topology: {error}");
                    return ExitCode::from(2);
                }
            }
            "--controllers" => config.controllers = parse_flag(flag, value),
            "--seed" => config.seed = parse_flag(flag, value),
            "--tick-ms" => config.tick_millis = parse_flag(flag, value),
            "--ring" => config.ring_capacity = parse_flag(flag, value),
            "--log" => log_path = Some(parse_flag(flag, value)),
            "--pace-ms" => pace_ms = parse_flag(flag, value),
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 2;
    }
    let session = Session::new(config);
    let server = match Server::bind(session, &addr) {
        Ok(server) => server.with_pace_millis(pace_ms),
        Err(error) => {
            eprintln!("cannot bind {addr}: {error}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("sdn-serve listening on http://{}", server.addr());
    let (report, log) = server.run();
    if let Some(path) = log_path {
        if let Err(error) = std::fs::write(&path, log.to_jsonl()) {
            eprintln!("cannot write command log to {path}: {error}");
            return ExitCode::FAILURE;
        }
        eprintln!("command log written to {path}");
    }
    println!("{report}");
    ExitCode::SUCCESS
}

fn replay(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("cannot read {path}: {error}");
            return ExitCode::FAILURE;
        }
    };
    let log = match CommandLog::parse(&text) {
        Ok(log) => log,
        Err(error) => {
            eprintln!("{path}: {error}");
            return ExitCode::FAILURE;
        }
    };
    match log.verify() {
        Ok(report) => {
            eprintln!(
                "replay OK: {} commands, final tick {}, report byte-identical",
                log.entries.len(),
                log.final_tick
            );
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("replay FAILED: {error}");
            ExitCode::FAILURE
        }
    }
}
