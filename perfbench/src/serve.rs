//! The `serve_session` workload: an in-process `sdn_serve::Server` driven over
//! HTTP by one closed-loop client.
//!
//! Each cycle the client sends `POST /step?ticks=1`, `GET /legitimacy` and
//! `GET /metrics`, each on its own connection and only after the previous answer
//! arrived. Every 20th cycle it also pages `GET /log`; from a fixed cycle on, it
//! posts a fault every 30 cycles and waits for legitimacy to return. A flow set is
//! attached once, on the first cycle. After `POST /shutdown` the command log is
//! replayed with `CommandLog::verify`, which must reproduce the live report byte
//! for byte.

use crate::layers::push;
use crate::rep::{median_setup, Rep, Size};
use renaissance_bench::report::Json;
use sdn_serve::{CommandLog, Server, Session, SessionConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One serve-session configuration.
pub struct Spec {
    topology: &'static str,
    cycles: u64,
    /// Cycle of the first fault; faults follow every `fault_every` cycles.
    first_fault: u64,
    fault_every: u64,
    flow_pairs: u32,
}

/// `fat_tree(8)` (tiny: `fat_tree(4)`), 3 controllers, 250 ms ticks.
pub fn serve_session(size: Size) -> Spec {
    match size {
        Size::Full => Spec {
            topology: "fat_tree(8)",
            cycles: 160,
            first_fault: 60,
            fault_every: 30,
            flow_pairs: 20_000,
        },
        Size::Tiny => Spec {
            topology: "fat_tree(4)",
            cycles: 60,
            first_fault: 20,
            fault_every: 20,
            flow_pairs: 500,
        },
    }
}

const TICK_MILLIS: u64 = 250;

/// A minimal HTTP/1.1 client: one request per connection, JSON body back.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, Json), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("timeout: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .ok_or("response has no header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response has no status")?;
    let json = Json::parse(payload).map_err(|e| format!("bad JSON body: {e}"))?;
    Ok((status, json))
}

/// The closed-loop client: times every request, records violations.
struct Client<'a> {
    addr: SocketAddr,
    rep: &'a mut Rep,
}

impl Client<'_> {
    fn call(&mut self, endpoint: &str, method: &str, path: &str, body: &str) -> Option<Json> {
        self.rep.attempted += 1;
        let started = Instant::now();
        let result = http(self.addr, method, path, body);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok((200, json)) => {
                push(&mut self.rep.samples, "request_ms", ms);
                push(
                    &mut self.rep.samples,
                    &format!("serve.http_ms.{endpoint}"),
                    ms,
                );
                Some(json)
            }
            Ok((status, json)) => {
                self.rep
                    .violation(format!("{method} {path} answered {status}: {json}"));
                None
            }
            Err(error) => {
                self.rep
                    .violation(format!("{method} {path} failed: {error}"));
                None
            }
        }
    }
}

fn num(json: &Json, path: &[&str]) -> Option<f64> {
    let mut at = json;
    for key in path {
        at = at.get(key)?;
    }
    at.as_f64()
}

/// Two distinct switch-to-switch links of the topology, picked by `seed`.
fn pick_links(topology: &Json, seed: u64) -> Option<[(u32, u32); 2]> {
    let controllers: Vec<f64> = match topology.get("controllers")? {
        Json::Arr(ids) => ids.iter().filter_map(Json::as_f64).collect(),
        _ => return None,
    };
    let Json::Arr(links) = topology.get("links")? else {
        return None;
    };
    let links: Vec<(u32, u32)> = links
        .iter()
        .filter_map(|link| match link {
            Json::Arr(ends) if ends.len() == 2 => Some((ends[0].as_f64()?, ends[1].as_f64()?)),
            _ => None,
        })
        .filter(|(a, b)| !controllers.contains(a) && !controllers.contains(b))
        .map(|(a, b)| (a as u32, b as u32))
        .collect();
    if links.len() < 2 {
        return None;
    }
    let first = (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33) as usize % links.len();
    let second = (first + links.len() / 2) % links.len();
    Some([links[first], links[second]])
}

/// The fault posted at fault slot `k`.
fn fault_body(k: u64, links: &[(u32, u32); 2]) -> String {
    let ((a, b), (c, d)) = (links[0], links[1]);
    match k % 4 {
        0 => format!(r#"{{"kind":"fail_link","a":{a},"b":{b}}}"#),
        1 => format!(r#"{{"kind":"restore_link","a":{a},"b":{b}}}"#),
        2 => format!(r#"{{"kind":"flap_link","a":{c},"b":{d},"period_ticks":8,"count":2}}"#),
        _ => format!(r#"{{"kind":"fail_link","a":{c},"b":{d}}}"#),
    }
}

/// Runs one repetition: set-up, the HTTP session, shutdown and replay.
pub fn rep(spec: &Spec, seed: u64, traced: bool) -> Rep {
    let mut rep = Rep::default();
    let config = SessionConfig {
        topology: spec.topology.to_string(),
        controllers: 3,
        seed,
        tick_millis: TICK_MILLIS,
        ring_capacity: 4096,
    };

    // Session construction is sub-millisecond, so the set-up time is its median over
    // repeated builds. Binding the socket is not counted.
    rep.setup_s = median_setup(|| drop(std::hint::black_box(Session::new(config.clone()))));
    let server = match Server::bind(Session::new(config), "127.0.0.1:0") {
        Ok(server) => server,
        Err(error) => {
            rep.attempted = 1;
            rep.violation(format!("cannot bind the server: {error}"));
            return rep;
        }
    };

    let addr = server.addr();
    let started = Instant::now();
    let server_thread = std::thread::spawn(move || server.run());
    drive(
        spec,
        seed,
        Client {
            addr,
            rep: &mut rep,
        },
    );
    let (report, log) = match server_thread.join() {
        Ok(done) => done,
        Err(_) => {
            rep.violation("the server thread panicked");
            return rep;
        }
    };
    rep.run_s = started.elapsed().as_secs_f64();
    rep.attempted += 1;
    rep.sim_s = num(&report, &["sim_s"]).unwrap_or(0.0);

    let started = Instant::now();
    let verdict = log.verify();
    push(
        &mut rep.samples,
        "replay_s",
        started.elapsed().as_secs_f64(),
    );
    if let Err(error) = verdict {
        rep.violation(format!("the command log did not replay: {error}"));
    }
    for (name, path) in [
        ("control_messages", &["metrics", "msgs_sent"][..]),
        ("netsim.events", &["metrics", "events"]),
        ("netsim.messages", &["metrics", "msgs_sent"]),
        ("netsim.bytes", &["metrics", "bytes_sent"]),
        ("sim_end_s", &["sim_s"]),
    ] {
        match num(&report, path) {
            Some(value) => rep.outcome(name, value),
            None => rep.violation(format!("the final report lacks {}", path.join("."))),
        }
    }
    rep.outcome("serve.commands", log.entries.len() as f64);
    if traced {
        timed_replay(&log, &mut rep);
    }
    rep
}

/// The client's script. Deterministic: every command depends only on the cycle
/// and on the (deterministic) answers of the session.
fn drive(spec: &Spec, seed: u64, mut client: Client<'_>) {
    let tick_s = TICK_MILLIS as f64 / 1e3;
    let links = client
        .call("topology", "GET", "/topology", "")
        .and_then(|topology| pick_links(&topology, seed));
    let Some(links) = links else {
        client
            .rep
            .violation("no two switch-to-switch links to fault");
        client.call("shutdown", "POST", "/shutdown", "");
        return;
    };
    let flows = format!(
        r#"{{"pairs":{},"duration_ticks":{}}}"#,
        spec.flow_pairs, spec.cycles
    );
    client.call("flows", "POST", "/flows", &flows);

    let mut bootstrap: Option<u64> = None;
    // The cycle of the fault still waiting for legitimacy to return.
    let mut awaiting: Option<u64> = None;
    let mut recovery_ticks = 0u64;
    let mut log_from = 0u64;
    for cycle in 1..=spec.cycles {
        // A fault is posted only if a whole interval remains to recover in.
        let fault_due = cycle >= spec.first_fault
            && (cycle - spec.first_fault).is_multiple_of(spec.fault_every)
            && cycle + spec.fault_every <= spec.cycles;
        if fault_due {
            if bootstrap.is_none() {
                client.rep.violation(format!(
                    "no bootstrap before the first fault (cycle {cycle})"
                ));
            }
            if let Some(since) = awaiting.take() {
                client
                    .rep
                    .violation(format!("the fault posted at cycle {since} did not recover"));
            }
            let slot = (cycle - spec.first_fault) / spec.fault_every;
            client.rep.attempted += 1;
            if client
                .call("faults", "POST", "/faults", &fault_body(slot, &links))
                .is_some()
            {
                awaiting = Some(cycle);
            }
        }
        client.call("step", "POST", "/step?ticks=1", "");
        let legitimate = client
            .call("legitimacy", "GET", "/legitimacy", "")
            .and_then(|v| v.get("legitimate").and_then(Json::as_bool))
            .unwrap_or(false);
        let pending = client
            .call("metrics", "GET", "/metrics", "")
            .and_then(|m| num(&m, &["pending_faults"]))
            .unwrap_or(0.0);
        if legitimate && bootstrap.is_none() {
            bootstrap = Some(cycle);
        }
        if let Some(since) = awaiting {
            if legitimate && pending == 0.0 {
                recovery_ticks += cycle - since;
                awaiting = None;
            }
        }
        if cycle % 20 == 0 {
            if let Some(page) =
                client.call("log", "GET", &format!("/log?from={log_from}&limit=50"), "")
            {
                log_from = num(&page, &["next"]).map_or(log_from, |n| n as u64);
            }
        }
    }
    if let Some(since) = awaiting {
        client
            .rep
            .violation(format!("the fault posted at cycle {since} did not recover"));
    }
    client.call("shutdown", "POST", "/shutdown", "");
    match bootstrap {
        Some(cycle) => client.rep.outcome("bootstrap_sim_s", cycle as f64 * tick_s),
        None => client.rep.violation("the session never became legitimate"),
    }
    client
        .rep
        .outcome("recovery_sim_s", recovery_ticks as f64 * tick_s);
}

/// Re-executes the log the way `CommandLog::replay` does, timing `Session::step`
/// and the snapshot renderers directly.
fn timed_replay(log: &CommandLog, rep: &mut Rep) {
    let mut session = Session::new(log.config.clone());
    let step = |session: &mut Session, rep: &mut Rep| {
        let started = Instant::now();
        session.step();
        push(
            &mut rep.samples,
            "serve.session_step_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        let started = Instant::now();
        std::hint::black_box(session.metrics_json());
        std::hint::black_box(session.legitimacy_json());
        push(
            &mut rep.samples,
            "serve.render_ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
    };
    for (tick, cmd) in &log.entries {
        while session.tick() < *tick {
            step(&mut session, rep);
        }
        session.apply(cmd);
    }
    while session.tick() < log.final_tick {
        step(&mut session, rep);
    }
    if session.final_report().to_string() != log.report.to_string() {
        rep.violation("the timed replay diverged from the recorded report");
    }
}
