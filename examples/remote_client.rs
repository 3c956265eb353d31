//! Remote monitoring: drive a serving monitor over the `AHP2` wire
//! protocol instead of in-process.
//!
//! Start a server in one terminal and point this client at it:
//!
//! ```text
//! cargo run --release -p advhunter-cli -- serve CASE --tiny --addr 127.0.0.1:9471
//! cargo run --release --example remote_client -- --addr 127.0.0.1:9471 -n 8
//! ```
//!
//! The client submits `-n` random images shaped `--dims` (the serving
//! scenario's input shape), tags each with a caller correlation id, and
//! prints one line per reply — including the `config_epoch` the verdict
//! was scored under, which bumps when `advhunter deploy` hot-swaps the
//! detector mid-stream. `--stats` round-trips the service counters and
//! `--shutdown` asks the server to drain and exit when done.

use advhunter_tensor::{init, Tensor};
use advhunter_wire::{ControlOp, MonitorClient, MonitorRequest, ServerReply};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Options {
    addr: String,
    n: usize,
    dims: Vec<usize>,
    tenant: u64,
    seed: u64,
    stats: bool,
    shutdown: bool,
}

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        addr: "127.0.0.1:9471".to_string(),
        n: 8,
        dims: vec![3, 32, 32],
        tenant: 0,
        seed: 7,
        stats: false,
        shutdown: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                opts.addr = args.get(i + 1).ok_or("--addr needs host:port")?.clone();
                i += 2;
            }
            "-n" => {
                opts.n = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("-n needs a number")?;
                i += 2;
            }
            "--dims" => {
                let spec = args.get(i + 1).ok_or("--dims needs C,H,W")?;
                opts.dims = spec
                    .split(',')
                    .map(|d| d.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("bad --dims {spec:?} (expected e.g. 3,32,32)"))?;
                i += 2;
            }
            "--tenant" => {
                opts.tenant = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--tenant needs a number")?;
                i += 2;
            }
            "--seed" => {
                opts.seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a number")?;
                i += 2;
            }
            "--stats" => {
                opts.stats = true;
                i += 1;
            }
            "--shutdown" => {
                opts.shutdown = true;
                i += 1;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = parse_args()?;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut client = MonitorClient::connect(&*opts.addr)?;
    println!("connected to {}", opts.addr);

    // Pipeline the whole stream: submissions only write, replies are
    // read back afterwards in submission order.
    for corr in 0..opts.n as u64 {
        let image: Tensor = init::uniform(&mut rng, &opts.dims, 0.0, 1.0);
        let request = MonitorRequest::new(image)
            .tenant(opts.tenant)
            .request_id(corr);
        client.submit(&request)?;
    }
    let mut scored = 0u64;
    let mut rejected = 0u64;
    for _ in 0..opts.n {
        match client.recv_reply()? {
            ServerReply::Verdict(v) => {
                scored += 1;
                println!(
                    "verdict id={} corr={} predicted={} flagged={} epoch={}",
                    v.request_id,
                    v.correlation_id.map_or("-".to_string(), |c| c.to_string()),
                    v.verdict.predicted(),
                    v.flagged,
                    v.config_epoch,
                );
            }
            ServerReply::Rejected(r) => {
                rejected += 1;
                println!(
                    "rejected corr={} code={:?}: {}",
                    r.correlation_id.map_or("-".to_string(), |c| c.to_string()),
                    r.code,
                    r.message,
                );
            }
        }
    }
    println!("replies: {scored} scored, {rejected} rejected");

    if opts.stats {
        let s = client.stats()?;
        println!(
            "stats: submitted={} completed={} shed={} drained={} swaps={} drift={} epoch={}",
            s.submitted,
            s.completed,
            s.shed,
            s.drained,
            s.detector_swaps,
            s.drift_events,
            s.config_epoch,
        );
    }
    if opts.shutdown {
        let epoch = client.control(ControlOp::Shutdown)?;
        println!("shutdown acknowledged at epoch {epoch}");
    }
    Ok(())
}
