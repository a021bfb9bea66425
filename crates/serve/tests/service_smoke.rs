//! End-to-end smoke test of the `edf-serve` binary: launch the real
//! process, drive an admit → what-if → evict session over its stdin/stdout
//! line protocol, and assert both the verdicts and a bounded per-request
//! latency.  This is the same script the CI service-smoke step runs.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::thread;

/// Generous per-request latency ceiling.  Delta re-analysis of these tiny
/// systems takes microseconds; the ceiling only guards against pathological
/// regressions (e.g. accidentally re-preparing from scratch in a loop)
/// while staying robust to loaded CI machines.
const LATENCY_CEILING_US: u128 = 2_000_000;

struct Service {
    child: Child,
    requests: ChildStdin,
    replies: BufReader<std::process::ChildStdout>,
}

impl Service {
    fn launch() -> Self {
        Service::launch_with(&[])
    }

    fn launch_with(args: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_edf-serve"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("launch edf-serve");
        let requests = child.stdin.take().expect("piped stdin");
        let replies = BufReader::new(child.stdout.take().expect("piped stdout"));
        Service {
            child,
            requests,
            replies,
        }
    }

    fn roundtrip(&mut self, request: &str) -> String {
        writeln!(self.requests, "{request}").expect("write request");
        self.requests.flush().expect("flush request");
        let mut reply = String::new();
        self.replies.read_line(&mut reply).expect("read reply");
        assert!(!reply.is_empty(), "service hung up on: {request}");
        reply.trim_end().to_owned()
    }

    fn quit(mut self) {
        assert_eq!(self.roundtrip("QUIT"), "BYE");
        let status = self.child.wait().expect("service exit");
        assert!(status.success(), "service exited with {status}");
    }
}

/// Extracts the `us=<n>` latency field the service stamps on admission
/// replies and asserts it stays under the ceiling.
fn assert_bounded_latency(reply: &str) {
    let micros: u128 = reply
        .split_whitespace()
        .find_map(|field| field.strip_prefix("us="))
        .unwrap_or_else(|| panic!("no us= field in: {reply}"))
        .parse()
        .expect("numeric us= field");
    assert!(
        micros < LATENCY_CEILING_US,
        "request took {micros}us (ceiling {LATENCY_CEILING_US}us): {reply}"
    );
}

#[test]
fn admit_whatif_evict_session() {
    let mut service = Service::launch();

    // Admit two feasible components for tenant alpha.
    let first = service.roundtrip("ADMIT alpha 4 9 10");
    assert!(
        first.starts_with("ADMITTED id=0 verdict=feasible"),
        "{first}"
    );
    assert_bounded_latency(&first);
    let second = service.roundtrip("ADMIT alpha 3 14 20");
    assert!(
        second.starts_with("ADMITTED id=1 verdict=feasible"),
        "{second}"
    );
    assert_bounded_latency(&second);

    // An overloading third component is rejected and leaves no trace.
    let rejected = service.roundtrip("ADMIT alpha 9 9 10");
    assert!(
        rejected.starts_with("REJECTED verdict=infeasible"),
        "{rejected}"
    );
    assert_bounded_latency(&rejected);
    let stat = service.roundtrip("STAT alpha");
    assert!(stat.starts_with("STAT tenant=alpha components=2"), "{stat}");

    // What-if mirrors the admit verdicts without committing.
    let would_fit = service.roundtrip("WHATIF alpha 1 19 20");
    assert!(
        would_fit.starts_with("WHATIF admit verdict=feasible"),
        "{would_fit}"
    );
    assert_bounded_latency(&would_fit);
    let would_overload = service.roundtrip("WHATIF alpha 9 9 10");
    assert!(
        would_overload.starts_with("WHATIF reject verdict=infeasible"),
        "{would_overload}"
    );
    assert!(service
        .roundtrip("STAT alpha")
        .starts_with("STAT tenant=alpha components=2"));

    // Tenants are independent: beta admits what alpha would reject.
    let beta = service.roundtrip("ADMIT beta 9 9 10");
    assert!(beta.starts_with("ADMITTED id=2 verdict=feasible"), "{beta}");

    // Evict alpha's first component; the freed capacity admits the
    // previously rejected one.
    assert_eq!(service.roundtrip("EVICT alpha 0"), "EVICTED id=0");
    assert!(service
        .roundtrip("EVICT alpha 0")
        .starts_with("ERR code=unknown-component no component 0"));
    let readmitted = service.roundtrip("ADMIT alpha 9 11 12");
    assert!(
        readmitted.starts_with("ADMITTED id=3 verdict=feasible"),
        "{readmitted}"
    );

    // Budgeted mode with zero budget answers an honest unknown — never a
    // wrong verdict — and declines the admission.
    assert_eq!(service.roundtrip("MODE budget 0"), "MODE budget us=0");
    let undetermined = service.roundtrip("ADMIT alpha 1 19 20");
    assert!(
        undetermined.starts_with("UNDETERMINED verdict=unknown"),
        "{undetermined}"
    );
    assert!(service
        .roundtrip("STAT alpha")
        .starts_with("STAT tenant=alpha components=2"));

    // ... but a provable overload is still rejected under zero budget (the
    // exact U > 1 comparison is free), and a generous budget is decisive.
    let overload = service.roundtrip("ADMIT gamma 11 12 10");
    assert!(
        overload.starts_with("REJECTED verdict=infeasible"),
        "{overload}"
    );
    assert_eq!(
        service.roundtrip("MODE budget 1000000"),
        "MODE budget us=1000000"
    );
    let decisive = service.roundtrip("ADMIT alpha 1 19 20");
    assert!(
        decisive.starts_with("ADMITTED id=4 verdict=feasible"),
        "{decisive}"
    );

    service.quit();
}

/// A few hundred requests across five tenants: admissions, what-ifs,
/// evictions (some of ids that never existed), summaries and errors.
fn pipelined_script() -> Vec<String> {
    (0..300u64)
        .map(|index| {
            let tenant = format!("t{}", index % 5);
            let (cost, deadline, period) = (1 + index % 4, 8 + index % 13, 10 + index % 17);
            match index % 6 {
                0 | 1 => format!("ADMIT {tenant} {cost} {deadline} {period}"),
                2 => format!("WHATIF {tenant} {cost} {deadline} {period}"),
                3 => format!("STAT {tenant}"),
                4 => format!("EVICT {tenant} {}", index / 3),
                _ if index % 4 == 1 => "HEALTH".to_owned(),
                _ => format!("FROB {index}"),
            }
        })
        .collect()
}

/// `reply` without its wall-clock `us=` field.
fn without_timing(reply: &str) -> String {
    reply
        .split_whitespace()
        .filter(|field| !field.starts_with("us="))
        .collect::<Vec<_>>()
        .join(" ")
}

/// A client that sends every request before reading any reply gets the
/// replies a lockstep client gets, in order: the batched replies of the
/// pipelined burst carry the same lines.
#[test]
fn pipelined_session_matches_lockstep_session() {
    let script = pipelined_script();
    let args = ["--work-rate", "25"];

    let mut lockstep = Service::launch_with(&args);
    let expected: Vec<String> = script
        .iter()
        .map(|request| without_timing(&lockstep.roundtrip(request)))
        .collect();
    lockstep.quit();

    let Service {
        mut child,
        mut requests,
        replies,
    } = Service::launch_with(&args);
    let burst = script
        .iter()
        .map(|request| format!("{request}\n"))
        .collect::<String>()
        + "QUIT\n";
    let writer = thread::spawn(move || {
        requests
            .write_all(burst.as_bytes())
            .expect("write requests");
        // Dropping `requests` closes the service's stdin.
    });
    let mut replies: Vec<String> = replies
        .lines()
        .map(|reply| without_timing(&reply.expect("read reply")))
        .collect();
    writer.join().expect("writer thread");
    let status = child.wait().expect("service exit");
    assert!(status.success(), "service exited with {status}");
    assert_eq!(replies.pop().as_deref(), Some("BYE"));
    assert_eq!(replies.len(), script.len());
    for (index, (reply, want)) in replies.iter().zip(&expected).enumerate() {
        assert_eq!(reply, want, "request {index}: {}", script[index]);
    }
}
