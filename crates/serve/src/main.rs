//! The `edf-serve` binary: the admission-control service behind a line
//! protocol on stdin/stdout, one request per line, one reply per request.
//!
//! # Usage
//!
//! ```text
//! edf-serve [--journal <path>] [--watchdog <micros>] [--work-rate <units-per-us>]
//! ```
//!
//! * `--journal <path>` — attach the durable journal at `path`: the
//!   service first **recovers** (replays the journal's valid prefix,
//!   rebuilding every tenant's committed state bit-identically), then
//!   appends every mutation before applying it.
//! * `--watchdog <micros>` — guard every request with a `micros`
//!   allowance (default hysteresis: degrade to budgeted mode after 3
//!   consecutive trips, recover after 8 clean requests).  The allowance
//!   is enforced **budget-first**: it is converted once to deterministic
//!   work units at the service's work rate and metered at the analysis
//!   loops' budget checkpoints, with the wall clock kept only as a
//!   backstop against mis-calibration — so shedding decisions are
//!   bit-reproducible across machines.
//! * `--work-rate <units-per-us>` — pin the wall-clock → work-unit
//!   conversion rate instead of calibrating it at startup.  Without this
//!   flag the service runs its QPA test over a reference workload for
//!   about 2 ms at launch and derives the rate from it.
//!
//! # Requests
//!
//! ```text
//! ADMIT  <tenant> <cost> <deadline> [period]   admit a component
//! WHATIF <tenant> <cost> <deadline> [period]   hypothetical admit
//! EVICT  <tenant> <id>                         remove a committed component
//! STAT   <tenant>                              committed-system summary
//! MODE   exact | budget <micros> | units <n>   switch the SLA mode
//! SYNC                                         fsync the journal
//! SNAPSHOT                                     compact the journal
//! HEALTH                                       service health summary
//! QUIT                                         shut down
//! ```
//!
//! A component with a `period` is periodic; without one it is a one-shot
//! arriving at time zero.  Every analysed request is decided by QPA
//! descent from the QPA horizon, and `iters=` in its reply counts the
//! descent steps.  Replies are single lines:
//!
//! ```text
//! ADMITTED id=<id> verdict=<v> iters=<n> us=<elapsed>
//! REJECTED verdict=<v> iters=<n> us=<elapsed>
//! UNDETERMINED verdict=<v> iters=<n> us=<elapsed>
//! WHATIF <admit|reject|unknown> verdict=<v> iters=<n> us=<elapsed>
//! EVICTED id=<id>
//! STAT tenant=<t> components=<n> utilization=<u>
//! MODE exact | MODE budget us=<micros> | MODE units=<n>
//! SYNCED | SNAPSHOTTED records=<n>
//! HEALTH tenants=<n> degraded=<bool> guard_trips=<n> panics_isolated=<n>
//!        budget_exhaustions=<n> work_rate=<units-per-us>
//! BYE
//! ERR code=<code> <detail>
//! ```
//!
//! `MODE units <n>` sets the per-request allowance in deterministic work
//! units, which is machine-independent and therefore exactly
//! reproducible.  `MODE budget <micros>` is sugar for it: the service
//! converts the microseconds to units once, when the mode is set, at its
//! current work rate (`units = micros × work_rate`), and from then on
//! holds — and journals — only the units.  A recovered service therefore
//! grants the same allowance whatever work rate it restarts with.
//! Either way a request is one exact run under the allowance: the QPA
//! descent `MODE exact` runs, metered at one unit for entering the
//! request plus one per descent step, so a decisive reply is the reply
//! `MODE exact` gives.  A request whose allowance runs out answers
//! `UNDETERMINED verdict=unknown` — honest, never fabricated — and
//! increments `budget_exhaustions` in `HEALTH`.  `guard_trips` counts
//! only exhaustions that bind on the *watchdog* allowance (or the
//! wall-clock backstop), so a tight SLA budget alone never drives the
//! shed/degrade hysteresis.
//!
//! # Error taxonomy
//!
//! Every failed request answers exactly one `ERR code=<code> <detail>`
//! line; the codes are stable protocol contract:
//!
//! | code | meaning |
//! |------|---------|
//! | `bad-line` | non-UTF-8 bytes or line over the 4096-byte cap |
//! | `unknown-command` | unrecognized verb |
//! | `usage` | recognized verb, malformed arguments |
//! | `invalid-component` | zero cost, zero relative deadline or zero period |
//! | `tenant-limit` / `component-limit` / `tenant-name` | resource caps |
//! | `unknown-tenant` / `unknown-component` | target does not exist |
//! | `analysis-panic` | analysis panicked; tenant view rebuilt, no verdict fabricated |
//! | `journal` | journal I/O failed; the mutation was rolled back |
//! | `no-journal` | `SYNC`/`SNAPSHOT` without `--journal` |
//! | `ids-exhausted` | `ADMIT` with no component id left to hand out |
//!
//! # Durability and recovery
//!
//! With `--journal`, every committed mutation (tenant creation,
//! admission, eviction, mode change) is appended — checksummed — to the
//! journal *before* it takes effect, and the record is handed to the OS
//! (`write_all`) before its reply is written: a committed mutation
//! survives **process death** (`kill -9`) unconditionally.  Replies
//! leave once the service has answered every request already buffered
//! on stdin — the replies to such a burst share one write — and always
//! before the service waits for more input.  Surviving **machine
//! death** (power loss) additionally requires `SYNC` (`fsync`).  On
//! restart, the journal's valid prefix is replayed; a torn tail from a
//! crash mid-append is truncated at the first corrupt record, losing at
//! most the unacknowledged suffix — never the committed prefix.
//! `SNAPSHOT` compacts the log to the minimal record sequence for the
//! current state (written beside the journal, synced and renamed into
//! place, so a crash mid-compaction leaves either the old or the new
//! journal intact).

use std::io;
use std::process::ExitCode;
use std::time::Duration;

use edf_serve::{protocol, AdmissionService, WatchdogConfig};

fn main() -> ExitCode {
    let mut journal_path: Option<String> = None;
    let mut watchdog_micros: Option<u64> = None;
    let mut work_rate: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--journal" => match args.next() {
                Some(path) => journal_path = Some(path),
                None => return usage("--journal needs a path"),
            },
            "--watchdog" => match args.next().map(|word| word.parse::<u64>()) {
                Some(Ok(micros)) => watchdog_micros = Some(micros),
                _ => return usage("--watchdog needs a micros value"),
            },
            "--work-rate" => match args.next().map(|word| word.parse::<u64>()) {
                Some(Ok(rate)) if rate > 0 => work_rate = Some(rate),
                _ => return usage("--work-rate needs a positive units-per-us value"),
            },
            other => return usage(&format!("unknown flag {other}")),
        }
    }

    let mut service = match journal_path {
        Some(path) => match AdmissionService::recover(&path) {
            Ok(service) => service,
            Err(error) => {
                eprintln!("edf-serve: cannot recover journal {path}: {error}");
                return ExitCode::FAILURE;
            }
        },
        None => AdmissionService::new(),
    };
    if let Some(micros) = watchdog_micros {
        service.set_watchdog(Some(WatchdogConfig::with_guard(Duration::from_micros(
            micros,
        ))));
    }
    match work_rate {
        Some(rate) => service.set_work_rate(rate),
        None => {
            service.calibrate_work_rate();
        }
    }

    match protocol::serve(&mut service, io::stdin().lock(), io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("edf-serve: transport error: {error}");
            ExitCode::FAILURE
        }
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("edf-serve: {problem}");
    eprintln!(
        "usage: edf-serve [--journal <path>] [--watchdog <micros>] [--work-rate <units-per-us>]"
    );
    ExitCode::FAILURE
}
