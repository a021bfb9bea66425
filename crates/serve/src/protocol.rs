//! The `edf-serve` line protocol: capped raw-byte line reading, request
//! classification, dispatch and reply formatting.
//!
//! The binary (`src/main.rs`) is a thin wrapper over [`serve`]; keeping
//! the protocol here lets the fuzz and fault-injection tests drive the
//! *exact* production serve loop over in-memory transports.
//!
//! # Robustness contract
//!
//! * **One reply per line, always.**  Every non-empty input line —
//!   well-formed or not — produces exactly one reply line; blank lines
//!   produce none.  The loop never panics and never exits on bad input
//!   (only on `QUIT`, end of input, or a real transport I/O error).
//! * **Raw bytes in.**  Lines are read as bytes and decoded lossily:
//!   non-UTF-8 input answers `ERR code=bad-line` instead of killing the
//!   process (the pre-hardening loop died on the first invalid byte).
//! * **Length cap.**  A line longer than [`MAX_LINE_BYTES`] answers
//!   `ERR code=bad-line` and the remainder of the oversized line is
//!   drained without buffering it, so unbounded input cannot exhaust
//!   memory.
//! * **Stable error codes.**  Every error reply is
//!   `ERR code=<code> <detail>`; the codes come from
//!   [`RequestError::code`] and never change meaning.
//! * **No reply waits on input.**  Replies are written in request order
//!   and flushed before any read that could block (the read buffer holds
//!   no complete line), after `BYE` and at end of input; the replies to
//!   requests that were already buffered share one write.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::time::Instant;

use edf_analysis::workload::DemandComponent;
use edf_model::Time;

use crate::{
    validate_component, AdmissionDecision, AdmissionService, ComponentFault, RequestError, SlaMode,
};

/// Longest accepted request line in bytes (excluding the newline).
/// Longer lines answer `ERR code=bad-line` and are drained, not buffered.
pub const MAX_LINE_BYTES: usize = 4096;

/// What one raw input line turned out to be (see [`classify_line`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineClass<'a> {
    /// Whitespace only: skipped, no reply.
    Blank,
    /// Over [`MAX_LINE_BYTES`]: one `ERR code=bad-line` reply.
    TooLong,
    /// Contains invalid UTF-8: one `ERR code=bad-line` reply.
    BadUtf8,
    /// A well-formed candidate request (trimmed), borrowed from the line.
    Request(&'a str),
}

/// Classifies one raw line (without its newline).  `truncated` reports
/// that the reader hit the length cap before the newline — the rest of
/// the physical line was discarded.  Shared between the serve loop and
/// the protocol fuzz tests so both agree on what counts as a request.
#[must_use]
pub fn classify_line(bytes: &[u8], truncated: bool) -> LineClass<'_> {
    if truncated {
        return LineClass::TooLong;
    }
    match std::str::from_utf8(bytes) {
        Err(_) => LineClass::BadUtf8,
        Ok(text) => match text.trim() {
            "" => LineClass::Blank,
            trimmed => LineClass::Request(trimmed),
        },
    }
}

/// Reads one line as raw bytes into `line` (cleared first), capped at
/// [`MAX_LINE_BYTES`]; the oversized remainder is drained without
/// buffering.  Returns `Ok(None)` at end of input, otherwise whether the
/// cap truncated the line; `line` then holds its bytes, newline stripped.
///
/// # Errors
///
/// Real transport I/O errors only — malformed *content* never errors.
pub fn read_raw_line(input: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<Option<bool>> {
    line.clear();
    let mut truncated = false;
    loop {
        let available = input.fill_buf()?;
        if available.is_empty() {
            // End of input: the final unterminated line still counts.
            return Ok((!line.is_empty() || truncated).then_some(truncated));
        }
        let (chunk, found_newline) = match available.iter().position(|&byte| byte == b'\n') {
            Some(position) => (&available[..position], true),
            None => (available, false),
        };
        if !truncated {
            let room = MAX_LINE_BYTES - line.len();
            if chunk.len() > room {
                line.extend_from_slice(&chunk[..room]);
                truncated = true;
            } else {
                line.extend_from_slice(chunk);
            }
        }
        let consumed = chunk.len() + usize::from(found_newline);
        input.consume(consumed);
        if found_newline {
            // Strip a trailing '\r' so CRLF transports behave like LF.
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Some(truncated));
        }
    }
}

/// Drives the service over any byte transport (the binary uses
/// stdin/stdout; the tests use in-memory buffers).  See the [module
/// docs](self) for the robustness contract.
///
/// The loop owns its buffering: `input` is read through one
/// [`BufReader`] and replies collect in one [`BufWriter`], both at std's
/// default capacity.  Replies are flushed only when the next read could
/// block — the read buffer holds no complete line — and after `BYE` or
/// at end of input, so the replies to an already-buffered burst of
/// requests leave in one write while an interactive client still gets
/// every reply before the server waits for its next request.
///
/// # Errors
///
/// Real transport I/O errors only.
pub fn serve(
    service: &mut AdmissionService,
    input: impl Read,
    output: impl Write,
) -> io::Result<()> {
    let mut input = BufReader::new(input);
    let mut output = BufWriter::new(output);
    let mut line = Vec::new();
    loop {
        if !input.buffer().contains(&b'\n') {
            output.flush()?;
        }
        let Some(truncated) = read_raw_line(&mut input, &mut line)? else {
            break;
        };
        let request = match classify_line(&line, truncated) {
            LineClass::Blank => continue,
            LineClass::TooLong => {
                let error = RequestError::BadLine {
                    reason: "line over length cap",
                };
                writeln!(output, "ERR {error}")?;
                continue;
            }
            LineClass::BadUtf8 => {
                let error = RequestError::BadLine {
                    reason: "invalid utf-8",
                };
                writeln!(output, "ERR {error}")?;
                continue;
            }
            LineClass::Request(request) => request,
        };
        let reply = dispatch(service, request);
        writeln!(output, "{reply}")?;
        if reply == "BYE" {
            break;
        }
    }
    output.flush()
}

/// One more argument than any verb takes: a request's words beyond this
/// are never read, since a surplus word already fails every verb that
/// checks its argument count, and the others ignore surplus words.
const MAX_ARGS: usize = 5;

/// Capacity of an admission reply, enough for typical ids, counts and
/// latencies, so formatting it allocates once.
const REPLY_CAPACITY: usize = 64;

/// Parses one request line and runs it against the service.  Always
/// returns exactly one reply line; errors render as
/// `ERR code=<code> <detail>`.
#[must_use]
pub fn dispatch(service: &mut AdmissionService, request: &str) -> String {
    let mut words = request.split_whitespace();
    let Some(verb) = words.next() else {
        return format!(
            "ERR {}",
            RequestError::BadLine {
                reason: "empty request"
            }
        );
    };
    let mut slots = [""; MAX_ARGS];
    let mut count = 0;
    for (slot, word) in slots.iter_mut().zip(words) {
        *slot = word;
        count += 1;
    }
    let args = &slots[..count];
    let is = |name: &str| verb.eq_ignore_ascii_case(name);
    let result = if is("ADMIT") || is("WHATIF") {
        admission(service, args, is("ADMIT"))
    } else if is("EVICT") {
        evict(service, args)
    } else if is("STAT") {
        stat(service, args)
    } else if is("MODE") {
        mode(service, args)
    } else if is("SYNC") {
        sync(service)
    } else if is("SNAPSHOT") {
        snapshot(service)
    } else if is("HEALTH") {
        Ok(health(service))
    } else if is("QUIT") {
        Ok("BYE".to_owned())
    } else {
        Err(RequestError::UnknownCommand {
            verb: verb.to_ascii_uppercase(),
        })
    };
    match result {
        Ok(reply) => reply,
        Err(error) => format!("ERR {error}"),
    }
}

/// `ADMIT`/`WHATIF <tenant> <cost> <deadline> [period]`.
fn admission(
    service: &mut AdmissionService,
    args: &[&str],
    commit: bool,
) -> Result<String, RequestError> {
    let usage = "ADMIT|WHATIF <tenant> <cost> <deadline> [period]";
    let component_args = args.get(1..).unwrap_or(&[]);
    let (Some(&tenant), Some(component)) = (args.first(), parse_component(component_args)?) else {
        return Err(RequestError::Usage { usage });
    };
    let start = Instant::now();
    let response = if commit {
        service.admit(tenant, component)?
    } else {
        service.what_if(tenant, component)?
    };
    let elapsed = start.elapsed().as_micros();
    let mut reply = String::with_capacity(REPLY_CAPACITY);
    // Writing into a `String` cannot fail.
    let _ = match (commit, response.decision) {
        (true, AdmissionDecision::Admitted(id)) => write!(reply, "ADMITTED id={id}"),
        (true, AdmissionDecision::Rejected) => write!(reply, "REJECTED"),
        (true, AdmissionDecision::Undetermined) => write!(reply, "UNDETERMINED"),
        (false, AdmissionDecision::Admitted(_)) => write!(reply, "WHATIF admit"),
        (false, AdmissionDecision::Rejected) => write!(reply, "WHATIF reject"),
        (false, AdmissionDecision::Undetermined) => write!(reply, "WHATIF unknown"),
    };
    let analysis = &response.analysis;
    let _ = write!(
        reply,
        " verdict={} iters={} us={elapsed}",
        analysis.verdict, analysis.iterations
    );
    Ok(reply)
}

/// `EVICT <tenant> <id>`.
fn evict(service: &mut AdmissionService, args: &[&str]) -> Result<String, RequestError> {
    let (Some(&tenant), Some(id)) = (
        args.first(),
        args.get(1).and_then(|word| word.parse::<u64>().ok()),
    ) else {
        return Err(RequestError::Usage {
            usage: "EVICT <tenant> <id>",
        });
    };
    service.evict(tenant, id)?;
    Ok(format!("EVICTED id={id}"))
}

/// `STAT <tenant>`.
fn stat(service: &AdmissionService, args: &[&str]) -> Result<String, RequestError> {
    let Some(&tenant) = args.first() else {
        return Err(RequestError::Usage {
            usage: "STAT <tenant>",
        });
    };
    match service.stat(tenant) {
        Some(stat) => Ok(format!(
            "STAT tenant={tenant} components={} utilization={:.6}",
            stat.components, stat.utilization
        )),
        None => Err(RequestError::UnknownTenant {
            tenant: tenant.to_owned(),
        }),
    }
}

/// `MODE exact`, `MODE budget <micros>` or `MODE units <units>`.
/// `MODE budget` sets [`SlaMode::BudgetedUnits`] at `micros` times the
/// service's work rate.
fn mode(service: &mut AdmissionService, args: &[&str]) -> Result<String, RequestError> {
    let usage = "MODE exact | MODE budget <micros> | MODE units <units>";
    match args {
        ["exact"] => {
            service.set_mode(SlaMode::Exact)?;
            Ok("MODE exact".to_owned())
        }
        // Wall time is converted to units here, once, at the current
        // work rate: the service and its journal see only the units.
        ["budget", micros] => match micros.parse::<u64>() {
            Ok(micros) => {
                service.set_mode(SlaMode::BudgetedUnits {
                    units: micros.saturating_mul(service.work_rate()),
                })?;
                Ok(format!("MODE budget us={micros}"))
            }
            Err(_) => Err(RequestError::Usage { usage }),
        },
        ["units", units] => match units.parse::<u64>() {
            Ok(units) => {
                service.set_mode(SlaMode::BudgetedUnits { units })?;
                Ok(format!("MODE units={units}"))
            }
            Err(_) => Err(RequestError::Usage { usage }),
        },
        _ => Err(RequestError::Usage { usage }),
    }
}

/// `SYNC`: fsync the journal (machine-death durability for everything
/// committed so far).
fn sync(service: &mut AdmissionService) -> Result<String, RequestError> {
    service.sync()?;
    Ok("SYNCED".to_owned())
}

/// `SNAPSHOT`: compact the journal to the current committed state.
fn snapshot(service: &mut AdmissionService) -> Result<String, RequestError> {
    let records = service.snapshot()?;
    Ok(format!("SNAPSHOTTED records={records}"))
}

/// `HEALTH`: one-line service health summary.
fn health(service: &AdmissionService) -> String {
    format!(
        "HEALTH tenants={} degraded={} guard_trips={} panics_isolated={} budget_exhaustions={} work_rate={}",
        service.tenant_count(),
        service.is_degraded(),
        service.guard_trips(),
        service.panics_isolated(),
        service.budget_exhaustions(),
        service.work_rate()
    )
}

/// Parses `<cost> <deadline> [period]` into a validated demand component.
/// Unparsable words are a usage problem (`Ok(None)` bubbles into the
/// caller's usage error); parsable-but-invalid values are a component
/// fault with its own code.
fn parse_component(args: &[&str]) -> Result<Option<DemandComponent>, RequestError> {
    let parse = |word: &&str| word.parse::<u64>().ok();
    let component = match args {
        [cost, deadline] => match (parse(cost), parse(deadline)) {
            (Some(cost), Some(deadline)) => Some(DemandComponent::one_shot(
                Time::new(cost),
                Time::new(deadline),
                Time::new(0),
            )),
            _ => None,
        },
        [cost, deadline, period] => match (parse(cost), parse(deadline), parse(period)) {
            (Some(cost), Some(deadline), Some(period)) => Some(DemandComponent::periodic(
                Time::new(cost),
                Time::new(deadline),
                Time::new(period),
            )),
            _ => None,
        },
        _ => None,
    };
    match component {
        None => Ok(None),
        Some(component) => {
            validate_component(&component)
                .map_err(|fault: ComponentFault| RequestError::InvalidComponent { fault })?;
            Ok(Some(component))
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    use super::*;

    fn drive(script: &str) -> Vec<String> {
        drive_bytes(script.as_bytes())
    }

    fn drive_bytes(script: &[u8]) -> Vec<String> {
        let mut service = AdmissionService::new();
        let mut output = Vec::new();
        serve(&mut service, script, &mut output).expect("in-memory transport");
        String::from_utf8(output)
            .expect("utf-8 replies")
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn protocol_round_trip() {
        let replies = drive(
            "ADMIT a 4 9 10\nWHATIF a 9 9 10\nSTAT a\nEVICT a 0\nSTAT a\nMODE budget 0\nADMIT a 4 9 10\nMODE exact\nQUIT\n",
        );
        assert!(replies[0].starts_with("ADMITTED id=0 verdict=feasible"));
        assert!(replies[1].starts_with("WHATIF reject verdict=infeasible"));
        assert!(replies[2].starts_with("STAT tenant=a components=1"));
        assert_eq!(replies[3], "EVICTED id=0");
        assert!(replies[4].starts_with("STAT tenant=a components=0"));
        assert_eq!(replies[5], "MODE budget us=0");
        assert!(replies[6].starts_with("UNDETERMINED verdict=unknown"));
        assert_eq!(replies[7], "MODE exact");
        assert_eq!(replies[8], "BYE");
        assert_eq!(replies.len(), 9);
    }

    #[test]
    fn unit_mode_round_trip_and_health_counters() {
        let replies = drive(
            "MODE units 0\nADMIT a 4 9 10\nHEALTH\nMODE units 1000000\nADMIT a 4 9 10\nMODE exact\nQUIT\n",
        );
        assert_eq!(replies[0], "MODE units=0");
        assert!(
            replies[1].starts_with("UNDETERMINED verdict=unknown"),
            "zero units exhaust at the first checkpoint: {}",
            replies[1]
        );
        assert!(
            replies[2].starts_with("HEALTH tenants=1 degraded=false"),
            "{}",
            replies[2]
        );
        assert!(
            replies[2].contains(" budget_exhaustions=1 "),
            "the exhausted admission is counted: {}",
            replies[2]
        );
        assert!(replies[2].contains(" work_rate="), "{}", replies[2]);
        assert_eq!(replies[3], "MODE units=1000000");
        assert!(
            replies[4].starts_with("ADMITTED id=0 verdict=feasible"),
            "a generous unit budget answers exactly: {}",
            replies[4]
        );
        assert_eq!(replies[5], "MODE exact");
        assert_eq!(replies[6], "BYE");
    }

    #[test]
    fn malformed_requests_answer_coded_errors_and_keep_serving() {
        let replies = drive(
            "ADMIT a one 9 10\nEVICT a\nFROB x\nSTAT ghost\nADMIT b 1 5 10\nfrob\nadmit c 1 5 10 20 30\nWhatIf b 1 5 10\nquit\n",
        );
        assert!(replies[0].starts_with("ERR code=usage"));
        assert!(replies[1].starts_with("ERR code=usage"));
        assert_eq!(replies[2], "ERR code=unknown-command FROB");
        assert!(replies[3].starts_with("ERR code=unknown-tenant"));
        assert!(replies[4].starts_with("ADMITTED id=0"));
        // Verbs match in any case; an unknown one is echoed upper-cased.
        assert_eq!(replies[5], "ERR code=unknown-command FROB");
        assert!(replies[6].starts_with("ERR code=usage"), "{}", replies[6]);
        assert!(replies[7].starts_with("WHATIF admit"), "{}", replies[7]);
        assert_eq!(replies[8], "BYE");
    }

    #[test]
    fn invalid_components_answer_their_fault_code() {
        let replies = drive("ADMIT a 0 9 10\nADMIT a 1 0 10\nADMIT a 1 9 0\nSTAT a\nQUIT\n");
        assert!(replies[0].starts_with("ERR code=invalid-component zero cost"));
        assert!(replies[1].starts_with("ERR code=invalid-component zero relative deadline"));
        assert!(replies[2].starts_with("ERR code=invalid-component zero period"));
        assert!(
            replies[3].starts_with("ERR code=unknown-tenant"),
            "invalid admissions never create the tenant: {}",
            replies[3]
        );
        assert_eq!(replies[4], "BYE");
    }

    #[test]
    fn non_utf8_lines_answer_bad_line_and_keep_serving() {
        let mut script: Vec<u8> = Vec::new();
        script.extend_from_slice(b"ADMIT a 4 9 10\n");
        script.extend_from_slice(&[0xff, 0xfe, 0x80, b'\n']);
        script.extend_from_slice(b"STAT a\nQUIT\n");
        let replies = drive_bytes(&script);
        assert!(replies[0].starts_with("ADMITTED id=0"));
        assert!(replies[1].starts_with("ERR code=bad-line invalid utf-8"));
        assert!(replies[2].starts_with("STAT tenant=a components=1"));
        assert_eq!(replies[3], "BYE");
        assert_eq!(replies.len(), 4);
    }

    #[test]
    fn oversized_lines_answer_bad_line_without_buffering() {
        let mut script: Vec<u8> = Vec::new();
        script.extend_from_slice(b"ADMIT ");
        script.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES * 4));
        script.push(b'\n');
        script.extend_from_slice(b"ADMIT a 4 9 10\nQUIT\n");
        let replies = drive_bytes(&script);
        assert!(replies[0].starts_with("ERR code=bad-line line over length cap"));
        assert!(replies[1].starts_with("ADMITTED id=0"));
        assert_eq!(replies[2], "BYE");
        assert_eq!(replies.len(), 3);
    }

    /// `U = 1` with coprime periods near 2³³: the QPA horizon is
    /// undefined (no George bound, an overflowing lcm, no busy-period
    /// fixed point), so the what-if answers an honest unknown.
    #[test]
    fn full_utilization_without_a_horizon_answers_unknown() {
        let replies = drive(
            "ADMIT a 4294967311 8589934621 8589934622\nWHATIF a 4294967313 8589934626 8589934626\nQUIT\n",
        );
        assert!(
            replies[0].starts_with("ADMITTED id=0 verdict=feasible iters=0 "),
            "{}",
            replies[0]
        );
        assert!(
            replies[1].starts_with("WHATIF unknown verdict=unknown iters=0 "),
            "{}",
            replies[1]
        );
        assert_eq!(replies[2], "BYE");
    }

    #[test]
    fn sync_and_snapshot_without_a_journal_answer_no_journal() {
        let replies = drive("SYNC\nSNAPSHOT\nHEALTH\nQUIT\n");
        assert!(replies[0].starts_with("ERR code=no-journal"));
        assert!(replies[1].starts_with("ERR code=no-journal"));
        assert!(replies[2].starts_with("HEALTH tenants=0 degraded=false"));
        assert_eq!(replies[3], "BYE");
    }

    #[test]
    fn classify_line_agrees_with_the_serve_loop() {
        assert_eq!(classify_line(b"", false), LineClass::Blank);
        assert_eq!(classify_line(b"   \t ", false), LineClass::Blank);
        assert_eq!(classify_line(b"anything", true), LineClass::TooLong);
        assert_eq!(classify_line(&[0xff, 0x00], false), LineClass::BadUtf8);
        assert_eq!(
            classify_line(b"  STAT a  ", false),
            LineClass::Request("STAT a")
        );
    }

    /// What a [`CountingOutput`] received: the bytes and the number of
    /// inner `write` calls that carried them.
    #[derive(Default)]
    struct Written {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Written {
        fn replies(&self) -> usize {
            self.bytes.iter().filter(|&&byte| byte == b'\n').count()
        }
    }

    /// A writer that counts the writes reaching it.
    struct CountingOutput(Rc<RefCell<Written>>);

    impl Write for CountingOutput {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut written = self.0.borrow_mut();
            written.bytes.extend_from_slice(buf);
            written.writes += 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A reader that yields `chunks` in order, each `read` at most one
    /// chunk (or what remains of it), and asserts on every `read` that
    /// each line it has yielded so far has its reply written: a reply
    /// held behind a read would deadlock a client that waits for it.
    /// The scripts hold no blank lines and no `QUIT`, so every line
    /// yielded answers exactly one reply.
    struct ScriptedInput {
        chunks: VecDeque<Vec<u8>>,
        lines_yielded: usize,
        written: Rc<RefCell<Written>>,
    }

    impl Read for ScriptedInput {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            assert_eq!(
                self.written.borrow().replies(),
                self.lines_yielded,
                "a reply was held behind a read"
            );
            let Some(chunk) = self.chunks.front_mut() else {
                return Ok(0);
            };
            let count = buf.len().min(chunk.len());
            buf[..count].copy_from_slice(&chunk[..count]);
            chunk.drain(..count);
            if chunk.is_empty() {
                self.chunks.pop_front();
            }
            self.lines_yielded += buf[..count].iter().filter(|&&byte| byte == b'\n').count();
            Ok(count)
        }
    }

    /// Serves `chunks` on a fresh service through the scripted transport.
    fn serve_chunks(chunks: impl IntoIterator<Item = Vec<u8>>) -> Written {
        let written = Rc::new(RefCell::new(Written::default()));
        let input = ScriptedInput {
            chunks: chunks.into_iter().collect(),
            lines_yielded: 0,
            written: Rc::clone(&written),
        };
        serve(
            &mut AdmissionService::new(),
            input,
            CountingOutput(Rc::clone(&written)),
        )
        .expect("scripted transport");
        Rc::try_unwrap(written)
            .ok()
            .expect("serve dropped its transport")
            .into_inner()
    }

    /// 1 000 timing-free requests (short, so the script fits one read
    /// buffer), one per line.
    fn thousand_lines() -> Vec<Vec<u8>> {
        let requests = [
            "STAT a",
            "HEALTH",
            "SYNC",
            "FROB",
            "EVICT a 1",
            "MODE units 5",
        ];
        (0..1000)
            .map(|index| format!("{}\n", requests[index % requests.len()]).into_bytes())
            .collect()
    }

    #[test]
    fn a_buffered_burst_leaves_in_a_few_writes() {
        let script = thousand_lines().concat();
        assert!(script.len() <= 8192, "the script fits one read buffer");
        let batched = serve_chunks([script]);
        let lockstep = serve_chunks(thousand_lines());
        assert_eq!(lockstep.replies(), 1000);
        assert_eq!(
            String::from_utf8(batched.bytes.clone()).expect("utf-8 replies"),
            String::from_utf8(lockstep.bytes).expect("utf-8 replies"),
            "batching changes no reply"
        );
        assert_eq!(
            lockstep.writes, 1000,
            "one line per read: one write per reply"
        );
        assert!(
            batched.writes <= batched.bytes.len().div_ceil(8192) + 1,
            "{} writes carried {} reply bytes",
            batched.writes,
            batched.bytes.len()
        );
    }

    #[test]
    fn no_reply_waits_behind_a_read_of_the_next_line() {
        let written = serve_chunks(
            [
                "ADMIT a 4 9 10\n",
                "WHATIF a 1 9 10\n",
                "STAT a\n",
                "EVICT a 0\n",
            ]
            .map(|line| line.as_bytes().to_vec()),
        );
        let text = String::from_utf8(written.bytes).expect("utf-8 replies");
        let replies: Vec<&str> = text.lines().collect();
        assert!(replies[0].starts_with("ADMITTED id=0"), "{}", replies[0]);
        assert!(replies[1].starts_with("WHATIF admit"), "{}", replies[1]);
        assert!(replies[2].starts_with("STAT tenant=a components=1"));
        assert_eq!(replies[3], "EVICTED id=0");
        assert_eq!(written.writes, 4);
    }

    #[test]
    fn partial_and_over_long_lines_hold_no_reply_behind_a_read() {
        // A request split across two reads.
        let split =
            serve_chunks(["STAT a\nHEA", "LTH\nSY", "NC\n"].map(|chunk| chunk.as_bytes().to_vec()));
        let text = String::from_utf8(split.bytes).expect("utf-8 replies");
        let replies: Vec<&str> = text.lines().collect();
        assert!(replies[0].starts_with("ERR code=unknown-tenant"));
        assert!(replies[1].starts_with("HEALTH tenants=0"));
        assert!(replies[2].starts_with("ERR code=no-journal"));
        assert_eq!(replies.len(), 3);

        // An over-long line spanning several read buffers, once in one
        // chunk and once across chunks.
        let long = vec![b'x'; 5 * MAX_LINE_BYTES];
        let script = [b"HEALTH\n".as_slice(), &long, b"\nSTAT a\n"];
        for written in [
            serve_chunks([script.concat()]),
            serve_chunks(script.map(<[u8]>::to_vec)),
        ] {
            let text = String::from_utf8(written.bytes).expect("utf-8 replies");
            let replies: Vec<&str> = text.lines().collect();
            assert!(replies[0].starts_with("HEALTH tenants=0"));
            assert!(replies[1].starts_with("ERR code=bad-line line over length cap"));
            assert!(replies[2].starts_with("ERR code=unknown-tenant"));
            assert_eq!(replies.len(), 3);
        }
    }

    #[test]
    fn read_raw_line_caps_and_drains() {
        let mut input: &[u8] = b"short\r\nlong line\n";
        let mut line = Vec::new();
        let truncated = read_raw_line(&mut input, &mut line).unwrap().unwrap();
        assert_eq!(line, b"short");
        assert!(!truncated, "CR stripped, under the cap");
        let truncated = read_raw_line(&mut input, &mut line).unwrap().unwrap();
        assert_eq!(line, b"long line");
        assert!(!truncated);
        assert!(
            read_raw_line(&mut input, &mut line).unwrap().is_none(),
            "end of input"
        );
    }
}
