//! Durable tenant journal: append-only, checksummed records of every
//! committed state mutation, with torn-tail-tolerant recovery and
//! snapshot compaction.
//!
//! # Format
//!
//! The journal is a binary file: an 8-byte magic header
//! (`EDFJRNL1`) followed by length-prefixed, checksummed frames:
//!
//! ```text
//! | payload len: u32 LE | FNV-1a 64 of payload: u64 LE | payload |
//! ```
//!
//! Each payload encodes one [`JournalRecord`].  The reader
//! ([`Journal::open`]) accepts the longest valid prefix: the first frame
//! with a short header, short payload, oversized length, checksum
//! mismatch or undecodable payload ends the replay, and the file is
//! truncated back to the end of the last valid frame so subsequent
//! appends continue from a clean tail.  A torn write at a crash therefore
//! loses at most the suffix from the torn record on — never the committed
//! prefix (see the fault-injection tests, which forge short writes and
//! bit flips deliberately).
//!
//! # Durability contract
//!
//! * [`Journal::append`] hands the frame to the OS (`write_all`) before
//!   returning: a committed mutation survives **process death** (e.g.
//!   `kill -9`) unconditionally, because the bytes live in the kernel
//!   page cache, not in user-space buffers.
//! * Surviving **machine death** (power loss) additionally requires
//!   [`Journal::sync`] (`fsync`), exposed to clients as the `SYNC`
//!   protocol command; [`Journal::compact`] also syncs before renaming
//!   the compacted file into place.
//!
//! # Replay semantics
//!
//! Records replay in append order into [`JournalState`]: `Tenant` creates
//! an (initially empty) tenant, `Admit` appends a committed component
//! under its service-assigned id, `Evict` removes one by id, `Register`
//! replaces a tenant's committed list in one record, `Mode` switches the
//! service-level objective and `NextId` raises the id allocator floor
//! (written by snapshots so recovered services never reuse ids).  The
//! rebuilt state is **bit-identical** to the pre-crash committed state —
//! components replay in their original insertion order, so every derived
//! aggregate (utilization sums, bounds, deadline order) is reproduced
//! exactly; the `recovery_equivalence` proptest pins this against the
//! live service.
//!
//! Recovery ([`Journal::replay`]) is one pass over the file's bytes,
//! read into one buffer: each frame is checked (length cap, checksum,
//! full decode) and applied at once, its tenant name read in place and
//! found by one lookup in a name index, not a scan of every tenant.  A
//! replay therefore costs O(records) beyond each record's own work (an
//! `Evict` searches its tenant's list, a `Register` copies its
//! components), and the FNV-1a checksum, one multiply per byte, is its
//! per-byte floor.  It allocates per tenant (the name and the committed
//! list), never per record.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use edf_analysis::workload::DemandComponent;
use edf_model::Time;

use crate::{units_for, SlaMode, DEFAULT_WORK_RATE};

/// File magic: journal format version 1.
const MAGIC: &[u8; 8] = b"EDFJRNL1";

/// Upper bound on one frame's payload, so a bit-flipped length field can
/// never make the reader allocate or skip gigabytes: anything larger is
/// treated as corruption, and the writer refuses to append it.
const MAX_PAYLOAD_BYTES: u32 = 1 << 20;

/// One durable state mutation (or snapshot element).  See the [module
/// documentation](self) for replay semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A tenant now exists (even if it never commits a component).
    Tenant {
        /// Tenant name.
        tenant: String,
    },
    /// A component was admitted and committed under `id`.
    Admit {
        /// Owning tenant.
        tenant: String,
        /// Service-assigned stable component id.
        id: u64,
        /// The committed component.
        component: DemandComponent,
    },
    /// The component with `id` was evicted.
    Evict {
        /// Owning tenant.
        tenant: String,
        /// Service-assigned id of the removed component.
        id: u64,
    },
    /// The tenant was (re-)registered: its committed list is replaced by
    /// `components`, under the consecutive ids `first_id..`.  One record,
    /// so a torn append loses the whole registration and never half of
    /// it.
    Register {
        /// Tenant name.
        tenant: String,
        /// Id of the first component; the rest follow consecutively.
        first_id: u64,
        /// The new committed components, in component order.
        components: Vec<DemandComponent>,
    },
    /// The service-level objective changed.
    Mode(SlaMode),
    /// Floor for the id allocator (snapshots write this so recovered
    /// services never reuse an id that was live pre-compaction).
    NextId(u64),
}

/// A decoded record whose tenant name borrows the journal bytes: what
/// replay applies straight to a [`JournalState`], and what
/// [`Journal::open`] turns into an owned [`JournalRecord`].  Its variants
/// mirror [`JournalRecord`]'s.
enum RecordRef<'a> {
    Tenant(&'a str),
    Admit {
        tenant: &'a str,
        id: u64,
        component: DemandComponent,
    },
    Evict {
        tenant: &'a str,
        id: u64,
    },
    Register {
        tenant: &'a str,
        first_id: u64,
        components: Cow<'a, [DemandComponent]>,
    },
    Mode(SlaMode),
    NextId(u64),
}

impl JournalRecord {
    fn borrowed(&self) -> RecordRef<'_> {
        match self {
            JournalRecord::Tenant { tenant } => RecordRef::Tenant(tenant),
            JournalRecord::Admit {
                tenant,
                id,
                component,
            } => RecordRef::Admit {
                tenant,
                id: *id,
                component: *component,
            },
            JournalRecord::Evict { tenant, id } => RecordRef::Evict { tenant, id: *id },
            JournalRecord::Register {
                tenant,
                first_id,
                components,
            } => RecordRef::Register {
                tenant,
                first_id: *first_id,
                components: Cow::Borrowed(components),
            },
            JournalRecord::Mode(mode) => RecordRef::Mode(*mode),
            JournalRecord::NextId(id) => RecordRef::NextId(*id),
        }
    }
}

impl From<RecordRef<'_>> for JournalRecord {
    fn from(record: RecordRef<'_>) -> Self {
        match record {
            RecordRef::Tenant(tenant) => JournalRecord::Tenant {
                tenant: tenant.to_owned(),
            },
            RecordRef::Admit {
                tenant,
                id,
                component,
            } => JournalRecord::Admit {
                tenant: tenant.to_owned(),
                id,
                component,
            },
            RecordRef::Evict { tenant, id } => JournalRecord::Evict {
                tenant: tenant.to_owned(),
                id,
            },
            RecordRef::Register {
                tenant,
                first_id,
                components,
            } => JournalRecord::Register {
                tenant: tenant.to_owned(),
                first_id,
                components: components.into_owned(),
            },
            RecordRef::Mode(mode) => JournalRecord::Mode(mode),
            RecordRef::NextId(id) => JournalRecord::NextId(id),
        }
    }
}

/// The state a journal replays into: per-tenant committed components
/// (with their stable ids, in insertion order), the last recorded mode
/// and the id allocator floor.
#[derive(Debug, Clone, Default)]
pub struct JournalState {
    /// `(tenant, committed (id, component) list)` in tenant creation
    /// order.  Replay finds a record's tenant through a private name
    /// index kept in step by [`JournalState::apply`], so read this list
    /// but grow or reorder it only through `apply`.
    pub tenants: Vec<(String, Vec<(u64, DemandComponent)>)>,
    /// The last recorded [`SlaMode`], if any.
    pub mode: Option<SlaMode>,
    /// Smallest id the allocator may hand out next.
    pub next_id: u64,
    /// Position of each tenant in `tenants`, by name.
    index: HashMap<String, usize>,
}

impl JournalState {
    /// Replays `record` into the state (see the [module docs](self)).
    pub fn apply(&mut self, record: &JournalRecord) {
        self.apply_ref(record.borrowed());
    }

    fn apply_ref(&mut self, record: RecordRef<'_>) {
        match record {
            RecordRef::Tenant(tenant) => {
                self.tenant_entry(tenant);
            }
            RecordRef::Admit {
                tenant,
                id,
                component,
            } => {
                self.next_id = self.next_id.max(id.saturating_add(1));
                self.tenant_entry(tenant).push((id, component));
            }
            RecordRef::Evict { tenant, id } => {
                let committed = self.tenant_entry(tenant);
                if let Some(index) = committed.iter().position(|&(existing, _)| existing == id) {
                    committed.remove(index);
                }
            }
            RecordRef::Register {
                tenant,
                first_id,
                components,
            } => {
                self.next_id = self
                    .next_id
                    .max(first_id.saturating_add(components.len() as u64));
                *self.tenant_entry(tenant) = (first_id..).zip(components.iter().copied()).collect();
            }
            RecordRef::Mode(mode) => self.mode = Some(mode),
            RecordRef::NextId(id) => self.next_id = self.next_id.max(id),
        }
    }

    fn tenant_entry(&mut self, tenant: &str) -> &mut Vec<(u64, DemandComponent)> {
        let index = match self.index.get(tenant) {
            Some(&index) => index,
            None => {
                let index = self.tenants.len();
                self.index.insert(tenant.to_owned(), index);
                self.tenants.push((tenant.to_owned(), Vec::new()));
                index
            }
        };
        &mut self.tenants[index].1
    }
}

/// A deliberate corruption of one append, used by the deterministic
/// fault-injection harness to prove torn-tail tolerance (see
/// [`Journal::append_faulty`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Only the first `keep` bytes of the frame reach the file — a torn
    /// write at a crash (`keep = 0` models a record lost entirely, which
    /// is indistinguishable from crashing just before the append).
    ShortWrite {
        /// Number of frame bytes actually written.
        keep: usize,
    },
    /// One bit of the frame is flipped — media corruption the checksum
    /// must catch.
    BitFlip {
        /// Bit index into the frame (taken modulo the frame length).
        bit: u64,
    },
}

/// The append-only journal file (see the [module documentation](self)
/// for format, durability and replay semantics).
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Bytes of valid journal prefix (header + intact frames).
    len: u64,
    /// Frames appended (valid records written by this handle or replayed
    /// at open).
    records: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replays its valid prefix
    /// and truncates any torn/corrupt tail.  Returns the journal handle
    /// positioned for appends plus the replayed records in append order.
    ///
    /// # Errors
    ///
    /// Fails only on real I/O errors (open/read/truncate); corruption is
    /// not an error — it bounds the replayed prefix.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Journal, Vec<JournalRecord>)> {
        let mut records = Vec::new();
        let journal = Journal::open_with(path.as_ref(), |record| records.push(record.into()))?;
        Ok((journal, records))
    }

    /// Opens the journal as [`Journal::open`] does, but applies each valid
    /// record to a fresh [`JournalState`] as it is decoded instead of
    /// collecting it: tenant names are read in place from the journal
    /// bytes, so replay allocates per tenant, never per record.
    ///
    /// # Errors
    ///
    /// As [`Journal::open`].
    pub fn replay(path: impl AsRef<Path>) -> io::Result<(Journal, JournalState)> {
        let mut state = JournalState::default();
        let journal = Journal::open_with(path.as_ref(), |record| state.apply_ref(record))?;
        Ok((journal, state))
    }

    /// The shared body of [`Journal::open`] and [`Journal::replay`]:
    /// reads the file into one buffer, hands each record of the valid
    /// prefix to `visit` in append order, and truncates the rest.
    fn open_with(path: &Path, visit: impl FnMut(RecordRef<'_>)) -> io::Result<Journal> {
        let path = path.to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        // `read_to_end` on a file reserves its remaining length up front,
        // so the bytes land in one allocation.
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let (records, valid_len) = if bytes.is_empty() {
            file.write_all(MAGIC)?;
            (0, MAGIC.len() as u64)
        } else if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            // A torn or foreign header: nothing is trustworthy, start
            // over (the old bytes are dropped by the truncate below).
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            (0, MAGIC.len() as u64)
        } else {
            let (records, consumed) = decode_frames(&bytes[MAGIC.len()..], visit);
            (records, (MAGIC.len() + consumed) as u64)
        };

        if valid_len < bytes.len() as u64 {
            file.set_len(valid_len)?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(Journal {
            file,
            path,
            len: valid_len,
            records,
        })
    }

    /// Appends one record frame.  The bytes are handed to the OS before
    /// returning (durable across process death); call [`Journal::sync`]
    /// for machine-death durability.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`], before any byte is written, if
    /// the record encodes to more than the 1 MiB payload cap or holds ids
    /// replay refuses (an `Admit` at id `u64::MAX`, a `Register` whose
    /// ids pass `u64::MAX`: they leave the allocator no successor, so
    /// recovery would truncate that frame and every later one); any I/O
    /// error from the underlying write.  On error the in-memory
    /// accounting is left unchanged (the caller should treat the append
    /// as not having happened and roll back its own state).
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        let frame = encode_frame(record)?;
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Appends one record with `fault` injected into the frame bytes —
    /// the fault-injection harness's model of a torn write
    /// ([`WriteFault::ShortWrite`]) or media corruption
    /// ([`WriteFault::BitFlip`]).  The journal's own accounting still
    /// counts the frame as written, exactly like a real torn write the
    /// process never observed.
    ///
    /// # Errors
    ///
    /// As [`Journal::append`]: an oversized record or one with refused
    /// ids, or any I/O error from the underlying write.
    pub fn append_faulty(&mut self, record: &JournalRecord, fault: WriteFault) -> io::Result<()> {
        let mut frame = encode_frame(record)?;
        match fault {
            WriteFault::ShortWrite { keep } => frame.truncate(keep.min(frame.len())),
            WriteFault::BitFlip { bit } => {
                let len_bits = frame.len() as u64 * 8;
                let bit = bit % len_bits.max(1);
                frame[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
        }
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// `fsync`s the journal file: everything appended so far survives
    /// machine death.
    ///
    /// # Errors
    ///
    /// Any I/O error from `fsync`.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Snapshot compaction: atomically replaces the journal with exactly
    /// `records` (the minimal sequence reproducing the current committed
    /// state).  The new file is written beside the journal, `fsync`ed and
    /// renamed into place, so a crash during compaction leaves either the
    /// old journal or the complete new one — never a mix.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing, syncing or renaming the new file.
    pub fn compact(&mut self, records: &[JournalRecord]) -> io::Result<()> {
        let tmp_path = self.path.with_extension("compact-tmp");
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(MAGIC)?;
        let mut len = MAGIC.len() as u64;
        for record in records {
            let frame = encode_frame(record)?;
            tmp.write_all(&frame)?;
            len += frame.len() as u64;
        }
        tmp.sync_data()?;
        std::fs::rename(&tmp_path, &self.path)?;
        // Reopen so the handle points at the compacted file, not the
        // unlinked old inode.
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.file.seek(SeekFrom::End(0))?;
        self.len = len;
        self.records = records.len() as u64;
        Ok(())
    }

    /// Path of the journal file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of valid journal (header + frames written so far).
    #[must_use]
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Frames appended to (or replayed from) this journal.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.records
    }
}

/// Walks the frames of `bytes`, handing each record to `visit` and
/// stopping at the first torn or corrupt frame; returns the number of
/// records and the number of bytes consumed by valid frames.
fn decode_frames<'a>(bytes: &'a [u8], mut visit: impl FnMut(RecordRef<'a>)) -> (u64, usize) {
    let mut records = 0;
    let mut offset = 0usize;
    while let Some(header) = bytes.get(offset..offset + 12) {
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        if len as u32 > MAX_PAYLOAD_BYTES {
            break;
        }
        let checksum = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        let Some(payload) = bytes.get(offset + 12..offset + 12 + len) else {
            break;
        };
        if fnv1a(payload) != checksum {
            break;
        }
        let Some(record) = decode_record(payload) else {
            break;
        };
        visit(record);
        records += 1;
        offset += 12 + len;
    }
    (records, offset)
}

/// Encodes one record as a full frame (header + payload), refusing what
/// the reader would take for corruption: a payload over
/// [`MAX_PAYLOAD_BYTES`], and ids that leave the allocator no successor —
/// the checks of [`decode_record`], so every frame written replays.
fn encode_frame(record: &JournalRecord) -> io::Result<Vec<u8>> {
    let ids_have_successor = match record {
        JournalRecord::Admit { id, .. } => id.checked_add(1).is_some(),
        JournalRecord::Register {
            first_id,
            components,
            ..
        } => first_id.checked_add(components.len() as u64).is_some(),
        _ => true,
    };
    if !ids_have_successor {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "record ids run past u64::MAX",
        ));
    }
    let payload = encode_record(record);
    if payload.len() > MAX_PAYLOAD_BYTES as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("record of {} bytes over the 1 MiB frame cap", payload.len()),
        ));
    }
    Ok(frame(&payload))
}

/// The frame of `payload`: its length, its checksum, then the bytes.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(12 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// FNV-1a 64-bit over `bytes` — cheap, dependency-free corruption check
/// (not cryptographic; the journal defends against crashes and bit rot,
/// not adversaries).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Record tags (payload byte 0).
const TAG_TENANT: u8 = 1;
const TAG_ADMIT: u8 = 2;
const TAG_EVICT: u8 = 3;
const TAG_MODE: u8 = 4;
const TAG_NEXT_ID: u8 = 5;
const TAG_REGISTER: u8 = 6;

fn encode_record(record: &JournalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match record {
        JournalRecord::Tenant { tenant } => {
            out.push(TAG_TENANT);
            put_name(&mut out, tenant);
        }
        JournalRecord::Admit {
            tenant,
            id,
            component,
        } => {
            out.push(TAG_ADMIT);
            put_name(&mut out, tenant);
            out.extend_from_slice(&id.to_le_bytes());
            put_component(&mut out, component);
        }
        JournalRecord::Evict { tenant, id } => {
            out.push(TAG_EVICT);
            put_name(&mut out, tenant);
            out.extend_from_slice(&id.to_le_bytes());
        }
        JournalRecord::Register {
            tenant,
            first_id,
            components,
        } => {
            out.push(TAG_REGISTER);
            put_name(&mut out, tenant);
            out.extend_from_slice(&first_id.to_le_bytes());
            out.extend_from_slice(&(components.len() as u64).to_le_bytes());
            for component in components {
                put_component(&mut out, component);
            }
        }
        JournalRecord::Mode(mode) => {
            out.push(TAG_MODE);
            let (kind, units) = match mode {
                SlaMode::Exact => (0, 0),
                SlaMode::BudgetedUnits { units } => (2, *units),
            };
            out.push(kind);
            out.extend_from_slice(&units.to_le_bytes());
        }
        JournalRecord::NextId(id) => {
            out.push(TAG_NEXT_ID);
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
    out
}

fn decode_record(payload: &[u8]) -> Option<RecordRef<'_>> {
    let (&tag, mut rest) = payload.split_first()?;
    let record = match tag {
        TAG_TENANT => RecordRef::Tenant(take_name(&mut rest)?),
        TAG_ADMIT => {
            let tenant = take_name(&mut rest)?;
            let id = take_u64(&mut rest)?;
            // Replay lifts the allocator to `id + 1`.
            id.checked_add(1)?;
            RecordRef::Admit {
                tenant,
                id,
                component: take_component(&mut rest)?,
            }
        }
        TAG_EVICT => RecordRef::Evict {
            tenant: take_name(&mut rest)?,
            id: take_u64(&mut rest)?,
        },
        TAG_REGISTER => {
            let tenant = take_name(&mut rest)?;
            let first_id = take_u64(&mut rest)?;
            let count = take_u64(&mut rest)?;
            let components = (0..count)
                .map(|_| take_component(&mut rest))
                .collect::<Option<Vec<_>>>()?;
            // Replay lifts the allocator to `first_id + count`.
            first_id.checked_add(count)?;
            RecordRef::Register {
                tenant,
                first_id,
                components: Cow::Owned(components),
            }
        }
        TAG_MODE => {
            let (&kind, tail) = rest.split_first()?;
            rest = tail;
            // One u64 payload whatever the kind: the unit count for the
            // work budget (kind 2), deadline nanos for the retired
            // wall-clock budget (kind 1).
            let payload = take_u64(&mut rest)?;
            RecordRef::Mode(match kind {
                0 => SlaMode::Exact,
                // Kind 1 is no longer written; older journals hold it.
                // Replay runs before the service's work rate is pinned or
                // calibrated, so the deadline converts at the default
                // rate, the rate an unconfigured service starts with.
                1 => SlaMode::BudgetedUnits {
                    units: units_for(Duration::from_nanos(payload), DEFAULT_WORK_RATE),
                },
                2 => SlaMode::BudgetedUnits { units: payload },
                _ => return None,
            })
        }
        TAG_NEXT_ID => RecordRef::NextId(take_u64(&mut rest)?),
        _ => return None,
    };
    rest.is_empty().then_some(record)
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    let bytes = name.as_bytes();
    debug_assert!(bytes.len() <= usize::from(u16::MAX));
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn take_name<'a>(rest: &mut &'a [u8]) -> Option<&'a str> {
    let (len_bytes, tail) = rest.split_at_checked(2)?;
    let len = usize::from(u16::from_le_bytes(len_bytes.try_into().ok()?));
    let (name, tail) = tail.split_at_checked(len)?;
    *rest = tail;
    std::str::from_utf8(name).ok()
}

fn take_u64(rest: &mut &[u8]) -> Option<u64> {
    let (bytes, tail) = rest.split_at_checked(8)?;
    *rest = tail;
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

/// Component wire layout: flags (bit 0 = periodic), wcet, absolute first
/// deadline, release offset, then the period for periodic components.
fn put_component(out: &mut Vec<u8>, component: &DemandComponent) {
    out.push(u8::from(component.period().is_some()));
    out.extend_from_slice(&component.wcet().as_u64().to_le_bytes());
    out.extend_from_slice(&component.first_deadline().as_u64().to_le_bytes());
    out.extend_from_slice(&component.release_offset().as_u64().to_le_bytes());
    if let Some(period) = component.period() {
        out.extend_from_slice(&period.as_u64().to_le_bytes());
    }
}

fn take_component(rest: &mut &[u8]) -> Option<DemandComponent> {
    let (&flags, tail) = rest.split_first()?;
    *rest = tail;
    if flags > 1 {
        return None;
    }
    let wcet = Time::new(take_u64(rest)?);
    let deadline = take_u64(rest)?;
    let offset = Time::new(take_u64(rest)?);
    // The stored deadline is absolute (offset + relative); reconstruct
    // via the relative-deadline constructors so the round trip is exact.
    let relative = Time::new(deadline.checked_sub(offset.as_u64())?);
    Some(if flags == 1 {
        let period = Time::new(take_u64(rest)?);
        DemandComponent::periodic_from(wcet, relative, period, offset)
    } else {
        DemandComponent::one_shot(wcet, relative, offset)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_journal(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("edf-journal-test-{}-{tag}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn work_unit_mode_records_round_trip() {
        let path = temp_journal("unit-mode");
        let record = JournalRecord::Mode(SlaMode::BudgetedUnits { units: 123_456 });
        {
            let (mut journal, existing) = Journal::open(&path).expect("open");
            assert!(existing.is_empty());
            journal.append(&record).expect("append");
        }
        let (_, replayed) = Journal::open(&path).expect("reopen");
        assert_eq!(replayed, vec![record]);
        let mut state = JournalState::default();
        for replayed in &replayed {
            state.apply(replayed);
        }
        assert_eq!(state.mode, Some(SlaMode::BudgetedUnits { units: 123_456 }));
        let _ = std::fs::remove_file(&path);
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Tenant {
                tenant: "alpha".into(),
            },
            JournalRecord::Admit {
                tenant: "alpha".into(),
                id: 0,
                component: DemandComponent::periodic(Time::new(4), Time::new(9), Time::new(10)),
            },
            JournalRecord::Admit {
                tenant: "alpha".into(),
                id: 1,
                component: DemandComponent::one_shot(Time::new(2), Time::new(5), Time::new(3)),
            },
            JournalRecord::Mode(SlaMode::BudgetedUnits { units: 13_500 }),
            JournalRecord::Evict {
                tenant: "alpha".into(),
                id: 0,
            },
            JournalRecord::Register {
                tenant: "beta".into(),
                first_id: 2,
                components: vec![
                    DemandComponent::periodic(Time::new(1), Time::new(9), Time::new(10)),
                    DemandComponent::one_shot(Time::new(2), Time::new(5), Time::new(3)),
                ],
            },
            JournalRecord::NextId(17),
        ]
    }

    #[test]
    fn round_trips_every_record_kind() {
        let path = temp_journal("roundtrip");
        let written = sample_records();
        {
            let (mut journal, replayed) = Journal::open(&path).expect("open");
            assert!(replayed.is_empty());
            for record in &written {
                journal.append(record).expect("append");
            }
            journal.sync().expect("sync");
        }
        let (journal, replayed) = Journal::open(&path).expect("reopen");
        assert_eq!(replayed, written);
        assert_eq!(journal.record_count(), written.len() as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_rebuilds_committed_state() {
        let mut state = JournalState::default();
        for record in sample_records() {
            state.apply(&record);
        }
        assert_eq!(state.tenants.len(), 2);
        let (name, committed) = &state.tenants[0];
        assert_eq!(name, "alpha");
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].0, 1);
        let (name, committed) = &state.tenants[1];
        assert_eq!(name, "beta");
        let ids: Vec<u64> = committed.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, [2, 3]);
        assert_eq!(state.mode, Some(SlaMode::BudgetedUnits { units: 13_500 }));
        assert_eq!(state.next_id, 17);
        let component = committed[0].1;
        // A registration replaces the tenant's committed list and lifts
        // the allocator past its ids.
        state.apply(&JournalRecord::Register {
            tenant: "alpha".into(),
            first_id: 30,
            components: Vec::new(),
        });
        state.apply(&JournalRecord::Register {
            tenant: "beta".into(),
            first_id: 20,
            components: vec![component],
        });
        assert!(state.tenants[0].1.is_empty());
        assert_eq!(state.tenants[1].1, [(20, component)]);
        assert_eq!(state.next_id, 30);
    }

    #[test]
    fn short_write_truncates_to_the_valid_prefix() {
        for keep in [0usize, 1, 5, 11, 12, 13] {
            let path = temp_journal(&format!("short-{keep}"));
            let records = sample_records();
            {
                let (mut journal, _) = Journal::open(&path).expect("open");
                journal.append(&records[0]).expect("append");
                journal.append(&records[1]).expect("append");
                journal
                    .append_faulty(&records[2], WriteFault::ShortWrite { keep })
                    .expect("faulty append");
            }
            let (journal, replayed) = Journal::open(&path).expect("reopen");
            assert_eq!(replayed, records[..2], "keep={keep}");
            // The torn tail is gone: appends continue cleanly.
            let mut journal = journal;
            journal.append(&records[3]).expect("append after recovery");
            drop(journal);
            let (_, replayed) = Journal::open(&path).expect("second reopen");
            assert_eq!(
                replayed,
                vec![records[0].clone(), records[1].clone(), records[3].clone()]
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn bit_flip_is_caught_by_the_checksum() {
        for bit in [0u64, 7, 31, 64, 95, 96, 150] {
            let path = temp_journal(&format!("flip-{bit}"));
            let records = sample_records();
            {
                let (mut journal, _) = Journal::open(&path).expect("open");
                journal.append(&records[0]).expect("append");
                journal
                    .append_faulty(&records[1], WriteFault::BitFlip { bit })
                    .expect("faulty append");
                // A record after the corruption is unreachable (prefix
                // semantics) — deliberately so.
                journal.append(&records[2]).expect("append");
            }
            let (_, replayed) = Journal::open(&path).expect("reopen");
            assert_eq!(replayed, records[..1], "bit={bit}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn compaction_is_atomic_and_replayable() {
        let path = temp_journal("compact");
        let records = sample_records();
        {
            let (mut journal, _) = Journal::open(&path).expect("open");
            for record in &records {
                journal.append(record).expect("append");
            }
            let snapshot = vec![
                JournalRecord::NextId(17),
                JournalRecord::Tenant {
                    tenant: "alpha".into(),
                },
                JournalRecord::Admit {
                    tenant: "alpha".into(),
                    id: 1,
                    component: DemandComponent::one_shot(Time::new(2), Time::new(5), Time::new(3)),
                },
            ];
            journal.compact(&snapshot).expect("compact");
            assert_eq!(journal.record_count(), 3);
            // Appends after compaction land in the new file.
            journal
                .append(&JournalRecord::Evict {
                    tenant: "alpha".into(),
                    id: 1,
                })
                .expect("append post-compact");
        }
        let (_, replayed) = Journal::open(&path).expect("reopen");
        assert_eq!(replayed.len(), 4);
        let mut state = JournalState::default();
        for record in &replayed {
            state.apply(record);
        }
        assert_eq!(state.tenants[0].1.len(), 0);
        assert_eq!(state.next_id, 17);
        let _ = std::fs::remove_file(&path);
    }

    /// An `Admit` at id `u64::MAX` and a `Register` whose ids pass
    /// `u64::MAX` are refused before a byte is written, by both append
    /// paths; a `Register` ending exactly at `u64::MAX` is written.
    #[test]
    fn records_with_ids_past_the_last_are_refused() {
        let path = temp_journal("refused-ids");
        let component = DemandComponent::periodic(Time::new(1), Time::new(9), Time::new(10));
        let register = |first_id| JournalRecord::Register {
            tenant: "r".into(),
            first_id,
            components: vec![component, component],
        };
        let (mut journal, _) = Journal::open(&path).expect("open");
        journal.append(&sample_records()[0]).expect("append");
        let (len, count) = (journal.len_bytes(), journal.record_count());
        let refused = [
            JournalRecord::Admit {
                tenant: "t".into(),
                id: u64::MAX,
                component,
            },
            register(u64::MAX - 1),
        ];
        for record in &refused {
            let error = journal.append(record).expect_err("refused append");
            assert_eq!(error.kind(), io::ErrorKind::InvalidInput, "{record:?}");
            let fault = WriteFault::ShortWrite { keep: 5 };
            let error = journal
                .append_faulty(record, fault)
                .expect_err("refused faulty append");
            assert_eq!(error.kind(), io::ErrorKind::InvalidInput, "{record:?}");
            assert_eq!((journal.len_bytes(), journal.record_count()), (len, count));
        }
        journal.append(&register(u64::MAX - 2)).expect("append");
        drop(journal);
        let (_, replayed) = Journal::open(&path).expect("reopen");
        assert_eq!(
            replayed,
            [sample_records()[0].clone(), register(u64::MAX - 2)]
        );
        let _ = std::fs::remove_file(&path);
    }

    /// An `Admit` under id `u64::MAX` leaves the allocator no successor, so
    /// replay takes it for a corrupt frame: recovery keeps the prefix
    /// before it, truncates the rest and resumes the allocator after the
    /// last replayed id, instead of overflowing `id + 1`.  The appends
    /// refuse to write that record, so its frame is built here from
    /// `encode_record`'s bytes.
    #[test]
    fn an_admit_at_the_last_id_ends_the_replay() {
        let path = temp_journal("last-id");
        let component = DemandComponent::periodic(Time::new(1), Time::new(9), Time::new(10));
        let admit = |id| JournalRecord::Admit {
            tenant: "t".into(),
            id,
            component,
        };
        let mut bytes = MAGIC.to_vec();
        for record in [
            JournalRecord::Tenant { tenant: "t".into() },
            admit(0),
            admit(u64::MAX),
            admit(1),
        ] {
            bytes.extend(frame(&encode_record(&record)));
        }
        std::fs::write(&path, bytes).expect("write journal");
        let mut service = crate::AdmissionService::recover(&path).expect("replay");
        assert_eq!(service.stat("t").expect("t recovered").components, 1);
        let (_, replayed) = Journal::open(&path).expect("reopen");
        assert_eq!(
            replayed.len(),
            2,
            "the frame at the last id and its suffix are cut"
        );
        let reply = crate::protocol::dispatch(&mut service, "ADMIT t 1 9 10");
        assert!(reply.starts_with("ADMITTED id=1 "), "{reply}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_or_torn_header_restarts_the_journal() {
        let path = temp_journal("header");
        std::fs::write(&path, b"not a journal").expect("seed garbage");
        let (mut journal, replayed) = Journal::open(&path).expect("open over garbage");
        assert!(replayed.is_empty());
        journal.append(&sample_records()[0]).expect("append");
        drop(journal);
        let (_, replayed) = Journal::open(&path).expect("reopen");
        assert_eq!(replayed.len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
