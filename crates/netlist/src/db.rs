//! Versioned binary design snapshots: the `foldic-db/1` format.
//!
//! A snapshot is the SoA design database written to disk almost verbatim:
//! a fixed header (magic, version, section count, table offset), one
//! section per block plus a design-meta and a chip-net section, and a
//! trailing section table where every record carries an FNV-1a digest of
//! its section bytes. Loading is a single `read` of the file followed by
//! structural validation and direct `Vec` adoption — one bounds-checked
//! `memcpy` per column, **no per-entity parsing**. A million-cell design
//! loads in the time it takes to copy ~60 MB.
//!
//! Deliberately *not* zero-copy (each is a small O(n) pass or O(1)):
//!
//! * columns are copied out of the file buffer into owned `Vec`s (the
//!   netlist stays freely mutable; no lifetime ties to a mapping),
//! * `Point` columns are rebuilt from flat `f64` pairs (`Point`'s layout
//!   is not a stability promise),
//! * ports and chip nets are parsed record-by-record (there are tens to
//!   thousands of them, not millions).
//!
//! All integers are little-endian; the format is only read and written on
//! little-endian hosts (enforced at compile time below). Torn writes,
//! truncation and bit flips are caught by the header checks, per-section
//! digests and full structural validation (every symbol, master, pin and
//! CSR span is range-checked before the netlist is handed out) — a
//! corrupt file yields a typed [`DbError`], never a panic.

#[cfg(not(target_endian = "little"))]
compile_error!("foldic-db snapshots are little-endian only");

use crate::block::{Block, BlockKind, Port, PortDir};
use crate::design::{ChipNet, Design};
use crate::intern::{Interner, Symbol};
use crate::netlist::{master_raw_valid, pin_raw_valid, ClockDomain, Netlist};
use crate::{BlockId, PortId};
use foldic_geom::{Point, Rect, Tier};
use rand::{fnv1a, FNV1A_BASIS};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

/// Schema identifier of the snapshot format.
pub const SCHEMA: &str = "foldic-db/1";

const MAGIC: [u8; 8] = *b"FOLDICDB";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 24;
/// Section table record: tag, index, off, len, digest.
const RECORD_LEN: usize = 32;

const TAG_META: u32 = 1;
const TAG_CHIP_NETS: u32 = 2;
const TAG_BLOCK: u32 = 3;

/// Lazy-column presence bits in a block section header.
const HAS_INST_FLAGS: u32 = 1;
const HAS_INST_GROUPS: u32 = 1 << 1;
const HAS_NET_CAPS: u32 = 1 << 2;
const HAS_NET_FLAGS: u32 = 1 << 3;

/// Stable `BlockKind` byte encoding (order is part of the format).
const BLOCK_KINDS: [BlockKind; 17] = [
    BlockKind::Spc,
    BlockKind::L2d,
    BlockKind::L2t,
    BlockKind::L2b,
    BlockKind::Ccx,
    BlockKind::Mcu,
    BlockKind::Mac,
    BlockKind::Rdp,
    BlockKind::Tds,
    BlockKind::Rtx,
    BlockKind::Ncu,
    BlockKind::Ccu,
    BlockKind::Dmu,
    BlockKind::Peu,
    BlockKind::Siu,
    BlockKind::Tcu,
    BlockKind::Misc,
];

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum DbError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the `FOLDICDB` magic.
    BadMagic,
    /// The file's format version is not one this build reads.
    BadVersion(u32),
    /// The file ends before a declared structure does (torn write).
    Truncated,
    /// A section's bytes do not match the digest in the section table.
    SectionDigest {
        /// Section tag (meta, chip nets, block).
        tag: u32,
        /// Section index within its tag (block position).
        index: u32,
    },
    /// The bytes parse but violate a structural invariant.
    Corrupt(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            DbError::BadMagic => write!(f, "not a foldic-db snapshot (bad magic)"),
            DbError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {VERSION})"
                )
            }
            DbError::Truncated => write!(f, "snapshot is truncated"),
            DbError::SectionDigest { tag, index } => {
                write!(
                    f,
                    "snapshot section tag={tag} index={index} fails its digest"
                )
            }
            DbError::Corrupt(why) => write!(f, "snapshot is corrupt: {why}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e)
    }
}

fn corrupt(why: impl Into<String>) -> DbError {
    DbError::Corrupt(why.into())
}

/// Whole-file digest in the manifest's `fnv64:` notation.
pub fn file_digest(path: &Path) -> Result<String, DbError> {
    let bytes = std::fs::read(path)?;
    Ok(format!("fnv64:{:016x}", fnv1a(FNV1A_BASIS, &bytes)))
}

/// Provenance of a loaded snapshot: the meta entries the generator wrote,
/// the whole-file digest, and entity totals.
#[derive(Debug, Clone)]
pub struct DbInfo {
    /// Generator-provided `key=value` provenance (e.g. `generator=t2`,
    /// `size=full`, `seed=…`).
    pub meta: BTreeMap<String, String>,
    /// Whole-file digest (`fnv64:<16 hex>`), path-independent.
    pub digest: String,
    /// Total instances across all blocks.
    pub cells: u64,
    /// Total intra-block nets across all blocks.
    pub nets: u64,
}

// ---- writing ---------------------------------------------------------------

/// Streaming snapshot writer: sections are buffered one at a time, so
/// writing a design holds O(largest section) memory, not O(design) —
/// the partner of `NetlistBuilder` on the save side.
pub struct DbWriter {
    out: BufWriter<File>,
    // (tag, index, off, len, digest)
    records: Vec<(u32, u32, u64, u64, u64)>,
    off: u64,
    buf: Vec<u8>,
    blocks: u32,
    finished: bool,
}

impl DbWriter {
    /// Creates `path` and writes the design-meta section.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] when the file cannot be created or written.
    pub fn create(path: &Path, design_name: &str, meta: &[(&str, &str)]) -> Result<Self, DbError> {
        let file = File::create(path)?;
        let mut w = Self {
            out: BufWriter::new(file),
            records: Vec::new(),
            off: HEADER_LEN as u64,
            buf: Vec::new(),
            blocks: 0,
            finished: false,
        };
        // placeholder header, patched by finish()
        w.out.write_all(&[0u8; HEADER_LEN])?;
        w.buf.clear();
        let mut text = String::new();
        text.push_str("design_name=");
        text.push_str(design_name);
        text.push('\n');
        for (k, v) in meta {
            debug_assert!(!k.contains('=') && !k.contains('\n') && !v.contains('\n'));
            text.push_str(k);
            text.push('=');
            text.push_str(v);
            text.push('\n');
        }
        let mut buf = std::mem::take(&mut w.buf);
        buf.extend_from_slice(text.as_bytes());
        w.flush_section(TAG_META, 0, &buf)?;
        w.buf = buf;
        Ok(w)
    }

    fn flush_section(&mut self, tag: u32, index: u32, bytes: &[u8]) -> Result<(), DbError> {
        let digest = fnv1a(FNV1A_BASIS, bytes);
        self.out.write_all(bytes)?;
        self.records
            .push((tag, index, self.off, bytes.len() as u64, digest));
        self.off += bytes.len() as u64;
        Ok(())
    }

    /// Appends one block as a section.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on write failure.
    pub fn add_block(&mut self, block: &Block) -> Result<(), DbError> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        encode_block(&mut buf, block);
        let index = self.blocks;
        self.blocks += 1;
        self.flush_section(TAG_BLOCK, index, &buf)?;
        self.buf = buf;
        Ok(())
    }

    /// Writes the chip-level nets.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on write failure.
    pub fn chip_nets(&mut self, nets: &[ChipNet]) -> Result<(), DbError> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        put_u32(&mut buf, nets.len() as u32);
        for net in nets {
            put_u32(&mut buf, net.name.len() as u32);
            buf.extend_from_slice(net.name.as_bytes());
            put_u32(&mut buf, net.endpoints.len() as u32);
            for &(b, p) in &net.endpoints {
                put_u32(&mut buf, b.0);
                put_u32(&mut buf, p.0);
            }
            put_u32(&mut buf, net.bits);
            buf.push(domain_byte(net.domain));
        }
        self.flush_section(TAG_CHIP_NETS, 0, &buf)?;
        self.buf = buf;
        Ok(())
    }

    /// Writes the section table and patches the header, completing the
    /// snapshot. A file without a finished header is rejected by the
    /// loader, so a crash mid-write cannot produce a silently-truncated
    /// but loadable snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on write failure.
    pub fn finish(mut self) -> Result<(), DbError> {
        let table_off = self.off;
        let mut table = Vec::with_capacity(self.records.len() * RECORD_LEN);
        for &(tag, index, off, len, digest) in &self.records {
            put_u32(&mut table, tag);
            put_u32(&mut table, index);
            put_u64(&mut table, off);
            put_u64(&mut table, len);
            put_u64(&mut table, digest);
        }
        self.out.write_all(&table)?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        put_u32(&mut header, VERSION);
        put_u32(&mut header, self.records.len() as u32);
        put_u64(&mut header, table_off);
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&header)?;
        self.out.flush()?;
        self.finished = true;
        Ok(())
    }
}

/// Saves `design` with the given provenance entries.
///
/// # Errors
///
/// Returns [`DbError::Io`] on write failure.
pub fn save_design(design: &Design, meta: &[(&str, &str)], path: &Path) -> Result<(), DbError> {
    let mut w = DbWriter::create(path, &design.name, meta)?;
    for (_, block) in design.blocks() {
        w.add_block(block)?;
    }
    w.chip_nets(design.chip_nets())?;
    w.finish()
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn domain_byte(d: ClockDomain) -> u8 {
    match d {
        ClockDomain::Cpu => 0,
        ClockDomain::Io => 1,
    }
}

fn tier_byte(t: Tier) -> u8 {
    match t {
        Tier::Bottom => 0,
        Tier::Top => 1,
    }
}

fn put_slice_u32(buf: &mut Vec<u8>, xs: impl IntoIterator<Item = u32>) {
    for x in xs {
        put_u32(buf, x);
    }
}

fn encode_block(buf: &mut Vec<u8>, block: &Block) {
    let nl = &block.netlist;
    let (ibuf, spans, templates) = nl.interner.parts();
    let mut lazy = 0u32;
    if !nl.inst_flags.is_empty() {
        lazy |= HAS_INST_FLAGS;
    }
    if !nl.inst_groups.is_empty() {
        lazy |= HAS_INST_GROUPS;
    }
    if !nl.net_caps.is_empty() {
        lazy |= HAS_NET_CAPS;
    }
    if !nl.net_flags.is_empty() {
        lazy |= HAS_NET_FLAGS;
    }
    // fixed header
    put_u32(buf, block.name.len() as u32);
    put_u32(buf, nl.name.len() as u32);
    buf.push(
        BLOCK_KINDS
            .iter()
            .position(|k| *k == block.kind)
            .expect("BLOCK_KINDS covers every kind") as u8,
    );
    buf.push(domain_byte(block.clock));
    buf.push(tier_byte(block.tier));
    buf.push(block.folded as u8);
    put_f64(buf, block.activity);
    for v in [
        block.outline.llx,
        block.outline.lly,
        block.outline.urx,
        block.outline.ury,
        block.pos.x,
        block.pos.y,
    ] {
        put_f64(buf, v);
    }
    for v in [
        nl.num_insts() as u32,
        nl.num_nets() as u32,
        nl.pin_keys.len() as u32,
        nl.num_ports() as u32,
        nl.num_groups() as u32,
        ibuf.len() as u32,
        spans.len() as u32,
        templates.len() as u32,
        lazy,
    ] {
        put_u32(buf, v);
    }
    // variable payload, in header order
    buf.extend_from_slice(block.name.as_bytes());
    buf.extend_from_slice(nl.name.as_bytes());
    buf.extend_from_slice(ibuf.as_bytes());
    put_slice_u32(buf, spans.iter().flat_map(|&(a, b)| [a, b]));
    put_slice_u32(buf, templates.iter().flat_map(|&(a, b, c, d)| [a, b, c, d]));
    put_slice_u32(buf, nl.inst_names.iter().map(|s| s.raw()));
    put_slice_u32(buf, nl.inst_masters.iter().copied());
    for p in &nl.inst_pos {
        put_f64(buf, p.x);
        put_f64(buf, p.y);
    }
    buf.extend_from_slice(&nl.inst_flags);
    put_slice_u32(buf, nl.inst_groups.iter().copied());
    put_slice_u32(buf, nl.net_names.iter().map(|s| s.raw()));
    put_slice_u32(buf, nl.net_driver_key.iter().copied());
    for &a in &nl.net_driver_aux {
        buf.extend_from_slice(&a.to_le_bytes());
    }
    put_slice_u32(buf, nl.net_off.iter().copied());
    put_slice_u32(buf, nl.net_len.iter().copied());
    put_slice_u32(buf, nl.net_caps.iter().copied());
    buf.extend_from_slice(&nl.net_flags);
    put_slice_u32(buf, nl.pin_keys.iter().copied());
    for &a in &nl.pin_aux {
        buf.extend_from_slice(&a.to_le_bytes());
    }
    for port in &nl.ports {
        put_u32(buf, port.name.raw());
        buf.push(match port.dir {
            PortDir::Input => 0,
            PortDir::Output => 1,
        });
        buf.push(domain_byte(port.domain));
        buf.push(tier_byte(port.tier));
        buf.push(0);
        put_f64(buf, port.pos.x);
        put_f64(buf, port.pos.y);
    }
    put_slice_u32(buf, nl.groups.iter().map(|s| s.raw()));
}

// ---- reading ---------------------------------------------------------------

/// Byte cursor over one section.
struct Cur<'a> {
    b: &'a [u8],
    p: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cur { b, p: 0 }
    }

    fn take(&mut self, n: u64) -> Result<&'a [u8], DbError> {
        let rest = (self.b.len() - self.p) as u64;
        if n > rest {
            return Err(DbError::Truncated);
        }
        let s = &self.b[self.p..self.p + n as usize];
        self.p += n as usize;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DbError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DbError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DbError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, DbError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn utf8(&mut self, len: u32) -> Result<String, DbError> {
        let bytes = self.take(u64::from(len))?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("non-UTF-8 string"))
    }

    fn done(&self) -> bool {
        self.p == self.b.len()
    }
}

/// Plain-old-data column element adoptable by bulk copy.
///
/// # Safety
///
/// Implementors must be valid for every bit pattern and have no padding.
unsafe trait Pod: Copy {}
unsafe impl Pod for u8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for f64 {}

/// Adopts `count` elements from the cursor into an owned exact-capacity
/// `Vec` with a single `memcpy` — the near-zero-copy load path.
fn adopt<T: Pod>(cur: &mut Cur<'_>, count: u32) -> Result<Vec<T>, DbError> {
    let n = count as usize;
    let bytes = cur.take(u64::from(count) * std::mem::size_of::<T>() as u64)?;
    let mut v: Vec<T> = Vec::with_capacity(n);
    // SAFETY: the destination has capacity for n elements, the source
    // holds exactly n * size_of::<T>() initialized bytes, T is Pod (any
    // bit pattern valid, no padding), and the regions cannot overlap.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), v.as_mut_ptr().cast::<u8>(), bytes.len());
        v.set_len(n);
    }
    Ok(v)
}

fn decode_block(bytes: &[u8]) -> Result<Block, DbError> {
    let mut c = Cur::new(bytes);
    let name_len = c.u32()?;
    let nl_name_len = c.u32()?;
    let kind_byte = c.u8()?;
    let kind = *BLOCK_KINDS
        .get(kind_byte as usize)
        .ok_or_else(|| corrupt(format!("bad block kind {kind_byte}")))?;
    let clock = decode_domain(c.u8()?)?;
    let tier = decode_tier(c.u8()?)?;
    let folded = match c.u8()? {
        0 => false,
        1 => true,
        b => return Err(corrupt(format!("bad folded byte {b}"))),
    };
    let activity = c.f64()?;
    let outline = Rect {
        llx: c.f64()?,
        lly: c.f64()?,
        urx: c.f64()?,
        ury: c.f64()?,
    };
    let pos = Point::new(c.f64()?, c.f64()?);
    let n_insts = c.u32()?;
    let n_nets = c.u32()?;
    let n_pool = c.u32()?;
    let n_ports = c.u32()?;
    let n_groups = c.u32()?;
    let buf_len = c.u32()?;
    let n_spans = c.u32()?;
    let n_tmpls = c.u32()?;
    let lazy = c.u32()?;
    if lazy & !(HAS_INST_FLAGS | HAS_INST_GROUPS | HAS_NET_CAPS | HAS_NET_FLAGS) != 0 {
        return Err(corrupt(format!("bad lazy-column mask {lazy:#x}")));
    }

    let name = c.utf8(name_len)?;
    let nl_name = c.utf8(nl_name_len)?;
    let ibuf = c.utf8(buf_len)?;
    let span_words: Vec<u32> = adopt(&mut c, n_spans.checked_mul(2).ok_or(DbError::Truncated)?)?;
    let spans: Vec<(u32, u32)> = span_words.chunks_exact(2).map(|w| (w[0], w[1])).collect();
    let tmpl_words: Vec<u32> = adopt(&mut c, n_tmpls.checked_mul(4).ok_or(DbError::Truncated)?)?;
    let templates: Vec<(u32, u32, u32, u32)> = tmpl_words
        .chunks_exact(4)
        .map(|w| (w[0], w[1], w[2], w[3]))
        .collect();
    let interner = Interner::from_parts(ibuf, spans, templates).map_err(corrupt)?;

    let inst_name_raws: Vec<u32> = adopt(&mut c, n_insts)?;
    let inst_masters: Vec<u32> = adopt(&mut c, n_insts)?;
    let pos_words: Vec<f64> = adopt(&mut c, n_insts.checked_mul(2).ok_or(DbError::Truncated)?)?;
    let inst_pos: Vec<Point> = pos_words
        .chunks_exact(2)
        .map(|w| Point::new(w[0], w[1]))
        .collect();
    let inst_flags: Vec<u8> = if lazy & HAS_INST_FLAGS != 0 {
        adopt(&mut c, n_insts)?
    } else {
        Vec::new()
    };
    let inst_groups: Vec<u32> = if lazy & HAS_INST_GROUPS != 0 {
        adopt(&mut c, n_insts)?
    } else {
        Vec::new()
    };
    let net_name_raws: Vec<u32> = adopt(&mut c, n_nets)?;
    let net_driver_key: Vec<u32> = adopt(&mut c, n_nets)?;
    let net_driver_aux: Vec<u16> = adopt(&mut c, n_nets)?;
    let net_off: Vec<u32> = adopt(&mut c, n_nets)?;
    let net_len: Vec<u32> = adopt(&mut c, n_nets)?;
    let net_caps: Vec<u32> = if lazy & HAS_NET_CAPS != 0 {
        adopt(&mut c, n_nets)?
    } else {
        Vec::new()
    };
    let net_flags: Vec<u8> = if lazy & HAS_NET_FLAGS != 0 {
        adopt(&mut c, n_nets)?
    } else {
        Vec::new()
    };
    let pin_keys: Vec<u32> = adopt(&mut c, n_pool)?;
    let pin_aux: Vec<u16> = adopt(&mut c, n_pool)?;
    let mut ports = Vec::with_capacity(n_ports as usize);
    for _ in 0..n_ports {
        let name = Symbol::from_raw(c.u32()?);
        let dir = match c.u8()? {
            0 => PortDir::Input,
            1 => PortDir::Output,
            b => return Err(corrupt(format!("bad port direction {b}"))),
        };
        let domain = decode_domain(c.u8()?)?;
        let tier = decode_tier(c.u8()?)?;
        let _pad = c.u8()?;
        let pos = Point::new(c.f64()?, c.f64()?);
        ports.push(Port {
            name,
            dir,
            domain,
            pos,
            tier,
        });
    }
    let group_raws: Vec<u32> = adopt(&mut c, n_groups)?;
    if !c.done() {
        return Err(corrupt("trailing bytes in block section"));
    }

    // ---- structural validation (everything below is range checks) ----
    let check_symbol = |raw: u32, what: &str| -> Result<Symbol, DbError> {
        let sym = Symbol::from_raw(raw);
        if interner.contains(sym) {
            Ok(sym)
        } else {
            Err(corrupt(format!("{what} symbol {raw:#x} outside the table")))
        }
    };
    let mut inst_names = Vec::with_capacity(inst_name_raws.len());
    for raw in inst_name_raws {
        inst_names.push(check_symbol(raw, "instance")?);
    }
    let mut net_names = Vec::with_capacity(net_name_raws.len());
    for raw in net_name_raws {
        net_names.push(check_symbol(raw, "net")?);
    }
    for port in &ports {
        check_symbol(port.name.raw(), "port")?;
    }
    let mut groups = Vec::with_capacity(group_raws.len());
    for raw in group_raws {
        let sym = check_symbol(raw, "group")?;
        if interner.as_plain(sym).is_none() {
            return Err(corrupt("derived symbol used as a group name"));
        }
        groups.push(sym);
    }
    for &m in &inst_masters {
        if !master_raw_valid(m) {
            return Err(corrupt(format!("bad master encoding {m:#x}")));
        }
    }
    for &f in inst_flags.iter().chain(&net_flags) {
        if f > 3 {
            return Err(corrupt(format!("bad flag byte {f:#x}")));
        }
    }
    for &g in &inst_groups {
        if g != u32::MAX && g as usize >= groups.len() {
            return Err(corrupt(format!("instance group {g} out of range")));
        }
    }
    for i in 0..n_nets as usize {
        let key = net_driver_key[i];
        if key != u32::MAX && !pin_raw_valid(key, net_driver_aux[i], n_insts, n_ports) {
            return Err(corrupt(format!("bad driver pin on net {i}")));
        }
        let len = u64::from(net_len[i]);
        let off = u64::from(net_off[i]);
        let span = if net_caps.is_empty() {
            len
        } else {
            let cap = u64::from(net_caps[i]);
            if cap < len {
                return Err(corrupt(format!("net {i} capacity below its length")));
            }
            cap
        };
        if len > 0 && off + span > u64::from(n_pool) {
            return Err(corrupt(format!("net {i} pin span outside the pool")));
        }
        for k in off as usize..(off + len) as usize {
            if !pin_raw_valid(pin_keys[k], pin_aux[k], n_insts, n_ports) {
                return Err(corrupt(format!("bad sink pin on net {i}")));
            }
        }
    }

    let netlist = Netlist {
        name: nl_name,
        interner,
        inst_names,
        inst_masters,
        inst_pos,
        inst_flags,
        inst_groups,
        net_names,
        net_driver_key,
        net_driver_aux,
        net_off,
        net_len,
        net_caps,
        net_flags,
        pin_keys,
        pin_aux,
        ports,
        groups,
    };
    Ok(Block {
        name,
        kind,
        clock,
        netlist,
        outline,
        pos,
        tier,
        folded,
        activity,
    })
}

fn decode_domain(b: u8) -> Result<ClockDomain, DbError> {
    match b {
        0 => Ok(ClockDomain::Cpu),
        1 => Ok(ClockDomain::Io),
        _ => Err(corrupt(format!("bad clock-domain byte {b}"))),
    }
}

fn decode_tier(b: u8) -> Result<Tier, DbError> {
    match b {
        0 => Ok(Tier::Bottom),
        1 => Ok(Tier::Top),
        _ => Err(corrupt(format!("bad tier byte {b}"))),
    }
}

fn decode_chip_nets(bytes: &[u8], blocks: &[Block]) -> Result<Vec<ChipNet>, DbError> {
    let mut c = Cur::new(bytes);
    let count = c.u32()?;
    let mut nets = Vec::new();
    for _ in 0..count {
        let name_len = c.u32()?;
        let name = c.utf8(name_len)?;
        let arity = c.u32()?;
        let mut endpoints = Vec::with_capacity(arity.min(1 << 16) as usize);
        for _ in 0..arity {
            let b = c.u32()?;
            let p = c.u32()?;
            let block = blocks
                .get(b as usize)
                .ok_or_else(|| corrupt(format!("chip net endpoint block {b} out of range")))?;
            if p as usize >= block.netlist.num_ports() {
                return Err(corrupt(format!("chip net endpoint port {p} out of range")));
            }
            endpoints.push((BlockId(b), PortId(p)));
        }
        let bits = c.u32()?;
        let domain = decode_domain(c.u8()?)?;
        nets.push(ChipNet {
            name,
            endpoints,
            bits,
            domain,
        });
    }
    if !c.done() {
        return Err(corrupt("trailing bytes in chip-net section"));
    }
    Ok(nets)
}

/// Loads a snapshot, fully validating it.
///
/// # Errors
///
/// Returns a typed [`DbError`] for I/O failures, wrong magic/version,
/// truncation, per-section digest mismatches, and any structural
/// corruption. A file this function accepts yields a design whose every
/// symbol, master, pin and span is in range.
pub fn load_design(path: &Path) -> Result<(Design, DbInfo), DbError> {
    let bytes = std::fs::read(path)?;
    load_design_bytes(&bytes)
}

/// [`load_design`] over an in-memory snapshot (the fuzz-suite entry).
///
/// # Errors
///
/// See [`load_design`].
pub fn load_design_bytes(bytes: &[u8]) -> Result<(Design, DbInfo), DbError> {
    if bytes.len() < HEADER_LEN {
        return Err(DbError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(DbError::BadMagic);
    }
    let mut c = Cur::new(&bytes[8..HEADER_LEN]);
    let version = c.u32().expect("header length checked");
    if version != VERSION {
        return Err(DbError::BadVersion(version));
    }
    let n_sections = c.u32().expect("header length checked");
    let table_off = c.u64().expect("header length checked");
    let table_len = u64::from(n_sections) * RECORD_LEN as u64;
    if table_off < HEADER_LEN as u64 || table_off + table_len > bytes.len() as u64 {
        return Err(DbError::Truncated);
    }
    let mut t = Cur::new(&bytes[table_off as usize..(table_off + table_len) as usize]);
    let mut meta_bytes: Option<&[u8]> = None;
    let mut chip_bytes: Option<&[u8]> = None;
    let mut block_bytes: Vec<(u32, &[u8])> = Vec::new();
    for _ in 0..n_sections {
        let tag = t.u32().expect("table length checked");
        let index = t.u32().expect("table length checked");
        let off = t.u64().expect("table length checked");
        let len = t.u64().expect("table length checked");
        let digest = t.u64().expect("table length checked");
        if off < HEADER_LEN as u64 || off + len > table_off {
            return Err(DbError::Truncated);
        }
        let sec = &bytes[off as usize..(off + len) as usize];
        if fnv1a(FNV1A_BASIS, sec) != digest {
            return Err(DbError::SectionDigest { tag, index });
        }
        match tag {
            TAG_META if meta_bytes.is_none() && index == 0 => meta_bytes = Some(sec),
            TAG_CHIP_NETS if chip_bytes.is_none() && index == 0 => chip_bytes = Some(sec),
            TAG_BLOCK => block_bytes.push((index, sec)),
            _ => {
                return Err(corrupt(format!(
                    "unexpected section record tag={tag} index={index}"
                )))
            }
        }
    }
    let meta_bytes = meta_bytes.ok_or_else(|| corrupt("missing design-meta section"))?;
    let chip_bytes = chip_bytes.ok_or_else(|| corrupt("missing chip-net section"))?;
    block_bytes.sort_by_key(|&(i, _)| i);
    for (want, &(got, _)) in block_bytes.iter().enumerate() {
        if got as usize != want {
            return Err(corrupt(format!("block sections are not 0..n: saw {got}")));
        }
    }

    let meta_text =
        std::str::from_utf8(meta_bytes).map_err(|_| corrupt("non-UTF-8 meta section"))?;
    let mut meta = BTreeMap::new();
    let mut design_name = String::new();
    for line in meta_text.lines() {
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| corrupt("meta line without `=`"))?;
        if k == "design_name" {
            design_name = v.to_owned();
        } else {
            meta.insert(k.to_owned(), v.to_owned());
        }
    }

    let mut blocks = Vec::with_capacity(block_bytes.len());
    for &(_, sec) in &block_bytes {
        blocks.push(decode_block(sec)?);
    }
    let chip_nets = decode_chip_nets(chip_bytes, &blocks)?;

    let cells = blocks.iter().map(|b| b.netlist.num_insts() as u64).sum();
    let nets = blocks.iter().map(|b| b.netlist.num_nets() as u64).sum();
    let mut design = Design::new(design_name);
    for b in blocks {
        design.add_block(b);
    }
    for n in chip_nets {
        design.add_chip_net(n);
    }
    let info = DbInfo {
        meta,
        digest: format!("fnv64:{:016x}", fnv1a(FNV1A_BASIS, bytes)),
        cells,
        nets,
    };
    Ok((design, info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{InstMaster, PinRef};
    use foldic_tech::{CellKind, CellLibrary, Drive, MacroKind, VthClass};

    fn sample_design() -> Design {
        let lib = CellLibrary::cmos28();
        let inv = InstMaster::Cell(lib.id_of(CellKind::Inv, Drive::X1, VthClass::Rvt));
        let mut d = Design::new("chip");
        let mut nl = Netlist::new("m0");
        let t = nl.name_template("u", "");
        let nt = nl.name_template("n_", "");
        let g = nl.add_group("alu");
        let p = nl.add_port("in0", PortDir::Input, ClockDomain::Io);
        let mut prev = None;
        for i in 0..20 {
            let u = nl.add_inst(t.at(i), inv);
            if i == 3 {
                nl.inst_mut(u).group = Some(g);
                nl.inst_mut(u).tier = Tier::Top;
            }
            let n = nl.add_net(nt.at(i));
            match prev {
                None => nl.connect_driver(n, PinRef::port(p)),
                Some(q) => nl.connect_driver(n, PinRef::output(q)),
            }
            nl.connect_sink(n, PinRef::input(u, 0));
            prev = Some(u);
        }
        let clk = nl.add_net("clk");
        nl.connect_driver(clk, PinRef::output(prev.unwrap()));
        nl.net_mut(clk).is_clock = true;
        let _m = nl.add_inst("mem0", InstMaster::Macro(MacroKind::Sram4k));
        let b0 = Block::new("m0", BlockKind::Misc, nl, Rect::new(0.0, 0.0, 100.0, 100.0));
        let id0 = d.add_block(b0);
        let nl1 = Netlist::new("m1");
        let id1 = d.add_block(Block::new(
            "m1",
            BlockKind::Ccx,
            nl1,
            Rect::new(0.0, 0.0, 10.0, 10.0),
        ));
        let _ = id1;
        d.add_chip_net(ChipNet {
            name: "bus".into(),
            endpoints: vec![(id0, PortId(0))],
            bits: 64,
            domain: ClockDomain::Cpu,
        });
        d
    }

    /// Saves through the real writer and hands back the file bytes.
    /// Each call site passes its own `salt`, so tests running in
    /// parallel never share (and race on) one temp file.
    fn save_to_vec(d: &Design, salt: &str) -> Vec<u8> {
        let dir = std::env::temp_dir().join(format!("foldic-db-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{salt}.fdb"));
        save_design(d, &[("generator", "test"), ("seed", "7")], &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    }

    #[test]
    fn round_trip_preserves_arrays_and_reports() {
        let d = sample_design();
        let bytes = save_to_vec(&d, "round_trip");
        let (d2, info) = load_design_bytes(&bytes).unwrap();
        assert_eq!(info.meta.get("generator").map(String::as_str), Some("test"));
        assert_eq!(info.cells, d.total_insts() as u64);
        assert_eq!(info.nets, d.total_nets() as u64);
        assert!(info.digest.starts_with("fnv64:"));
        assert_eq!(d2.name, d.name);
        assert_eq!(d2.num_blocks(), d.num_blocks());
        let (a, b) = (d.block(crate::BlockId(0)), d2.block(crate::BlockId(0)));
        assert_eq!(a.netlist.num_insts(), b.netlist.num_insts());
        // identical arrays ⇒ identical resolved names and connectivity
        for (id, inst) in a.netlist.insts() {
            let other = b.netlist.inst(id);
            assert_eq!(
                a.netlist.name_of(inst.name).to_string(),
                b.netlist.name_of(other.name).to_string()
            );
            assert_eq!(inst.tier, other.tier);
            assert_eq!(inst.group, other.group);
        }
        for (id, net) in a.netlist.nets() {
            let other = b.netlist.net(id);
            assert_eq!(net.driver, other.driver);
            assert!(net.sinks().eq(other.sinks()));
            assert_eq!(net.is_clock, other.is_clock);
        }
        assert_eq!(d2.chip_nets().len(), 1);
        assert_eq!(d2.chip_nets()[0].bits, 64);
        // a second save of the loaded design is byte-identical
        assert_eq!(save_to_vec(&d2, "round_trip_again"), bytes);
    }

    #[test]
    fn truncation_and_magic_are_typed_errors() {
        let bytes = save_to_vec(&sample_design(), "truncation");
        assert!(matches!(
            load_design_bytes(&bytes[..10]),
            Err(DbError::Truncated)
        ));
        assert!(matches!(
            load_design_bytes(b"nonsense"),
            Err(DbError::Truncated)
        ));
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(load_design_bytes(&bad), Err(DbError::BadMagic)));
        let mut bad = bytes.clone();
        bad[8] = 99; // version
        assert!(matches!(
            load_design_bytes(&bad),
            Err(DbError::BadVersion(99))
        ));
    }

    #[test]
    fn payload_flips_fail_the_section_digest() {
        let bytes = save_to_vec(&sample_design(), "payload_flips");
        // flip one byte in the middle of the payload
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0x40;
        match load_design_bytes(&bad) {
            Err(DbError::SectionDigest { .. }) | Err(DbError::Truncated) => {}
            other => panic!("expected digest failure, got {other:?}"),
        }
    }
}
