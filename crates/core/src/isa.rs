//! The VPU's vector instruction set.
//!
//! Each instruction is one pipeline beat of Fig 1(b): an element-wise
//! lane operation, a paired-lane butterfly stage (with its
//! constant-geometry route), a network traversal, or a fused
//! rotate-and-add reduction. [`Program`]s execute on a [`Vpu`] and can be
//! assembled from and disassembled to a simple textual form, so kernels
//! are inspectable artifacts rather than opaque closures:
//!
//! ```text
//! .const tw = 5 7 11 13
//! vload  r0
//! pease.fwd r0, tw, group=8
//! route  r1, r0, rot=3
//! vadd   r2, r0, r1
//! reduce r3, r2, r4
//! ```

use crate::control::ShiftControls;
use crate::network::{CgDirection, NetworkPass};
use crate::stats::CycleStats;
use crate::trace::TraceSink;
use crate::vpu::{PeaseStage, Vpu};
use crate::CoreError;
use std::collections::HashMap;
use std::fmt;

/// Element-wise ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EwiseOp {
    /// `dst ← a + b`.
    Add,
    /// `dst ← a − b`.
    Sub,
    /// `dst ← a · b`.
    Mul,
    /// `dst ← dst + a · b`.
    Mac,
}

impl EwiseOp {
    const fn mnemonic(&self) -> &'static str {
        match self {
            Self::Add => "vadd",
            Self::Sub => "vsub",
            Self::Mul => "vmul",
            Self::Mac => "vmac",
        }
    }
}

/// One VPU instruction (one pipeline beat, except `Nop`).
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Element-wise ALU op between registers.
    Ewise {
        /// Operation.
        op: EwiseOp,
        /// Destination register.
        dst: usize,
        /// First source register.
        a: usize,
        /// Second source register.
        b: usize,
    },
    /// Element-wise multiply by a constant pool entry (twiddle ROM read).
    MulConst {
        /// Destination register.
        dst: usize,
        /// Source register.
        src: usize,
        /// Constant-pool name.
        pool: String,
    },
    /// Forward Pease stage: CG shuffle + DIF butterflies.
    PeaseForward {
        /// Register operated on in place.
        addr: usize,
        /// Constant pool holding the `m/2` twiddles.
        pool: String,
        /// Independent sub-network width.
        group: usize,
    },
    /// Inverse Pease stage: DIT butterflies + CG unshuffle.
    PeaseInverse {
        /// Register operated on in place.
        addr: usize,
        /// Constant pool holding the `m/2` twiddles.
        pool: String,
        /// Independent sub-network width.
        group: usize,
    },
    /// Network traversal with a uniform rotation.
    Rotate {
        /// Destination register.
        dst: usize,
        /// Source register.
        src: usize,
        /// Rotation distance.
        amount: u64,
    },
    /// Network traversal with a merged automorphism control word
    /// (`i ↦ i·g + t mod m`), via the control SRAM.
    Automorphism {
        /// Destination register.
        dst: usize,
        /// Source register.
        src: usize,
        /// Odd multiplier.
        g: u64,
        /// Cyclic offset.
        t: u64,
    },
    /// Bare constant-geometry route.
    CgRoute {
        /// Destination register.
        dst: usize,
        /// Source register.
        src: usize,
        /// Orientation.
        direction: CgDirection,
    },
    /// Cross-lane sum reduction (log₂ m fused rotate-add beats).
    Reduce {
        /// Destination register (receives the broadcast sum).
        dst: usize,
        /// Source register.
        src: usize,
        /// Scratch register.
        scratch: usize,
    },
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Ewise { op, dst, a, b } => {
                write!(f, "{} r{dst}, r{a}, r{b}", op.mnemonic())
            }
            Self::MulConst { dst, src, pool } => write!(f, "vmulc r{dst}, r{src}, {pool}"),
            Self::PeaseForward { addr, pool, group } => {
                write!(f, "pease.fwd r{addr}, {pool}, group={group}")
            }
            Self::PeaseInverse { addr, pool, group } => {
                write!(f, "pease.inv r{addr}, {pool}, group={group}")
            }
            Self::Rotate { dst, src, amount } => write!(f, "route r{dst}, r{src}, rot={amount}"),
            Self::Automorphism { dst, src, g, t } => {
                write!(f, "route r{dst}, r{src}, auto g={g} t={t}")
            }
            Self::CgRoute {
                dst,
                src,
                direction,
            } => {
                let d = match direction {
                    CgDirection::Dit => "dit",
                    CgDirection::Dif => "dif",
                };
                write!(f, "route r{dst}, r{src}, cg={d}")
            }
            Self::Reduce { dst, src, scratch } => write!(f, "reduce r{dst}, r{src}, r{scratch}"),
        }
    }
}

/// A VPU program: instructions plus named constant pools (the twiddle
/// ROM contents).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Instruction sequence.
    pub instrs: Vec<Instr>,
    /// Named constant pools referenced by instructions.
    pub pools: HashMap<String, Vec<u64>>,
}

impl Program {
    /// An empty program.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Assembles a program from textual form. Lines: `.const NAME = v v …`
    /// directives, instruction mnemonics as printed by
    /// [`Program::disassemble`], blank lines and `#` comments.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedSize`] with no useful payload is never
    /// used; parse failures return [`CoreError::LengthMismatch`] carrying
    /// the offending 1-based line number in `actual`.
    pub fn parse(text: &str) -> Result<Self, CoreError> {
        let mut prog = Self::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fail = || CoreError::LengthMismatch {
                expected: 0,
                actual: idx + 1,
            };
            if let Some(rest) = line.strip_prefix(".const") {
                let (name, vals) = rest.split_once('=').ok_or_else(fail)?;
                let values = vals
                    .split_whitespace()
                    .map(|v| v.parse::<u64>().map_err(|_| fail()))
                    .collect::<Result<Vec<_>, _>>()?;
                prog.pools.insert(name.trim().to_string(), values);
                continue;
            }
            let (mnemonic, rest) = line.split_once(char::is_whitespace).ok_or_else(fail)?;
            let args: Vec<&str> = rest.split(',').map(str::trim).collect();
            let reg = |s: &str| -> Result<usize, CoreError> {
                s.strip_prefix('r')
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(fail)
            };
            let kv = |s: &str, key: &str| -> Result<u64, CoreError> {
                s.strip_prefix(key)
                    .and_then(|v| v.strip_prefix('='))
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(fail)
            };
            let instr = match mnemonic {
                "vadd" | "vsub" | "vmul" | "vmac" => {
                    if args.len() != 3 {
                        return Err(fail());
                    }
                    let op = match mnemonic {
                        "vadd" => EwiseOp::Add,
                        "vsub" => EwiseOp::Sub,
                        "vmul" => EwiseOp::Mul,
                        _ => EwiseOp::Mac,
                    };
                    Instr::Ewise {
                        op,
                        dst: reg(args[0])?,
                        a: reg(args[1])?,
                        b: reg(args[2])?,
                    }
                }
                "vmulc" => {
                    if args.len() != 3 {
                        return Err(fail());
                    }
                    Instr::MulConst {
                        dst: reg(args[0])?,
                        src: reg(args[1])?,
                        pool: args[2].to_string(),
                    }
                }
                "pease.fwd" | "pease.inv" => {
                    if args.len() != 3 {
                        return Err(fail());
                    }
                    let addr = reg(args[0])?;
                    let pool = args[1].to_string();
                    let group = kv(args[2], "group")? as usize;
                    if mnemonic == "pease.fwd" {
                        Instr::PeaseForward { addr, pool, group }
                    } else {
                        Instr::PeaseInverse { addr, pool, group }
                    }
                }
                "route" => {
                    if args.len() != 3 && args.len() != 4 {
                        return Err(fail());
                    }
                    let dst = reg(args[0])?;
                    let src = reg(args[1])?;
                    if let Ok(amount) = kv(args[2], "rot") {
                        Instr::Rotate { dst, src, amount }
                    } else if args[2].starts_with("auto") {
                        // "auto g=G t=T" possibly split across two args.
                        let tail = line.split_once("auto").ok_or_else(fail)?.1;
                        let mut g = None;
                        let mut t = None;
                        for tok in tail.split_whitespace() {
                            if let Some(v) = tok.strip_prefix("g=") {
                                g = v.parse().ok();
                            } else if let Some(v) = tok.strip_prefix("t=") {
                                t = v.parse().ok();
                            }
                        }
                        Instr::Automorphism {
                            dst,
                            src,
                            g: g.ok_or_else(fail)?,
                            t: t.unwrap_or(0),
                        }
                    } else if let Some(d) = args[2].strip_prefix("cg=") {
                        let direction = match d {
                            "dit" => CgDirection::Dit,
                            "dif" => CgDirection::Dif,
                            _ => return Err(fail()),
                        };
                        Instr::CgRoute {
                            dst,
                            src,
                            direction,
                        }
                    } else {
                        return Err(fail());
                    }
                }
                "reduce" => {
                    if args.len() != 3 {
                        return Err(fail());
                    }
                    Instr::Reduce {
                        dst: reg(args[0])?,
                        src: reg(args[1])?,
                        scratch: reg(args[2])?,
                    }
                }
                _ => return Err(fail()),
            };
            prog.instrs.push(instr);
        }
        Ok(prog)
    }

    /// Renders the program back to assembly text (pools first).
    #[must_use]
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        let mut names: Vec<&String> = self.pools.keys().collect();
        names.sort();
        for name in names {
            let vals: Vec<String> = self.pools[name].iter().map(ToString::to_string).collect();
            out.push_str(&format!(".const {name} = {}\n", vals.join(" ")));
        }
        for i in &self.instrs {
            out.push_str(&format!("{i}\n"));
        }
        out
    }

    fn pool<'a>(&'a self, name: &str) -> Result<&'a [u64], CoreError> {
        self.pools
            .get(name)
            .map(Vec::as_slice)
            .ok_or(CoreError::LengthMismatch {
                expected: 1,
                actual: 0,
            })
    }

    /// Executes the program on a VPU, returning the cycles it consumed.
    ///
    /// # Errors
    ///
    /// Register/pool errors from the VPU or missing constant pools.
    pub fn execute<S: TraceSink>(&self, vpu: &mut Vpu<S>) -> Result<CycleStats, CoreError> {
        let start = *vpu.stats();
        for instr in &self.instrs {
            match instr {
                Instr::Ewise { op, dst, a, b } => match op {
                    EwiseOp::Add => vpu.ewise_add(*dst, *a, *b)?,
                    EwiseOp::Sub => vpu.ewise_sub(*dst, *a, *b)?,
                    EwiseOp::Mul => vpu.ewise_mul(*dst, *a, *b)?,
                    EwiseOp::Mac => vpu.ewise_mac(*dst, *a, *b)?,
                },
                Instr::MulConst { dst, src, pool } => {
                    let consts = self.pool(pool)?.to_vec();
                    vpu.ewise_mul_const(*dst, *src, &consts)?;
                }
                Instr::PeaseForward { addr, pool, group } => {
                    let tw = self.pool(pool)?.to_vec();
                    vpu.pease_stage(*addr, &PeaseStage::Forward { twiddles: &tw }, *group)?;
                }
                Instr::PeaseInverse { addr, pool, group } => {
                    let tw = self.pool(pool)?.to_vec();
                    vpu.pease_stage(*addr, &PeaseStage::Inverse { twiddles: &tw }, *group)?;
                }
                Instr::Rotate { dst, src, amount } => vpu.rotate(*dst, *src, *amount)?,
                Instr::Automorphism { dst, src, g, t } => {
                    vpu.automorphism_pass(*dst, *src, *g, *t)?;
                }
                Instr::CgRoute {
                    dst,
                    src,
                    direction,
                } => {
                    vpu.route(*dst, *src, &NetworkPass::cg(*direction))?;
                }
                Instr::Reduce { dst, src, scratch } => vpu.reduce_sum(*dst, *src, *scratch)?,
            }
        }
        Ok(vpu.stats().delta(&start))
    }

    /// The highest register index referenced (for sizing the file).
    #[must_use]
    pub fn max_register(&self) -> usize {
        self.instrs
            .iter()
            .map(|i| match *i {
                Instr::Ewise { dst, a, b, .. } => dst.max(a).max(b),
                Instr::MulConst { dst, src, .. }
                | Instr::Rotate { dst, src, .. }
                | Instr::Automorphism { dst, src, .. }
                | Instr::CgRoute { dst, src, .. } => dst.max(src),
                Instr::PeaseForward { addr, .. } | Instr::PeaseInverse { addr, .. } => addr,
                Instr::Reduce { dst, src, scratch } => dst.max(src).max(scratch),
            })
            .max()
            .unwrap_or(0)
    }
}

/// A convenience ShiftControls re-export check (keeps the ISA's
/// documentation self-contained).
#[doc(hidden)]
pub type _ControlWord = ShiftControls;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use uvpu_math::modular::Modulus;

    fn vpu() -> Vpu {
        Vpu::new(8, Modulus::new(97).unwrap(), 16).unwrap()
    }

    #[test]
    fn assemble_disassemble_round_trip() {
        let text = "\
.const tw = 5 7 11 13
vadd r2, r0, r1
vmulc r3, r2, tw
pease.fwd r0, tw, group=8
pease.inv r0, tw, group=4
route r1, r0, rot=3
route r4, r1, auto g=5 t=2
route r5, r4, cg=dif
reduce r6, r5, r7
";
        let prog = Program::parse(text).unwrap();
        assert_eq!(prog.instrs.len(), 8);
        let round = Program::parse(&prog.disassemble()).unwrap();
        assert_eq!(prog, round, "parse∘disassemble is the identity");
    }

    #[test]
    fn parse_reports_offending_line() {
        let err = Program::parse("vadd r0, r1\n").unwrap_err();
        assert!(matches!(err, CoreError::LengthMismatch { actual: 1, .. }));
        let err = Program::parse("vadd r0, r1, r2\nbogus r1, r2\n").unwrap_err();
        assert!(matches!(err, CoreError::LengthMismatch { actual: 2, .. }));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let prog = Program::parse("# header\n\n  vadd r0, r1, r2 # trailing\n").unwrap();
        assert_eq!(prog.instrs.len(), 1);
    }

    #[test]
    fn program_matches_direct_api_calls() {
        let text = "\
.const ones = 1 1 1 1 1 1 1 1
vadd r2, r0, r1
vmulc r3, r2, ones
route r4, r3, rot=2
route r5, r4, auto g=3 t=1
reduce r6, r5, r7
";
        let prog = Program::parse(text).unwrap();
        let mut a = vpu();
        let mut b = vpu();
        for v in [&mut a, &mut b] {
            v.load(0, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
            v.load(1, &[10, 20, 30, 40, 50, 60, 70, 80]).unwrap();
        }
        let stats = prog.execute(&mut a).unwrap();

        b.ewise_add(2, 0, 1).unwrap();
        b.ewise_mul_const(3, 2, &[1; 8]).unwrap();
        b.rotate(4, 3, 2).unwrap();
        b.automorphism_pass(5, 4, 3, 1).unwrap();
        b.reduce_sum(6, 5, 7).unwrap();

        assert_eq!(a.store(6).unwrap(), b.store(6).unwrap());
        assert_eq!(&stats, b.stats());
    }

    #[test]
    fn pease_program_is_a_real_ntt_stage() {
        let q = Modulus::new(97).unwrap();
        let mut v = Vpu::new(8, q, 4).unwrap();
        v.load(0, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let tw: Vec<String> = [5u64, 7, 11, 13].iter().map(ToString::to_string).collect();
        let inv: Vec<String> = [5u64, 7, 11, 13]
            .iter()
            .map(|&w| q.inv(w).unwrap().to_string())
            .collect();
        let text = format!(
            ".const tw = {}\n.const twi = {}\npease.fwd r0, tw, group=8\npease.inv r0, twi, group=8\n",
            tw.join(" "),
            inv.join(" ")
        );
        let prog = Program::parse(&text).unwrap();
        let stats = prog.execute(&mut v).unwrap();
        assert_eq!(stats.butterfly, 2);
        // Forward then inverse doubles (the ½ lives in the final 1/L fold).
        let half = q.inv(2).unwrap();
        let out = v.store(0).unwrap();
        for (x, orig) in out.iter().zip([1u64, 2, 3, 4, 5, 6, 7, 8]) {
            assert_eq!(q.mul(*x, half), orig);
        }
    }

    #[test]
    fn missing_pool_is_an_error() {
        let prog = Program::parse("vmulc r0, r1, nope\n").unwrap();
        let mut v = vpu();
        assert!(prog.execute(&mut v).is_err());
    }

    #[test]
    fn max_register_sizes_the_file() {
        let prog = Program::parse("vadd r9, r1, r2\nreduce r3, r4, r11\n").unwrap();
        assert_eq!(prog.max_register(), 11);
    }
}
