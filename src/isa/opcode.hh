/**
 * @file
 * The EDGE instruction set: opcodes, their static properties, and
 * their functional semantics. The ISA follows the TRIPS prototype in
 * spirit: fixed-size blocks of dataflow instructions with direct
 * target encoding, explicit register read/write interface
 * instructions, LSID-ordered loads and stores, and one taken exit per
 * block.
 */

#ifndef EDGE_ISA_OPCODE_HH
#define EDGE_ISA_OPCODE_HH

#include <cstdint>
#include <iterator>

#include "common/logging.hh"
#include "common/types.hh"

namespace edge::isa {

/** Every EDGE opcode the simulator implements. */
enum class Opcode : std::uint8_t
{
    // Moves / immediates.
    MOV,    ///< op0 -> result
    MOVI,   ///< imm -> result (no operands)

    // Integer arithmetic and logic (two register operands).
    ADD, SUB, MUL, DIVS, DIVU, REMU,
    AND, OR, XOR, SHL, SHR, SRA,

    // Immediate forms (op0 OP imm).
    ADDI, MULI, ANDI, ORI, XORI, SHLI, SHRI, SRAI,

    // Integer comparisons, producing 0 or 1.
    TEQ, TNE, TLT, TLE, TLTU, TLEU,
    TEQI, TNEI, TLTI, TLTUI,

    // Select: op0 ? op1 : op2.
    SEL,

    // Floating point (operands are IEEE doubles in Word bits).
    FADD, FSUB, FMUL, FDIV,
    FEQ, FLT, FLE,
    I2F,    ///< signed int -> double
    F2I,    ///< double -> signed int (trunc)

    // Memory. Effective address = op0 + imm. Loads zero-extend.
    LDB, LDH, LDW, LDD,
    STB, STH, STW, STD, ///< op0 + imm = address, op1 = data

    // Control: choose the block's taken exit.
    BR,     ///< exit index = op0
    BRO,    ///< exit index = imm (no operands)

    NUM_OPCODES,
};

/** Functional-unit class used for execution latency and occupancy. */
enum class FuClass : std::uint8_t
{
    IntAlu,
    IntMul,
    IntDiv,
    FpAlu,
    FpMul,
    FpDiv,
    Mem,
    Ctrl,
};

/** Static properties of one opcode. */
struct OpInfo
{
    const char *name;       ///< mnemonic for the disassembler
    std::uint8_t numOps;    ///< dataflow operands consumed (0..3)
    bool hasImm;            ///< uses the immediate field
    FuClass fu;             ///< functional-unit class
    std::uint8_t accessBytes; ///< memory access size (0 if not mem)
    bool isLoad;
    bool isStore;
    bool isBranch;
};

namespace detail {

inline constexpr OpInfo kOpTable[] = {
    // name    ops imm  fu               bytes load  store branch
    {"mov",    1, false, FuClass::IntAlu, 0, false, false, false},
    {"movi",   0, true,  FuClass::IntAlu, 0, false, false, false},

    {"add",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"sub",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"mul",    2, false, FuClass::IntMul, 0, false, false, false},
    {"divs",   2, false, FuClass::IntDiv, 0, false, false, false},
    {"divu",   2, false, FuClass::IntDiv, 0, false, false, false},
    {"remu",   2, false, FuClass::IntDiv, 0, false, false, false},
    {"and",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"or",     2, false, FuClass::IntAlu, 0, false, false, false},
    {"xor",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"shl",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"shr",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"sra",    2, false, FuClass::IntAlu, 0, false, false, false},

    {"addi",   1, true,  FuClass::IntAlu, 0, false, false, false},
    {"muli",   1, true,  FuClass::IntMul, 0, false, false, false},
    {"andi",   1, true,  FuClass::IntAlu, 0, false, false, false},
    {"ori",    1, true,  FuClass::IntAlu, 0, false, false, false},
    {"xori",   1, true,  FuClass::IntAlu, 0, false, false, false},
    {"shli",   1, true,  FuClass::IntAlu, 0, false, false, false},
    {"shri",   1, true,  FuClass::IntAlu, 0, false, false, false},
    {"srai",   1, true,  FuClass::IntAlu, 0, false, false, false},

    {"teq",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"tne",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"tlt",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"tle",    2, false, FuClass::IntAlu, 0, false, false, false},
    {"tltu",   2, false, FuClass::IntAlu, 0, false, false, false},
    {"tleu",   2, false, FuClass::IntAlu, 0, false, false, false},
    {"teqi",   1, true,  FuClass::IntAlu, 0, false, false, false},
    {"tnei",   1, true,  FuClass::IntAlu, 0, false, false, false},
    {"tlti",   1, true,  FuClass::IntAlu, 0, false, false, false},
    {"tltui",  1, true,  FuClass::IntAlu, 0, false, false, false},

    {"sel",    3, false, FuClass::IntAlu, 0, false, false, false},

    {"fadd",   2, false, FuClass::FpAlu,  0, false, false, false},
    {"fsub",   2, false, FuClass::FpAlu,  0, false, false, false},
    {"fmul",   2, false, FuClass::FpMul,  0, false, false, false},
    {"fdiv",   2, false, FuClass::FpDiv,  0, false, false, false},
    {"feq",    2, false, FuClass::FpAlu,  0, false, false, false},
    {"flt",    2, false, FuClass::FpAlu,  0, false, false, false},
    {"fle",    2, false, FuClass::FpAlu,  0, false, false, false},
    {"i2f",    1, false, FuClass::FpAlu,  0, false, false, false},
    {"f2i",    1, false, FuClass::FpAlu,  0, false, false, false},

    {"ldb",    1, true,  FuClass::Mem,    1, true,  false, false},
    {"ldh",    1, true,  FuClass::Mem,    2, true,  false, false},
    {"ldw",    1, true,  FuClass::Mem,    4, true,  false, false},
    {"ldd",    1, true,  FuClass::Mem,    8, true,  false, false},
    {"stb",    2, true,  FuClass::Mem,    1, false, true,  false},
    {"sth",    2, true,  FuClass::Mem,    2, false, true,  false},
    {"stw",    2, true,  FuClass::Mem,    4, false, true,  false},
    {"std",    2, true,  FuClass::Mem,    8, false, true,  false},

    {"br",     1, false, FuClass::Ctrl,   0, false, false, true},
    {"bro",    0, true,  FuClass::Ctrl,   0, false, false, true},
};

static_assert(std::size(kOpTable) ==
                  static_cast<std::size_t>(Opcode::NUM_OPCODES),
              "opcode table out of sync with Opcode enum");

} // namespace detail

/**
 * Static properties lookup. Inline: the issue path asks isLoad /
 * isStore / isBranch of every executed instruction.
 */
inline const OpInfo &
opInfo(Opcode op)
{
    auto idx = static_cast<std::size_t>(op);
    panic_if(idx >= static_cast<std::size_t>(Opcode::NUM_OPCODES),
             "bad opcode %zu", idx);
    return detail::kOpTable[idx];
}

/** Mnemonic shorthand. */
inline const char *opName(Opcode op) { return opInfo(op).name; }

/**
 * Reverse mnemonic lookup (for deserializing programs).
 * @param name the mnemonic, as produced by opName()
 * @param out receives the opcode on success
 * @return true iff @p name names an opcode
 */
bool opcodeByName(const char *name, Opcode *out);

inline bool isLoad(Opcode op) { return opInfo(op).isLoad; }
inline bool isStore(Opcode op) { return opInfo(op).isStore; }
inline bool isMem(Opcode op) { return isLoad(op) || isStore(op); }
inline bool isBranch(Opcode op) { return opInfo(op).isBranch; }

/**
 * Functional semantics of every non-memory, non-branch opcode.
 * Division by zero yields 0 and INT64_MIN / -1 yields INT64_MIN so
 * speculative execution with garbage operands is always defined.
 *
 * @param op the opcode (must not be a load or store)
 * @param a operand 0 (or unused)
 * @param b operand 1 (or unused)
 * @param c operand 2 (only SEL)
 * @param imm the instruction's immediate
 * @return the produced word (for BR, the chosen exit index)
 */
Word evalOp(Opcode op, Word a, Word b, Word c, std::int64_t imm);

/**
 * Effective address of a memory opcode: base + immediate offset.
 */
inline Addr
memEffAddr(Word base, std::int64_t imm)
{
    return base + static_cast<Addr>(imm);
}

} // namespace edge::isa

#endif // EDGE_ISA_OPCODE_HH
