#include "isa/opcode.hh"

#include <cstring>
#include <limits>

#include "common/logging.hh"

namespace edge::isa {

namespace {

/** Saturating signed division (never UB, even speculatively). */
SWord
safeDivS(SWord a, SWord b)
{
    if (b == 0)
        return 0;
    if (a == std::numeric_limits<SWord>::min() && b == -1)
        return std::numeric_limits<SWord>::min();
    return a / b;
}

} // namespace

bool
opcodeByName(const char *name, Opcode *out)
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(Opcode::NUM_OPCODES); ++i) {
        if (std::strcmp(detail::kOpTable[i].name, name) == 0) {
            *out = static_cast<Opcode>(i);
            return true;
        }
    }
    return false;
}

Word
evalOp(Opcode op, Word a, Word b, Word c, std::int64_t imm)
{
    auto sa = static_cast<SWord>(a);
    auto ib = static_cast<Word>(imm);
    switch (op) {
      case Opcode::MOV:  return a;
      case Opcode::MOVI: return ib;

      case Opcode::ADD:  return a + b;
      case Opcode::SUB:  return a - b;
      case Opcode::MUL:  return a * b;
      case Opcode::DIVS: return static_cast<Word>(
              safeDivS(sa, static_cast<SWord>(b)));
      case Opcode::DIVU: return b == 0 ? 0 : a / b;
      case Opcode::REMU: return b == 0 ? 0 : a % b;
      case Opcode::AND:  return a & b;
      case Opcode::OR:   return a | b;
      case Opcode::XOR:  return a ^ b;
      case Opcode::SHL:  return a << (b & 63);
      case Opcode::SHR:  return a >> (b & 63);
      case Opcode::SRA:  return static_cast<Word>(sa >> (b & 63));

      case Opcode::ADDI: return a + ib;
      case Opcode::MULI: return a * ib;
      case Opcode::ANDI: return a & ib;
      case Opcode::ORI:  return a | ib;
      case Opcode::XORI: return a ^ ib;
      case Opcode::SHLI: return a << (imm & 63);
      case Opcode::SHRI: return a >> (imm & 63);
      case Opcode::SRAI: return static_cast<Word>(sa >> (imm & 63));

      case Opcode::TEQ:  return a == b;
      case Opcode::TNE:  return a != b;
      case Opcode::TLT:  return sa < static_cast<SWord>(b);
      case Opcode::TLE:  return sa <= static_cast<SWord>(b);
      case Opcode::TLTU: return a < b;
      case Opcode::TLEU: return a <= b;
      case Opcode::TEQI: return a == ib;
      case Opcode::TNEI: return a != ib;
      case Opcode::TLTI: return sa < imm;
      case Opcode::TLTUI: return a < ib;

      case Opcode::SEL:  return a != 0 ? b : c;

      case Opcode::FADD:
        return doubleToWord(wordToDouble(a) + wordToDouble(b));
      case Opcode::FSUB:
        return doubleToWord(wordToDouble(a) - wordToDouble(b));
      case Opcode::FMUL:
        return doubleToWord(wordToDouble(a) * wordToDouble(b));
      case Opcode::FDIV:
        return doubleToWord(wordToDouble(a) / wordToDouble(b));
      case Opcode::FEQ:  return wordToDouble(a) == wordToDouble(b);
      case Opcode::FLT:  return wordToDouble(a) < wordToDouble(b);
      case Opcode::FLE:  return wordToDouble(a) <= wordToDouble(b);
      case Opcode::I2F:  return doubleToWord(static_cast<double>(sa));
      case Opcode::F2I: {
        double d = wordToDouble(a);
        // Clamp to the representable range so speculative garbage
        // never triggers UB in the host conversion.
        if (!(d >= -9.2233720368547758e18 && d <= 9.2233720368547758e18))
            return 0;
        return static_cast<Word>(static_cast<SWord>(d));
      }

      case Opcode::BR:   return a;
      case Opcode::BRO:  return ib;

      default:
        panic("evalOp called on memory opcode %s", opName(op));
    }
}

} // namespace edge::isa
