#include "isa/block.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace edge::isa {

unsigned
Block::numMemOps() const
{
    unsigned n = 0;
    for (const auto &in : _insts)
        if (isMem(in.op))
            ++n;
    return n;
}

unsigned
Block::numStores() const
{
    unsigned n = 0;
    for (const auto &in : _insts)
        if (isStore(in.op))
            ++n;
    return n;
}

SlotId
Block::branchSlot() const
{
    for (std::size_t i = 0; i < _insts.size(); ++i)
        if (isBranch(_insts[i].op))
            return static_cast<SlotId>(i);
    panic("block %s has no branch instruction", _name.c_str());
}

std::size_t
Block::validateInto(std::vector<ValidationIssue> &out,
                    const std::string &where) const
{
    const std::size_t before = out.size();
    auto issue = [&](std::string at, std::string what) {
        std::string w = where;
        if (!at.empty() && !w.empty())
            w += ' ';
        w += at;
        out.push_back({std::move(w), std::move(what)});
    };

    if (_insts.empty())
        issue("", "block has no instructions");
    if (_insts.size() > kMaxBlockInsts)
        issue("", strfmt("block has %zu insts (max %u)",
                         _insts.size(), kMaxBlockInsts));
    if (_reads.size() > kMaxBlockReads)
        issue("", "too many register reads");
    if (_writes.size() > kMaxBlockWrites)
        issue("", "too many register writes");
    if (_exits.empty() || _exits.size() > kMaxBlockExits)
        issue("", strfmt("bad exit count (%zu, need 1..%u)",
                         _exits.size(), kMaxBlockExits));
    if (numMemOps() > kMaxBlockMemOps)
        issue("", "too many memory operations");

    // Count the producers of every operand and write slot.
    std::vector<std::array<unsigned, kMaxOperands>> op_producers(
        _insts.size(), {0, 0, 0});
    std::vector<unsigned> write_producers(_writes.size(), 0);

    auto check_target = [&](const Target &t) -> const char * {
        if (!t.valid())
            return nullptr;
        if (t.kind == TargetKind::Operand) {
            if (t.index >= _insts.size())
                return "target slot out of range";
            if (t.operand >= kMaxOperands)
                return "target operand out of range";
            if (t.operand >= _insts[t.index].numOperands())
                return "target operand not consumed by opcode";
            ++op_producers[t.index][t.operand];
        } else {
            if (t.index >= _writes.size())
                return "write target out of range";
            ++write_producers[t.index];
        }
        return nullptr;
    };

    for (std::size_t i = 0; i < _reads.size(); ++i) {
        if (_reads[i].reg >= kNumArchRegs)
            issue(strfmt("read %zu", i), "read of nonexistent register");
        bool any = false;
        for (const auto &t : _reads[i].targets) {
            if (const char *err = check_target(t))
                issue(strfmt("read %zu", i), err);
            any = any || t.valid();
        }
        if (!any)
            issue(strfmt("read %zu", i), "has no targets");
    }

    unsigned branches = 0;
    Lsid next_lsid = 0;
    for (std::size_t i = 0; i < _insts.size(); ++i) {
        const Instruction &in = _insts[i];
        if (isBranch(in.op)) {
            ++branches;
            // A BRO exit index is static: check it against the exit
            // table here rather than letting the executor trap it.
            if (opInfo(in.op).hasImm &&
                (in.imm < 0 ||
                 static_cast<std::uint64_t>(in.imm) >= _exits.size())) {
                issue(strfmt("slot %zu", i),
                      strfmt("branch exit index %lld out of range "
                             "(block has %zu exits)",
                             static_cast<long long>(in.imm),
                             _exits.size()));
            }
        }
        if (isMem(in.op)) {
            if (in.lsid != next_lsid)
                issue(strfmt("slot %zu", i),
                      strfmt("lsid %u, expected %u (LSIDs must be dense, "
                             "slot order)", in.lsid, next_lsid));
            ++next_lsid;
        }
        for (const auto &t : in.targets) {
            if (isStore(in.op) && t.valid())
                issue(strfmt("slot %zu", i), "store has targets");
            if (isBranch(in.op) && t.valid())
                issue(strfmt("slot %zu", i), "branch has targets");
            if (const char *err = check_target(t))
                issue(strfmt("slot %zu", i), err);
        }
    }
    if (branches != 1)
        issue("", strfmt("block has %u branches (need exactly 1, so "
                         "every path takes exactly one exit)", branches));

    for (std::size_t i = 0; i < _insts.size(); ++i) {
        unsigned n = _insts[i].numOperands();
        for (unsigned k = 0; k < n; ++k) {
            if (op_producers[i][k] != 1)
                issue(strfmt("slot %zu", i),
                      strfmt("operand %u has %u producers (need exactly 1)",
                             k, op_producers[i][k]));
        }
        for (unsigned k = n; k < kMaxOperands; ++k) {
            if (op_producers[i][k] != 0)
                issue(strfmt("slot %zu", i),
                      strfmt("operand %u is wired but not consumed", k));
        }
    }
    for (std::size_t w = 0; w < _writes.size(); ++w) {
        if (_writes[w].reg >= kNumArchRegs)
            issue(strfmt("write %zu", w), "write of nonexistent register");
        if (write_producers[w] != 1)
            issue(strfmt("write %zu", w),
                  strfmt("has %u producers", write_producers[w]));
    }
    // No two writes may name the same architectural register: a block
    // commits atomically, so the last write would be ambiguous.
    for (std::size_t a = 0; a < _writes.size(); ++a)
        for (std::size_t b = a + 1; b < _writes.size(); ++b)
            if (_writes[a].reg == _writes[b].reg)
                issue("", strfmt("register r%u written twice",
                                 _writes[a].reg));
    return out.size() - before;
}

bool
Block::validate(std::string *why) const
{
    std::vector<ValidationIssue> issues;
    if (validateInto(issues) == 0)
        return true;
    if (why) {
        const ValidationIssue &first = issues.front();
        *why = first.where.empty() ? first.what : first.str();
    }
    return false;
}

namespace {

std::string
targetStr(const Target &t)
{
    switch (t.kind) {
      case TargetKind::None:
        return "-";
      case TargetKind::Operand:
        return strfmt("i%u.%u", t.index, t.operand);
      case TargetKind::RegWrite:
        return strfmt("w%u", t.index);
    }
    return "?";
}

} // namespace

std::string
Block::disassemble() const
{
    std::string out = strfmt("block %s:\n", _name.c_str());
    for (std::size_t i = 0; i < _reads.size(); ++i) {
        out += strfmt("  read  r%-3u -> %s, %s\n", _reads[i].reg,
                      targetStr(_reads[i].targets[0]).c_str(),
                      targetStr(_reads[i].targets[1]).c_str());
    }
    for (std::size_t i = 0; i < _insts.size(); ++i) {
        const Instruction &in = _insts[i];
        out += strfmt("  i%-3zu  %-6s", i, opName(in.op));
        if (opInfo(in.op).hasImm)
            out += strfmt(" #%lld", static_cast<long long>(in.imm));
        if (isMem(in.op))
            out += strfmt(" [lsid %u]", in.lsid);
        out += strfmt(" -> %s, %s\n", targetStr(in.targets[0]).c_str(),
                      targetStr(in.targets[1]).c_str());
    }
    for (std::size_t w = 0; w < _writes.size(); ++w)
        out += strfmt("  write w%zu = r%u\n", w, _writes[w].reg);
    for (std::size_t e = 0; e < _exits.size(); ++e) {
        if (_exits[e] == kHaltBlock)
            out += strfmt("  exit %zu -> halt\n", e);
        else
            out += strfmt("  exit %zu -> block %u\n", e, _exits[e]);
    }
    return out;
}

} // namespace edge::isa
