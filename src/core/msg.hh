/**
 * @file
 * The operand-network message format. Every value moving through the
 * machine — operands between instructions, register writes, load
 * requests and replies, store resolutions, block exits — is one of
 * these, tagged with the DSRE protocol fields (state, wave, depth).
 */

#ifndef EDGE_CORE_MSG_HH
#define EDGE_CORE_MSG_HH

#include "common/types.hh"

namespace edge::core {

/**
 * Fields are ordered by size so the message packs into 48 bytes; it is
 * copied once per send, into the network's pooled queue. A message
 * carries no copy of the program: consumers look targets up in the
 * block the (frame, seq) pair names.
 */
struct Msg
{
    enum class Kind : std::uint8_t
    {
        Operand,      ///< to an instruction's operand slot
        WriteVal,     ///< to a block's register-write slot
        LoadReq,      ///< load address to the LSQ
        StoreResolve, ///< store address + data to the LSQ
        ExitVal,      ///< branch outcome to the control unit
    };

    DynBlockSeq seq = 0;  ///< dynamic block the message belongs to
    Word value = 0;       ///< operand value / store data / exit index
    Addr addr = 0;        ///< memory ops only
    std::uint32_t wave = 0;
    std::uint16_t frame = 0; ///< window frame holding block `seq`
    SlotId slot = 0;      ///< consumer slot (Operand) / memop slot
    std::uint16_t writeIdx = 0;
    Lsid lsid = 0;
    std::uint16_t depth = 0;
    Kind kind = Kind::Operand;
    std::uint8_t operand = 0;
    ValState state = ValState::Spec;
    ValState addrState = ValState::Spec; ///< store address state
    /** Commit-wave (state-only) message: rides the status
     *  network, the analogue of TRIPS's global control network. */
    bool statusOnly = false;
    /** Deliberate same-value resend (chaos echo wave or a value
     *  prediction confirmation); exempt from the
     *  value-identity-squash invariant. */
    bool echo = false;
};
static_assert(sizeof(Msg) <= 48, "Msg grew past 48 bytes");

} // namespace edge::core

#endif // EDGE_CORE_MSG_HH
